"""Regularized boundary kernels and the interior source terms.

The four kernels K1..K4 are the differences between screened and unscreened
Coulomb derivatives that appear in the well-conditioned second-kind system:

    K1 = G0 - Gk
    K2 = er * dGk/dny - dG0/dny
    K3 = dG0/dnx - (1/er) * dGk/dnx
    K4 = d2Gk/dnx dny - d2G0/dnx dny

where er is the exterior-to-interior dielectric ratio eps2/eps1. With that
ratio (and unknowns scaled by eps1) the two surface equations close exactly;
PhysicalParams.eps keeps the interior-to-exterior convention eps1/eps2 for
reporting, and the kernels use its reciprocal. Differences of the screened
and unscreened terms are evaluated through expm1 so the large cancelling
parts never meet in floating point.

pair_kernels is the one place these formulas are written. It fills a fixed
set of KERNEL_BUFFERS scratch arrays in place (out=), so a sweep allocates
its buffers once per call (kernel_scratch) and nothing per block.
kernel_sums reads targets and sources as structure of arrays (x, y, z
coordinate rows), forms the displacements in those buffers and returns
the matvec's two weighted row sums. Where the targets are sources too
(lobi's strip sweep) it also returns the column sums of the swapped
pairs, which share every factor with the pairs evaluated. At kappa = 0,
expm1(-0) = -0 makes K1 and K4 exactly zero, so they are not evaluated
and the matvec computes only K2 and K3. That changes no bit: each dropped
term only ever added a signed zero to a nonzero product, and every kept
operation runs in the formulas' order. K2 and K3 are then g = 1/(4 pi r^3)
times terms linear in x - y, so over a source axis every row reads (hobi's
regular strips) both row sums are one (rows, N) @ (N, 8) product of g and
the source_moments, which rounds by its row count. In the identity medium
(eps1 = eps2, kappa = 0) the factors er - 1 of K2 and 1 - 1/er of K3 are
+-0.0, so every term, moment and row sum is +-0.0 and the operator is
exactly the identity. kernel_values_d evaluates all four kernels for
arrays of any broadcast shape.

The solvation energy reads only K1 and K2, and at every kappa both are a
function of r alone times 1 or d.ny. So energy_sums takes r^2 and the row
sums of K1 wdphi + K2 wphi as matrix products with the sources' factors
(energy_factors) and evaluates only the functions of r elementwise.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .mesh import ChargeSystem

FOUR_PI = 4.0 * np.pi

# e^2/(4 pi eps0 Angstrom) in kcal/mol: converts q*phi sums (charges in
# elementary-charge units, lengths in Angstrom, potentials in the 1/(4 pi r)
# convention) to kcal/mol at the output stage. Kernels themselves stay
# unit-free.
KCAL_MOL_PER_E2_ANG = 332.0716

# float64 buffers, each one block of pair values, that pair_kernels fills
KERNEL_BUFFERS = 8
# and that energy_sums uses: r^2, r and g, and one more where kappa > 0
ENERGY_BUFFERS = 4

# float64 values in a 4096-byte page; kernel_scratch allocates one extra
PAGE_DOUBLES = 512


class SingularityError(ValueError):
    """Evaluation point coincides with a source point."""


@dataclass(frozen=True)
class PhysicalParams:
    """Dielectric constants and inverse screening length.

    eps1 is the interior (molecular) dielectric, eps2 the exterior (solvent)
    one, kappa the inverse Debye length in 1/Angstrom.
    """

    eps1: float
    eps2: float
    kappa: float

    def __post_init__(self):
        if not self.eps1 > 0.0:
            raise ValueError(f"eps1 must be positive, got {self.eps1}")
        if not self.eps2 > 0.0:
            raise ValueError(f"eps2 must be positive, got {self.eps2}")
        if not self.kappa >= 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")

    @property
    def eps(self) -> float:
        """Interior-to-exterior dielectric ratio eps1/eps2."""
        return self.eps1 / self.eps2


def _dot3_into(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = a0 b0 + a1 b1 + a2 b2 over 3-tuples of arrays, added in that order."""
    np.multiply(a[0], b[0], out=out)
    out += np.multiply(a[1], b[1], out=tmp)
    out += np.multiply(a[2], b[2], out=tmp)
    return out


@contextmanager
def short_buffers():
    """Shrink NumPy's iterator buffer, which would otherwise take several
    rows of a block with fewer than ~4096 columns at once and make every
    broadcast operation on it ~3x slower. No result depends on its size."""
    size = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(size)


def kernel_scratch(size: int, count: int = KERNEL_BUFFERS) -> np.ndarray:
    """count flat float64 buffers for blocks of up to `size` pairs,
    starting on a page boundary: where the heap put them moved a level-3
    hobi solve by up to ~25% between processes on a 2-CPU Xeon host."""
    raw = np.empty(count * size + PAGE_DOUBLES)
    start = -raw.ctypes.data % (8 * PAGE_DOUBLES) // 8
    return raw[start : start + count * size].reshape(count, size)


def pair_kernels(buf, nx, ny, params: PhysicalParams, drop_zeros=True, swap=False):
    """K1..K4 for the pairs whose displacements x - y sit in buf[0], buf[1], buf[2].

    buf is a sequence of KERNEL_BUFFERS equal-shape float64 arrays, all
    overwritten; nx and ny are 3-tuples of target and source normal
    components that broadcast to that shape. Returns (k1, k2, k3, k4),
    views into buf, with None, if drop_zeros, for K1 and K4 at kappa = 0,
    where both are exactly zero. Every operation is elementwise and in the
    order of the formulas above, so the values do not depend on the shape
    or the blocking. No result is left in buf[-1], which callers may reuse.

    K1 and K4 are exactly symmetric: the swapped pair (y, x), whose
    displacement is -(x - y) and whose normals trade places, rounds to the
    same bits. swap also returns m2 and m3, with K2(y, x) = -m2 and
    K3(y, x) = -m3 exactly: the swapped pair's d.ny is -d.nx and its d.nx
    is -d.ny, so only the signs of the products (d.nx / (4 pi r^3)) c2 and
    (d.ny / (4 pi r^3)) c3 change.
    """
    b0, b1, b2, r2, b4, dny, dnx, b7 = buf
    er = params.eps2 / params.eps1
    screened = params.kappa != 0.0 or not drop_zeros
    d = (b0, b1, b2)
    _dot3_into(d, d, r2, b4)
    _dot3_into(d, ny, dny, b4)
    _dot3_into(d, nx, dnx, b4)
    r = np.sqrt(r2, out=b0)
    inv_r3 = np.multiply(r2, FOUR_PI, out=b1)
    inv_r3 *= r
    np.divide(1.0, inv_r3, out=inv_r3)

    k1 = k4 = None
    if screened:
        kr = np.multiply(r, params.kappa, out=b2)
        em1 = np.negative(kr, out=b4)
        kr_ekr = np.exp(em1, out=b7)
        np.expm1(em1, out=em1)
        kr_ekr *= kr
        # a = (1 + kr) e^{-kr} - 1 and b = (3 + 3 kr + kr^2) e^{-kr} - 3,
        # both O((kr)^2), written so the constant parts cancel exactly
        kr += 3.0
        kr *= kr_ekr  # kr e^{-kr} (3 + kr)
        a = np.add(em1, kr_ekr, out=b7)
        # K1 = -em1 / (4 pi r)
        k1 = np.multiply(r, -FOUR_PI, out=b0)
        np.divide(em1, k1, out=k1)
        b = np.multiply(em1, 3.0, out=b4)
        b += kr
        # K4 = (a nx.ny - b dnx dny / r^2) / (4 pi r^3); the product
        # dnx dny is formed once, so a swapped pair rounds alike
        b /= r2
        b *= np.multiply(dnx, dny, out=r2)
        k4 = _dot3_into(nx, ny, b2, r2)
        k4 *= a
        k4 -= b
        k4 *= inv_r3
        # the factors ((er - 1) + er a) of K2 and -((1 - 1/er) - a/er) of K3
        c2 = np.multiply(a, er, out=r2)
        c2 += er - 1.0
        c3 = np.divide(a, er, out=a)
        c3 -= 1.0 - 1.0 / er
    else:
        c2 = er - 1.0
        c3 = -(1.0 - 1.0 / er)
    k2 = np.multiply(dny, inv_r3, out=dny)
    # K3 = -dnx / (4 pi r^3) ((1 - 1/er) - a/er)
    k3 = np.multiply(dnx, inv_r3, out=dnx)
    m2 = m3 = None
    if swap:
        m2 = np.multiply(k3, c2, out=inv_r3)
        m3 = np.multiply(k2, c3, out=b4)
    k3 *= c3
    k2 *= c2
    if swap:
        return k1, k2, k3, k4, m2, m3
    return k1, k2, k3, k4


def source_moments(pos, nrm, wphi, wdphi, params: PhysicalParams) -> np.ndarray:
    """(N, 8) kappa = 0 source moments, pos and nrm (3, N) coordinate rows
    about a fixed origin: c2 wphi ny (3 columns), c2 wphi y.ny, c3 wdphi
    and c3 wdphi y (3), with c2 = er - 1 and c3 = -(1 - 1/er)."""
    er = params.eps2 / params.eps1
    a, b = (er - 1.0) * wphi, -(1.0 - 1.0 / er) * wdphi
    return np.column_stack([*(a * nrm), a * (pos[0] * nrm[0] + pos[1] * nrm[1]
                            + pos[2] * nrm[2]), b, *(b * pos)])


def _green_cube(r2, r, g):
    """g = 1/(4 pi r^3), the factor of K2 and K3, from r2 = r^2; r = sqrt(r2)
    is left in r."""
    np.multiply(r2, FOUR_PI, out=g)
    g *= np.sqrt(r2, out=r)
    return np.divide(1.0, g, out=g)


def _moment_sums(buf, tx, nx, moments, origin, mask):
    """kernel_sums' kappa = 0 row sums from the displacements in buf[:3]:
    x.G[:3] - G[3] and (x.nx) G[4] - nx.G[5:8], x = tx - origin and
    G = g @ moments, with g zero at the masked pairs."""
    r2 = _dot3_into(buf[:3], buf[:3], buf[3], buf[4])
    g = _green_cube(r2, buf[0], buf[1])
    if mask is not None:
        g[mask] = 0.0
    G = np.matmul(g, moments).T
    x, nx = tx[:, :, 0] - origin[:, None], nx[:, :, 0]
    xnx = x[0] * nx[0] + x[1] * nx[1] + x[2] * nx[2]
    return [x[0] * G[0] + x[1] * G[1] + x[2] * G[2] - G[3],
            xnx * G[4] - (nx[0] * G[5] + nx[1] * G[6] + nx[2] * G[7])]


def kernel_sums(scratch, targets, sources, wphi, wdphi, params: PhysicalParams,
                mask=None, own=None, moments=None):
    """Weighted row sums of K1..K4 over one block of (target, source) pairs.

    targets and sources are (positions, normals), each a (3, ...) array of
    coordinate rows (structure of arrays) whose rows broadcast to the block
    shape (rows, cols). wphi and wdphi broadcast to the same shape. The
    block is evaluated in views of the flat scratch buffers
    (kernel_scratch), which must hold rows x cols values. mask, a
    (rows, cols) index pair, drops pairs that would divide by zero. Returns
    the per-row sums of K1 wdphi + K2 wphi and of K3 wdphi + K4 wphi; at
    kappa = 0 the exactly-zero K1 and K4 terms are not evaluated.

    own, given when the targets are sources too, is their (wphi, wdphi) as
    (rows, 1) columns: each pair is then also evaluated swapped, and the
    per-column sums of K1(y, x) wdphi(x) + K2(y, x) wphi(x) and of
    K3(y, x) wdphi(x) + K4(y, x) wphi(x) follow the row sums.
    moments, (source_moments of the (1, N) sources about an origin, that
    origin), asks for the kappa = 0 row sums of (rows, 1) targets as one
    matrix product; wphi and wdphi are then not read.
    """
    (tx, tn), (sx, sn) = targets, sources
    shape = np.broadcast(tx[0], sx[0]).shape
    flat = scratch[:, : shape[0] * shape[1]]
    d = np.subtract(tx, sx, out=flat[:3].reshape((3,) + shape))
    if mask is not None:
        d[(slice(None),) + mask] = ((1.0,), (0.0,), (0.0,))  # a unit placeholder
    buf = [b.reshape(shape) for b in flat]
    if moments is not None:
        return _moment_sums(buf, tx, tn, *moments, mask)
    k1, k2, k3, k4, *m = pair_kernels(buf, tn, sn, params, swap=own is not None)
    cols = []
    if own is not None:
        # K2(y, x) wphi(x) = m2 (-wphi(x)) exactly; K1 and K4 stay whole
        # for the row terms, so their column products go through buf[-1]
        m2, m3 = m
        owp, owd = own
        m2 *= -owp
        m3 *= -owd
        if k1 is not None:
            m2 += np.multiply(k1, owd, out=buf[-1])
            m3 += np.multiply(k4, owp, out=buf[-1])
        cols = [m2, m3]
    k2 *= wphi
    if k1 is not None:
        k2 += np.multiply(k1, wdphi, out=k1)
    k3 *= wdphi
    if k4 is not None:
        k3 += np.multiply(k4, wphi, out=k4)
    rows = [k2, k3]
    if mask is not None:
        for term in rows + cols:
            term[mask] = 0.0
    return [term.sum(axis=1) for term in rows] + [term.sum(axis=0) for term in cols]


def energy_factors(x, pos, nrm, wphi, wdphi, origin, params: PhysicalParams):
    """(targets, sources), the factors of energy_sums, from (n, 3) target
    positions x, the (3, N) source coordinate rows pos and nrm (views do),
    and the source weights; positions are taken about origin. targets is the
    (n, 5) rows [|x|^2, x, 1]; sources holds the (5, N) columns
    [1, -2 y, |y|^2], whose product with targets is r^2, the (N, 4)
    moments c wphi ny (3 columns) and c wphi y.ny, with c = er - 1 at
    kappa = 0 and er otherwise, and wdphi, or None at kappa = 0. Both are
    built in place, so the call holds 9 values a source beyond its inputs."""
    er = params.eps2 / params.eps1
    screened = params.kappa != 0.0
    x = (x - origin).T
    xx = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    targets = np.column_stack([xx, *x, np.ones_like(xx)])
    r2_cols, moments = np.empty((5, pos.shape[1])), np.empty((pos.shape[1], 4))
    y = np.subtract(pos, origin[:, None], out=r2_cols[1:4])
    ydn = _dot3_into(y, nrm, r2_cols[4], r2_cols[0])
    a = np.multiply(wphi, er if screened else er - 1.0, out=r2_cols[0])
    for k in range(3):  # one column at a time: a strided (3, N) output is ~3x slower
        np.multiply(a, nrm[k], out=moments[:, k])
    np.multiply(a, ydn, out=moments[:, 3])
    _dot3_into(y, y, r2_cols[4], r2_cols[0])
    r2_cols[0] = 1.0
    y *= -2.0
    return targets, (r2_cols, moments, wdphi if screened else None)


def energy_sums(buf, targets, sources, params: PhysicalParams) -> np.ndarray:
    """Row sums of K1 wdphi + K2 wphi for a block of rows of the targets
    against all the sources of energy_factors. buf holds ENERGY_BUFFERS
    flat blocks of at least rows x N values. r^2 is one (rows, 5) @ (5, N)
    product; with g = 1/(4 pi r^3), K1 = -em1 r^2 g and K2 = h d.ny,
    h = g ((er - 1) + er a), so the row sums are
    x.H[:3] - H[3] - (em1 r^2 g) @ wdphi with H = h @ moments (h = g and
    no K1 at kappa = 0, where em1 = -0 makes K1 exactly zero). The
    products round by their row count."""
    r2_cols, moments, wdphi = sources
    shape = (len(targets), r2_cols.shape[1])
    b = [flat.reshape(shape) for flat in buf[:, : shape[0] * shape[1]]]
    r2 = np.matmul(targets, r2_cols, out=b[0])
    h = _green_cube(r2, b[1], b[2])
    k1 = None
    if wdphi is not None:
        er = params.eps2 / params.eps1
        mkr = np.multiply(b[1], -params.kappa, out=b[1])  # -kappa r
        a = np.exp(mkr, out=b[3])
        a *= mkr
        em1 = np.expm1(mkr, out=b[1])
        # a = em1 + kr e^{-kr} = (1 + kr) e^{-kr} - 1, O((kr)^2), kr = kappa r
        np.subtract(em1, a, out=a)
        k1 = np.multiply(r2, em1, out=b[0])
        k1 *= h  # em1 r^2 g = -K1
        a += 1.0 - 1.0 / er
        h = np.multiply(a, h, out=a)  # h / er: the moments carry er
    H = np.matmul(h, moments).T
    x = targets[:, 1:4].T
    sums = x[0] * H[0] + x[1] * H[1] + x[2] * H[2] - H[3]
    if k1 is not None:
        sums -= np.matmul(k1, wdphi)
    return sums


def kernel_values_d(d, nx, ny, params: PhysicalParams):
    """K1..K4 from precomputed displacements d = x - y, all (..., 3).

    The separation lets callers mask coincident pairs in d before any
    division happens. Everything is elementwise, so results do not depend on
    how the inputs were blocked or partitioned; (3,) inputs, one pair, give
    0-d arrays.
    """
    d, nx, ny = (np.asarray(a, dtype=float) for a in (d, nx, ny))
    shape = np.broadcast_shapes(d.shape, nx.shape, ny.shape)[:-1]
    scratch = np.empty((KERNEL_BUFFERS,) + shape)
    buf = [scratch[i, ...] for i in range(KERNEL_BUFFERS)]  # views, 0-d too
    for i in range(3):
        buf[i][...] = d[..., i]
    nx, ny = (np.moveaxis(a, -1, 0) for a in (nx, ny))
    return pair_kernels(buf, nx, ny, params, drop_zeros=False)


def source_terms_at(points: np.ndarray, normals: np.ndarray, charges: ChargeSystem,
                    bounds=None):
    """(S1, S2) at many surface points: (m, 3) -> pair of (m,).

    S1 = sum_k q_k G0(x, y_k) and S2 = sum_k q_k dG0(x, y_k)/dn_x, the
    unscaled interior sources; the solver applies the dielectric scaling
    when it assembles a right-hand side. Block k is points [bounds[k],
    bounds[k+1]) against every charge (default: one block), evaluated
    from coordinate rows (structure of arrays) in views of one
    kernel_scratch; each point sums over the full charge axis, so no
    result depends on the blocks.
    """
    pt, nt, yt = (np.ascontiguousarray(np.transpose(a), dtype=float)
                  for a in (points, normals, charges.positions))
    m, q = pt.shape[1], charges.charges
    s1, s2 = np.empty(m), np.empty(m)
    bounds = (0, m) if bounds is None else bounds
    scratch = kernel_scratch(int(np.diff(bounds).max(initial=0)) * q.size)
    with short_buffers():
        for s, e in zip(bounds[:-1], bounds[1:]):
            flat = scratch[:, : (e - s) * q.size].reshape(KERNEL_BUFFERS, e - s, q.size)
            d, (r2, tmp, dnx, r, t) = flat[:3], flat[3:]
            np.subtract(pt[:, s:e, None], yt[:, None], out=d)
            _dot3_into(d, d, r2, tmp)
            if r2.min(initial=np.inf) < 1e-300:
                i, j = np.argwhere(r2 < 1e-300)[0]
                raise SingularityError(f"surface point {s + i} coincides with charge {j}")
            _dot3_into(d, nt[:, s:e, None], dnx, tmp)
            np.sqrt(r2, out=r)
            # q / (4 pi r) and -q dnx / (4 pi r^3)
            s1[s:e] = np.divide(q, np.multiply(r, FOUR_PI, out=t), out=t).sum(axis=1)
            den = np.multiply(r2, FOUR_PI, out=tmp)
            den *= r
            np.multiply(dnx, -q, out=dnx)
            s2[s:e] = np.divide(dnx, den, out=dnx).sum(axis=1)
    return s1, s2
