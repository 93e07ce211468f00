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

kernel_values_d evaluates K1..K4 pairwise on arrays of any broadcast
shape, for hobi's near table, the tests and the benchmark's kernel probe.
The regular sweeps never evaluate a kernel pairwise. Each kernel is a
function of r times a polynomial of degree at most 2 in d = x - y
(kernel_sums), so kernel_sums evaluates only d, r^2, d.nx and a few
functions of r in scratch allocated once per sweep (kernel_scratch), and
takes every row sum as a product of such a factor with source_moments,
contracted with the target_factors; where the targets are sources too
(lobi), the factors' transposes give the swapped pairs' sums. Products
round by their row count. At kappa = 0,
expm1(-0) = -0 makes K1, K4 and every factor but g = 1/(4 pi r^3)
exactly zero, so they are not evaluated. In the identity medium
(eps1 = eps2, kappa = 0) the factors er - 1 of K2 and 1 - 1/er of K3 are
+-0.0, so every moment and row sum is +-0.0 and the operator is exactly
the identity. The solvation energy reads only K1 and K2, and energy_sums
takes r^2 as a product too (energy_factors).
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

# float64 buffers, each one block of pair values, that source_terms_at fills
# (kernel_scratch's default count)
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


def _screening(r, kappa, em1, a, b=False):
    """em1 = expm1(-kr) and a = (1 + kr) e^{-kr} - 1, kr = kappa r, into
    the buffers em1 (r's too, unless b) and a; if b, also
    b = (3 + 3 kr + kr^2) e^{-kr} - 3 = 3 a + kr^2 e^{-kr} into r's buffer.
    a and b are O((kr)^2), written so the constant parts cancel exactly."""
    mkr = np.multiply(r, -kappa, out=r)
    e = np.exp(mkr, out=a)
    e *= mkr  # -kr e^{-kr}
    np.expm1(mkr, out=em1)
    if b:
        mkr *= e
    np.subtract(em1, e, out=a)
    if not b:
        return em1, a, None
    for _ in range(3):  # no buffer is left for 3 a
        mkr += a
    return em1, a, mkr


def _green_cube(r2, r, g):
    """g = 1/(4 pi r^3), the factor of K2 and K3, from r2 = r^2; r = sqrt(r2)
    is left in r."""
    np.multiply(r2, FOUR_PI, out=g)
    g *= np.sqrt(r2, out=r)
    return np.divide(1.0, g, out=g)


def sweep_buffers(params: PhysicalParams) -> int:
    """Scratch blocks kernel_sums fills: d, which becomes r^2, r and g, and
    at kappa > 0 three more for d.nx and the screening factors."""
    return 3 if params.kappa == 0.0 else 6


def source_moments(y, nrm, wphi, wdphi, params: PhysicalParams) -> list:
    """kernel_sums' (N, k) source moments, one per kernel factor, from the
    (3, N) coordinate rows y (about the sweep's origin) and nrm: [mg] at
    kappa = 0, else [mg, m4, wdphi, m5]. With c2 = er - 1, c3 = 1/er - 1:
      mg (g):  c2 wphi ny (3), c2 wphi y.ny, c3 wdphi, c3 wdphi y (3);
      m4 (f4): er wphi ny (3), -er wphi y.ny, wdphi/er, wphi ny - wdphi y/er (3);
      m5 (t, swapped pairs): wphi, -wphi y (3), weighted from x.nx on.
    f1 reads wdphi, and t the rows' m4[:, :4] times -1/er."""
    er = params.eps2 / params.eps1
    a, b = (er - 1.0) * wphi, -(1.0 - 1.0 / er) * wdphi
    ydn = y[0] * nrm[0] + y[1] * nrm[1] + y[2] * nrm[2]
    moments = [np.column_stack([*(a * nrm), a * ydn, b, *(b * y)])]
    if params.kappa == 0.0:
        return moments
    wn = wphi * nrm
    m4 = np.column_stack([*(er * wn), -er * wphi * ydn, wdphi / er, *(wn - wdphi * y / er)])
    return moments + [m4, wdphi, np.column_stack([wphi, *(-wphi * y)])]


def target_factors(x, nx) -> np.ndarray:
    """(8, T) target weights of kernel_sums from the (3, T) coordinate rows
    x (positions about the sweep's origin) and nx: x (3), 1, x.nx, nx (3)."""
    xnx = x[0] * nx[0] + x[1] * nx[1] + x[2] * nx[2]
    return np.array([*x, np.ones_like(xnx), xnx, *nx])


def _moment_products(factors, moments, weights, er, swapped=False):
    """[row1, row2]: the (rows, n) kernel factors times their (n, k) source
    moments, each taken as moments.T @ factor.T and dropped before the
    next, contracted with the (8, rows) target weights; g's product G as
    x.G[:3] - G[3] and (x.nx) G[4] - nx.G[5:8]."""
    x, xnx, nx = weights[0:3], weights[4], weights[5:8]
    p = np.matmul(moments[0].T, factors[0].T)
    row1 = x[0] * p[0] + x[1] * p[1] + x[2] * p[2] - p[3]
    row2 = xnx * p[4] - (nx[0] * p[5] + nx[1] * p[6] + nx[2] * p[7])
    if len(factors) > 1:
        (f4, f1, t), (m4, wdphi, m5) = factors[1:], moments[1:]
        del p  # else the next product is allocated before p is released
        p = np.matmul(m4.T, f4.T)
        p *= weights
        p = p.reshape(2, 4, -1).sum(axis=1)
        row1 += p[0]
        row2 += p[1]
        row1 -= np.matmul(wdphi, f1.T)
        if swapped:
            p = np.matmul(m5.T, t.T)
            p *= weights[4:]
            row2 += p.sum(axis=0)
        else:
            p = np.matmul(m4[:, :4].T, t.T)
            p *= weights[:4]
            row2 -= p.sum(axis=0) / er
    return [row1, row2]


def kernel_sums(scratch, targets, sources, params: PhysicalParams, mask, swapped=None):
    """Weighted row sums of K1..K4 over one block of (target, source) pairs.

    targets is ((3, rows, 1) coordinate rows, (8, rows) target_factors),
    sources ((3, 1, cols) coordinate rows, (cols, k) source_moments).
    Returns the row sums of K1 wdphi + K2 wphi and K3 wdphi + K4 wphi.
    mask, a (rows, cols) index pair, drops pairs that would divide by zero.
    With g = 1/(4 pi r^3), f4 = a g, f1 = em1 r^2 g (_screening) and
    t = b g d.nx / r^2: K1 = -f1, K2 = ((er - 1) g + er f4) d.ny,
    K3 = (f4/er - (1 - 1/er) g) d.nx and K4 = f4 nx.ny - t d.ny. Only d,
    r^2, d.nx and the factors are evaluated pairwise, in sweep_buffers
    blocks of the scratch (kernel_scratch); each sum is a product with
    moments (_moment_products). swapped, given when the targets are
    sources too, is (cut, the rows' source_moments, the target_factors of
    the columns from cut on): the factors depend on r and the row's
    normal alone, so the columns' sums follow from their transposes.
    """
    (tx, weights), (sx, moments) = targets, sources
    shape = np.broadcast(tx[0], sx[0]).shape
    buf = scratch[:, : shape[0] * shape[1]].reshape((-1,) + shape)
    d = np.subtract(tx, sx, out=buf[:3])
    d[(slice(None),) + mask] = ((1.0,), (0.0,), (0.0,))  # a unit placeholder
    screened = params.kappa != 0.0
    if screened:
        dnx = _dot3_into(d, weights[5:8, :, None], buf[3], buf[4])
    r2, b1, b2 = d
    r2 *= r2  # r^2 = d.d in _dot3_into's order
    r2 += np.multiply(b1, b1, out=b1)
    r2 += np.multiply(b2, b2, out=b2)
    g = _green_cube(r2, b1, b2)
    g[mask] = 0.0
    factors = [g]
    if screened:
        em1, f4, t = _screening(b1, params.kappa, buf[4], buf[5], b=True)
        f4 *= g
        f1 = np.multiply(em1, r2, out=em1)
        f1 *= g
        t *= g
        t /= r2
        t *= dnx
        factors += [f4, f1, t]
    er = params.eps2 / params.eps1
    sums = _moment_products(factors, moments, weights, er)
    if swapped is not None:
        cut, moments, weights = swapped
        sums += _moment_products([f[:, cut:].T for f in factors], moments, weights, er, True)
    return sums


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
        em1, a, _ = _screening(b[1], params.kappa, b[1], b[3])
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
    """K1..K4 for the pairs with displacements d = x - y and normals nx, ny,
    arrays of shape (..., 3) that broadcast together; (3,) inputs, one
    pair, give 0-d arrays. Every operation is elementwise, so no value
    depends on how the pairs were blocked; g, a and b are kernel_sums'
    factors. At kappa = 0, where K1 and K4 are exactly zero, they are
    returned as zeros and not evaluated. Callers mask a coincident pair by
    overwriting its displacement before the call.
    """
    d, nx, ny = (np.moveaxis(np.asarray(a, dtype=float), -1, 0) for a in (d, nx, ny))
    shape = np.broadcast_shapes(d.shape, nx.shape, ny.shape)[1:]
    r2, dny, dnx, tmp, r, g = (np.empty(shape) for _ in range(6))
    er = params.eps2 / params.eps1
    _dot3_into(d, d, r2, tmp)
    _dot3_into(d, ny, dny, tmp)
    _dot3_into(d, nx, dnx, tmp)
    _green_cube(r2, r, g)

    if params.kappa == 0.0:
        k1, k4 = np.zeros(shape), np.zeros(shape)
        c2 = er - 1.0
        c3 = -(1.0 - 1.0 / er)
    else:
        em1, a, b = _screening(r, params.kappa, np.empty(shape), np.empty(shape), b=True)
        k1 = np.multiply(em1, r2, out=em1)
        k1 *= g
        np.negative(k1, out=k1)
        b /= r2
        b *= np.multiply(dnx, dny, out=r2)
        k4 = _dot3_into(nx, ny, tmp, r2)
        k4 *= a
        k4 -= b
        k4 *= g
        c2 = np.multiply(a, er, out=r2)
        c2 += er - 1.0
        c3 = np.divide(a, er, out=a)
        c3 -= 1.0 - 1.0 / er
    k2 = np.multiply(dny, g, out=dny)
    k3 = np.multiply(dnx, g, out=dnx)
    k3 *= c3
    k2 *= c2
    return k1, k2, k3, k4


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
