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
only the weighted row sums its caller asks for: the matvec both, the
solvation energy the first (K1 and K2) at every kappa. Where the targets
are sources too (lobi's strip sweep) it also returns the column sums of
the swapped pairs, which share every factor with the pairs evaluated.
At kappa = 0, expm1(-0) = -0 makes K1 and K4 exactly zero, so they are
not evaluated and the matvec computes only K2 and K3. That changes no
bit: each dropped term only ever added a signed zero to a nonzero
product, and every kept operation runs in the formulas' order. In the identity medium
(eps1 = eps2, kappa = 0) the factors er - 1 of K2 and 1 - 1/er of K3 are
+0.0, so every term and row sum is +-0.0 and the operator is exactly the
identity. kernel_values_d evaluates all four kernels for arrays of any
broadcast shape.
"""

from __future__ import annotations

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


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _dot3_into(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = a0 b0 + a1 b1 + a2 b2 over 3-tuples of arrays, added in that order."""
    np.multiply(a[0], b[0], out=out)
    out += np.multiply(a[1], b[1], out=tmp)
    out += np.multiply(a[2], b[2], out=tmp)
    return out


def kernel_scratch(size: int) -> np.ndarray:
    """KERNEL_BUFFERS flat float64 buffers for blocks of up to `size` pairs,
    starting on a page boundary: where the heap put them moved a level-3
    hobi solve by up to ~25% between processes on a 2-CPU Xeon host."""
    raw = np.empty(KERNEL_BUFFERS * size + PAGE_DOUBLES)
    start = -raw.ctypes.data % (8 * PAGE_DOUBLES) // 8
    return raw[start : start + KERNEL_BUFFERS * size].reshape(KERNEL_BUFFERS, size)


def pair_kernels(buf, nx, ny, params: PhysicalParams, second=True, drop_zeros=True,
                 swap=False):
    """K1..K4 for the pairs whose displacements x - y sit in buf[0], buf[1], buf[2].

    buf is a sequence of KERNEL_BUFFERS equal-shape float64 arrays, all
    overwritten; nx and ny are 3-tuples of target and source normal
    components that broadcast to that shape (nx is read only if second).
    second asks for K3 and K4 besides K1 and K2. Returns (k1, k2, k3, k4),
    views into buf, with None for a kernel not asked for and, if
    drop_zeros, for K1 and K4 at kappa = 0, where both are exactly zero.
    Every operation is elementwise and in the order of the formulas above,
    so the values do not depend on the shape, the blocking or the kernels
    asked for. No result is left in buf[-1], which callers may reuse.

    K1 and K4 are exactly symmetric: the swapped pair (y, x), whose
    displacement is -(x - y) and whose normals trade places, rounds to the
    same bits. swap (which needs second) also returns m2 and m3, with
    K2(y, x) = -m2 and K3(y, x) = -m3 exactly: the swapped pair's d.ny is
    -d.nx and its d.nx is -d.ny, so only the signs of the products
    (d.nx / (4 pi r^3)) c2 and (d.ny / (4 pi r^3)) c3 change.
    """
    b0, b1, b2, r2, b4, dny, dnx, b7 = buf
    er = params.eps2 / params.eps1
    screened = params.kappa != 0.0 or not drop_zeros
    d = (b0, b1, b2)
    _dot3_into(d, d, r2, b4)
    _dot3_into(d, ny, dny, b4)
    if second:
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
        if second:
            kr += 3.0
            kr *= kr_ekr  # kr e^{-kr} (3 + kr)
        a = np.add(em1, kr_ekr, out=b7)
        # K1 = -em1 / (4 pi r)
        k1 = np.multiply(r, -FOUR_PI, out=b0)
        np.divide(em1, k1, out=k1)
        if second:
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
        if second:
            c3 = np.divide(a, er, out=a)
            c3 -= 1.0 - 1.0 / er
    else:
        c2 = er - 1.0
        c3 = -(1.0 - 1.0 / er)
    k2 = np.multiply(dny, inv_r3, out=dny)
    k3 = m2 = m3 = None
    if second:
        # K3 = -dnx / (4 pi r^3) ((1 - 1/er) - a/er)
        k3 = np.multiply(dnx, inv_r3, out=dnx)
        if swap:
            m2 = np.multiply(k3, c2, out=inv_r3)
            m3 = np.multiply(k2, c3, out=b4)
        k3 *= c3
    k2 *= c2
    if swap:
        return k1, k2, k3, k4, m2, m3
    return k1, k2, k3, k4


def kernel_sums(scratch, targets, sources, wphi, wdphi, params: PhysicalParams,
                second=True, mask=None, own=None):
    """Weighted row sums of K1..K4 over one block of (target, source) pairs.

    targets and sources are (positions, normals), each a (3, ...) array of
    coordinate rows (structure of arrays) whose rows broadcast to the block
    shape (rows, cols); the target normals are read only if second. wphi
    and wdphi broadcast to the same shape. The block is evaluated in views
    of the flat scratch buffers (kernel_scratch), which must hold
    rows x cols values. mask, a (rows, cols) index pair, drops pairs that
    would divide by zero. Returns the per-row sums of K1 wdphi + K2 wphi
    and of K3 wdphi + K4 wphi, the second None if not asked for; at
    kappa = 0 the exactly-zero K1 and K4 terms are not evaluated.

    own, given when the targets are sources too, is their (wphi, wdphi) as
    (rows, 1) columns: each pair is then also evaluated swapped, and the
    per-column sums of K1(y, x) wdphi(x) + K2(y, x) wphi(x) and of
    K3(y, x) wdphi(x) + K4(y, x) wphi(x) follow the row sums (second only).
    """
    (tx, tn), (sx, sn) = targets, sources
    shape = np.broadcast(tx[0], sx[0]).shape
    flat = scratch[:, : shape[0] * shape[1]]
    d = np.subtract(tx, sx, out=flat[:3].reshape((3,) + shape))
    if mask is not None:
        d[(slice(None),) + mask] = ((1.0,), (0.0,), (0.0,))  # a unit placeholder
    buf = [b.reshape(shape) for b in flat]
    k1, k2, k3, k4, *m = pair_kernels(buf, tn, sn, params, second, swap=own is not None)
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
    rows = [k2]
    if second:
        k3 *= wdphi
        if k4 is not None:
            k3 += np.multiply(k4, wphi, out=k4)
        rows.append(k3)
    if mask is not None:
        for term in rows + cols:
            term[mask] = 0.0
    sums = [term.sum(axis=1) for term in rows] + [term.sum(axis=0) for term in cols]
    return sums if second else (sums[0], None)


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
    bounds[k+1]) against every charge (default: one block); each point
    sums over the full charge axis, so no result depends on the blocks.
    """
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    m = points.shape[0]
    s1, s2 = np.empty(m), np.empty(m)
    q = charges.charges
    bounds = (0, m) if bounds is None else bounds
    for s, e in zip(bounds[:-1], bounds[1:]):
        d = points[s:e, None, :] - charges.positions[None, :, :]  # (rows, nc, 3)
        r2 = _dot3(d, d)
        bad = np.nonzero(r2 < 1e-300)
        if bad[0].size:
            raise SingularityError(
                f"surface point {s + bad[0][0]} coincides with charge {bad[1][0]}"
            )
        r = np.sqrt(r2)
        s1[s:e] = (q / (FOUR_PI * r)).sum(axis=1)
        dnx = _dot3(d, normals[s:e, None, :])
        s2[s:e] = (-q * dnx / (FOUR_PI * r2 * r)).sum(axis=1)
    return s1, s2
