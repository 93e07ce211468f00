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
(kernel_sums), so kernel_sums forms no d: it takes r^2 and d.nx as small
products of per-target rows with per-source columns (square_factors,
target_factors), evaluates a few functions of r over one tile of at most
TILE x TILE pairs (solver.TILE) in scratch allocated once per sweep
plan (kernel_scratch), and takes every row sum as a product of such a
factor with source_moments, contracted with the target weights; where the
targets are sources too (lobi), the factors' transposes give the swapped
pairs' sums, so a tile's products are square in both orientations.
The interior source terms (source_terms_at) take r^2 and d.nx from the
same factors, with the charges as columns, and their sums as products
with the charges. Products round by their sizes, so every regular sum's
bits follow its tiles. Every kernel carries the constant 1/(4 pi); the
regular sums take it on the per-source side, once a call (the moments,
the energy's moments, the charges), so their pairwise factors have
g = 1/r^3 (_green_cube) and skip a pass a pair. Positions are taken
about an origin: the product r^2 = |x|^2 - 2 x.y + |y|^2 and the moment
sums both lose digits as |x|/r grows. Every e^(-kappa r) is 1 + em1
(_screening). At kappa = 0,
expm1(-0) = -0 makes K1, K4 and every factor but g
exactly zero, so they are not evaluated. In the identity medium
(eps1 = eps2, kappa = 0) the factors er - 1 of K2 and 1 - 1/er of K3 are
+-0.0, so every moment and row sum is +-0.0 and the operator is exactly
the identity. The solvation energy reads only K1 and K2: its per-charge
row sums (reaction_terms_at) take r^2 from the same factors, with the
charges as rows, and are products over tiles like the source terms.
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

# float64 buffers, each one block of pair values, that reaction_terms_at
# uses: r^2, r and g, and em1 and a where kappa > 0
REACTION_BUFFERS = 5
# and that source_terms_at uses: r^2 (then d.nx), r and g
SOURCE_BUFFERS = 3

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
        for name in ("eps1", "eps2"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be nonnegative and finite, got {self.kappa}")

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


def kernel_scratch(size: int, count: int) -> np.ndarray:
    """count flat float64 buffers for blocks of up to `size` pairs,
    starting on a page boundary: where the heap put them moved a level-3
    hobi solve by up to ~25% between processes on a 2-CPU Xeon host."""
    raw = np.empty(count * size + PAGE_DOUBLES)
    start = -raw.ctypes.data % (8 * PAGE_DOUBLES) // 8
    return raw[start : start + count * size].reshape(count, size)


def _screening(r, kappa, em1, a, b=False):
    """em1 = expm1(-kr) and a = (1 + kr) e^{-kr} - 1, kr = kappa r, into
    the buffers em1 and a, neither r's; if b, also
    b = (3 + 3 kr + kr^2) e^{-kr} - 3 = 3 a + kr^2 e^{-kr} into r's buffer.
    a and b are O((kr)^2), written so the constant parts cancel exactly.
    e^{-kr} is taken as 1 + em1, equal to an exp pass within a rounding
    and cheaper: on a 192 x 192 tile np.exp took 1.09 ns an element and
    the add 0.33 ns (2-CPU Xeon)."""
    mkr = np.multiply(r, -kappa, out=r)
    np.expm1(mkr, out=em1)
    e = np.add(em1, 1.0, out=a)
    e *= mkr  # -kr e^{-kr}
    if b:
        mkr *= e
    np.subtract(em1, e, out=a)
    if not b:
        return em1, a, None
    for _ in range(3):  # no buffer is left for 3 a
        mkr += a
    return em1, a, mkr


def _green_cube(r2, r, g):
    """g = 1/r^3 from r2 = r^2, the factor of K2 and K3 but for their
    1/(4 pi), which the regular sums' moments carry; r = sqrt(r2) is left
    in r."""
    np.sqrt(r2, out=r)
    np.multiply(r2, r, out=g)
    return np.divide(1.0, g, out=g)


def sweep_buffers(params: PhysicalParams) -> int:
    """Scratch blocks kernel_sums fills: r^2, r and g, and at kappa > 0
    three more for d.nx and the screening factors."""
    return 3 if params.kappa == 0.0 else 6


def source_moments(cols, nrm, wphi, wdphi, params: PhysicalParams) -> list:
    """kernel_sums' (N, k) source moments, one per kernel factor, from
    square_factors' (5, N) columns, whose y is taken about the sweep's
    origin, and the (3, N) normal rows nrm: [mg] at kappa = 0, else
    [mg, m4, wdphi, m5]. wphi and wdphi are first divided
    by 4 pi, the kernels' constant, so every moment carries it and
    kernel_sums' factors leave it out. With c2 = er - 1, c3 = 1/er - 1:
      mg (g):  c2 wphi ny (3), -c2 wphi y.ny, c3 wdphi, -c3 wdphi y (3);
      m4 (f4): er wphi ny (3), -er wphi y.ny, wdphi/er, wphi ny - wdphi y/er (3);
      m5 (t, swapped pairs): wphi, -wphi y (3), weighted from x.nx on.
    mg and m4 share the target weights [x, 1, x.nx, nx] (mg carries the
    signs), f1 reads wdphi, and t the rows' m4[:, :4] times -1/er."""
    er = params.eps2 / params.eps1
    y = cols[1:4] * -0.5
    wphi, wdphi = wphi / FOUR_PI, wdphi / FOUR_PI
    a, b = (er - 1.0) * wphi, -(1.0 - 1.0 / er) * wdphi
    ydn = y[0] * nrm[0] + y[1] * nrm[1] + y[2] * nrm[2]
    moments = [np.column_stack([*(a * nrm), -a * ydn, b, *(-b * y)])]
    if params.kappa == 0.0:
        return moments
    wn = wphi * nrm
    m4 = np.column_stack([*(er * wn), -er * wphi * ydn, wdphi / er, *(wn - wdphi * y / er)])
    return moments + [m4, wdphi, np.column_stack([wphi, *(-wphi * y)])]


def square_factors(x, y, origin):
    """(rows, cols): the (n, 5) rows [|x|^2, x, 1] of the (3, n) coordinate
    rows x and the (5, N) columns [1, -2 y, |y|^2] of the (3, N) rows y
    (views do), both taken about origin, whose product is r^2 = |x - y|^2.
    The scaling by -2 is exact, so cols[1:4] * -0.5 is y - origin bit for
    bit, and cols[:4] times target_factors' rows is d.nx."""
    o = origin[:, None]
    x = x - o
    xx = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    cols = np.empty((5, y.shape[1]))
    y = np.subtract(y, o, out=cols[1:4])
    _dot3_into(y, y, cols[4], cols[0])
    cols[0] = 1.0
    y *= -2.0
    return np.column_stack([xx, *x, np.ones_like(xx)]), cols


def target_factors(rows, nx):
    """(nrows, weights) from square_factors' (T, 5) rows, whose x is taken
    about the sweep's origin, and the (3, T) normal rows nx: the (T, 4)
    rows [x.nx, nx/2], whose product with square_factors' columns [1, -2 y]
    is d.nx (halving is exact), and kernel_sums' (8, T) target weights
    [x, 1, x.nx, nx]."""
    x = rows[:, 1:4].T
    xnx = x[0] * nx[0] + x[1] * nx[1] + x[2] * nx[2]
    weights = np.array([*x, np.ones(len(rows)), xnx, *nx])
    return np.column_stack([xnx, *(0.5 * nx)]), weights


def _moment_products(factors, moments, weights, er, swapped=False):
    """The (2, rows) sums [row1, row2]: the (rows, n) kernel factors times
    their (n, k) source moments, each taken as moments.T @ factor.T,
    contracted with the (8, rows) target weights [x, 1, x.nx, nx]: g's and
    f4's products are added first, so the two sums are the weighted halves
    of one (8, rows) array, each added in order."""
    p = np.matmul(moments[0].T, factors[0].T)
    if len(factors) > 1:
        (f4, f1, t), (m4, wdphi, m5) = factors[1:], moments[1:]
        p += np.matmul(m4.T, f4.T)
    p *= weights
    sums = p.reshape(2, 4, -1).sum(axis=1)
    if len(factors) > 1:
        sums[0] -= np.matmul(wdphi, f1.T)
        del p  # else the next product is allocated before p is released
        if swapped:
            p = np.matmul(m5.T, t.T)
            p *= weights[4:]
            sums[1] += p.sum(axis=0)
        else:
            p = np.matmul(m4[:, :4].T, t.T)
            p *= weights[:4]
            sums[1] -= p.sum(axis=0) / er
    return sums


def kernel_sums(scratch, targets, sources, params: PhysicalParams, mask, swapped=None):
    """Weighted row sums of K1..K4 over one tile of (target, source) pairs.

    targets is ((rows, 5) square_factors rows, (rows, 4) target_factors
    rows, the (8, rows) target weights [x, 1, x.nx, nx]), sources
    ((5, cols) square_factors columns, (cols, k) source_moments). Returns
    (rows, cols): rows the (2, rows) row sums of K1 wdphi + K2 wphi and
    K3 wdphi + K4 wphi, cols the swapped pairs' (2, cols) sums, or None
    unless swapped is given. mask, a (rows, cols) index pair, drops pairs
    that would divide by zero; an empty one costs no pass. With g = 1/r^3, f4 = a g,
    f1 = em1 r^2 g (_screening) and t = b g d.nx / r^2, 4 pi times the
    kernels are K1 = -f1, K2 = ((er - 1) g + er f4) d.ny,
    K3 = (f4/er - (1 - 1/er) g) d.nx and K4 = f4 nx.ny - t d.ny; the 1/(4 pi)
    rides on the moments. r^2 and d.nx are each one product of the rows
    with the columns, the factors are evaluated pairwise in sweep_buffers
    blocks of the scratch (kernel_scratch), and each sum is a product with
    moments (_moment_products). swapped, given when the targets are
    sources too, is (the rows' source_moments, the columns' target
    weights): the factors depend on r and the row's normal alone, so the
    columns' sums follow from their transposes.
    """
    (xr, nr, weights), (yc, moments) = targets, sources
    shape = (len(xr), yc.shape[1])
    buf = scratch[:, : shape[0] * shape[1]].reshape((-1,) + shape)
    r2 = np.matmul(xr, yc, out=buf[0])
    masked = len(mask[0]) > 0
    if masked:
        r2[mask] = 1.0  # a placeholder: g is zeroed there
    g = _green_cube(r2, buf[1], buf[2])
    if masked:
        g[mask] = 0.0
    factors = [g]
    if params.kappa != 0.0:
        dnx = np.matmul(nr, yc[:4], out=buf[3])
        em1, f4, t = _screening(buf[1], params.kappa, buf[4], buf[5], True)
        f4 *= g
        f1 = np.multiply(em1, r2, out=em1)
        f1 *= g
        t *= g
        t /= r2
        t *= dnx
        factors += [f4, f1, t]
    er = params.eps2 / params.eps1
    rows = _moment_products(factors, moments, weights, er)
    if swapped is None:
        return rows, None
    return rows, _moment_products([f.T for f in factors], *swapped, er, True)


def reaction_terms_at(positions, pos, nrm, wphi, wdphi, origin, params: PhysicalParams,
                      tiles: np.ndarray) -> np.ndarray:
    """Per-charge row sums of K1 wdphi + K2 wphi: (n, 3) charge positions
    against the (3, N) source coordinate rows pos and nrm (views do) and
    the (N,) source weights, positions taken about origin. tiles[k] =
    (s, e, c, d) is charges [s, e) against sources [c, d), and each charge
    adds its tiles in order, as in source_terms_at. r^2 is a product of
    square_factors' rows and columns; the (N, 4) moments are c wphi ny
    (3 columns) and c wphi y.ny, with c = (er - 1)/(4 pi) at kappa = 0 and
    er/(4 pi) otherwise, and wdphi is divided by 4 pi: the sources carry
    the kernels' 1/(4 pi), so g = 1/r^3. With 4 pi K1 = -em1 r^2 g and
    4 pi K2 = h d.ny, h = g ((er - 1) + er a), a tile's row sums are
    x.H[:3] - H[3] - (em1 r^2 g) @ wdphi with H = h @ moments (h = g and
    no K1 at kappa = 0, where em1 = -0 makes K1 exactly zero), in
    REACTION_BUFFERS blocks of one kernel_scratch. The products round by
    their sizes, so the bits follow the tiles. Charges are strictly
    interior, so no pair is singular; K1 and K2 read no target normal."""
    er = params.eps2 / params.eps1
    screened = params.kappa != 0.0
    rows, cols = square_factors(np.transpose(positions), pos, origin)
    y2 = cols[1:4]  # -2 y, whose products with nrm are exact doubles of y's
    ydn = -0.5 * (y2[0] * nrm[0] + y2[1] * nrm[1] + y2[2] * nrm[2])
    cw = wphi * ((er if screened else er - 1.0) / FOUR_PI)
    moments = np.empty((pos.shape[1], 4))
    for k in range(3):  # one column at a time: a strided (3, N) output is ~3x slower
        np.multiply(cw, nrm[k], out=moments[:, k])
    np.multiply(cw, ydn, out=moments[:, 3])
    if screened:
        wdphi = wdphi / FOUR_PI
    sums = np.zeros(len(rows))
    pairs = (tiles[:, 1] - tiles[:, 0]) * (tiles[:, 3] - tiles[:, 2])
    scratch = kernel_scratch(int(pairs.max(initial=0)), REACTION_BUFFERS)
    for s, e, c, d in tiles.tolist():
        b = scratch[:, : (e - s) * (d - c)].reshape(-1, e - s, d - c)
        r2 = np.matmul(rows[s:e], cols[:, c:d], out=b[0])
        h = _green_cube(r2, b[1], b[2])
        if screened:
            em1, a, _ = _screening(b[1], params.kappa, b[4], b[3])
            k1 = np.multiply(r2, em1, out=b[0])
            k1 *= h  # em1 r^2 g = -4 pi K1
            a += 1.0 - 1.0 / er
            h = np.multiply(a, h, out=a)  # h / er: the moments carry er
        H = np.matmul(h, moments[c:d]).T
        x = rows[s:e, 1:4].T
        row = x[0] * H[0] + x[1] * H[1] + x[2] * H[2] - H[3]
        if screened:
            row -= np.matmul(k1, wdphi[c:d])
        sums[s:e] += row
    return sums


def kernel_values_d(d, nx, ny, params: PhysicalParams):
    """K1..K4 for the pairs with displacements d = x - y and normals nx, ny,
    arrays of shape (..., 3) that broadcast together; (3,) inputs, one
    pair, give 0-d arrays. Every operation is elementwise, so no value
    depends on how the pairs were blocked; g, a and b are kernel_sums'
    factors, g divided by 4 pi here, so the values are the kernels' own.
    At kappa = 0, where K1 and K4 are exactly zero, they are
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
    g /= FOUR_PI

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
                    origin: np.ndarray, tiles: np.ndarray):
    """(S1, S2) at many surface points: (m, 3) -> pair of (m,).

    S1 = sum_k q_k G0(x, y_k) and S2 = sum_k q_k dG0(x, y_k)/dn_x, the
    unscaled interior sources; the solver applies the dielectric scaling
    when it assembles a right-hand side. tiles[k] = (s, e, c, d) is points
    [s, e) against charges [c, d), and each point adds its tiles in order.
    A tile is products, like kernel_sums: r^2 and d.nx from square_factors
    and target_factors, positions about origin, then with g = 1/r^3 and
    the charges divided by 4 pi once, S1 = (r^2 g) @ q and S2 = -(g d.nx) @ q, in
    SOURCE_BUFFERS blocks of one kernel_scratch. The products round by
    their sizes, so the bits follow the tiles. A pair with
    r^2 <= 4 eps (|x|^2 + |y|^2), where a product r^2 cannot be told apart
    from zero, raises SingularityError naming the point and the charge.
    """
    x, nx = (np.transpose(np.asarray(a, dtype=float)) for a in (points, normals))
    rows, cols = square_factors(x, np.transpose(charges.positions), origin)
    (nrows, _), q = target_factors(rows, nx), charges.charges / FOUR_PI
    sums = np.zeros((2, len(rows)))
    pairs = (tiles[:, 1] - tiles[:, 0]) * (tiles[:, 3] - tiles[:, 2])
    scratch = kernel_scratch(int(pairs.max(initial=0)), SOURCE_BUFFERS)
    band = 4.0 * np.finfo(float).eps
    for s, e, c, d in tiles.tolist():
        xr, yc = rows[s:e], cols[:, c:d]
        buf = scratch[:, : (e - s) * (d - c)].reshape(-1, e - s, d - c)
        r2 = np.matmul(xr, yc, out=buf[0])
        if r2.min() <= band * (xr[:, 0].max() + yc[4].max()):
            near = np.argwhere(r2 <= band * (xr[:, :1] + yc[4]))
            if len(near):
                i, j = near[0]
                raise SingularityError(f"surface point {s + i} coincides with charge {c + j}")
        g = _green_cube(r2, buf[1], buf[2])
        sums[0, s:e] += np.matmul(np.multiply(r2, g, out=buf[1]), q[c:d])
        dnx = np.matmul(nrows[s:e], yc[:4], out=buf[0])
        sums[1, s:e] -= np.matmul(np.multiply(dnx, g, out=dnx), q[c:d])
    return sums[0], sums[1]
