"""Fundamental solutions, regularized boundary kernels, and source terms.

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

# target rows whose (rows x sources) kernel values are materialized at once;
# every sum runs along the full source axis, so no result depends on it
TARGET_BLOCK = 8


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


def g0(x, y) -> float:
    """Free-space Coulomb potential 1/(4 pi |x-y|)."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = float(np.sqrt(np.dot(d, d)))
    if r < 1e-300:
        raise SingularityError("g0 evaluated at coincident points")
    return 1.0 / (FOUR_PI * r)


def g_kappa(x, y, kappa: float) -> float:
    """Screened Coulomb potential exp(-kappa |x-y|)/(4 pi |x-y|)."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = float(np.sqrt(np.dot(d, d)))
    if r < 1e-300:
        raise SingularityError("g_kappa evaluated at coincident points")
    return float(np.exp(-kappa * r)) / (FOUR_PI * r)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def kernel_values_d(d, nx, ny, params: PhysicalParams):
    """K1..K4 from precomputed displacements d = x - y, all (..., 3).

    The separation lets callers mask coincident pairs in d before any
    division happens. Everything is elementwise, so results do not depend on
    how the inputs were blocked or partitioned.
    """
    d = np.asarray(d, dtype=float)
    nx = np.asarray(nx, dtype=float)
    ny = np.asarray(ny, dtype=float)
    er = params.eps2 / params.eps1
    kappa = params.kappa

    r2 = _dot3(d, d)
    r = np.sqrt(r2)
    kr = kappa * r
    ekr = np.exp(-kr)
    em1 = np.expm1(-kr)
    # a = (1 + kr) e^{-kr} - 1 and b = (3 + 3 kr + kr^2) e^{-kr} - 3,
    # both O((kr)^2), written so the constant parts cancel exactly
    a = em1 + kr * ekr
    b = 3.0 * em1 + kr * ekr * (3.0 + kr)
    dny = _dot3(d, ny)
    dnx = _dot3(d, nx)
    nxny = _dot3(nx, ny)
    inv_r3 = 1.0 / (FOUR_PI * r2 * r)

    k1 = -em1 / (FOUR_PI * r)
    k2 = dny * inv_r3 * ((er - 1.0) + er * a)
    k3 = -dnx * inv_r3 * ((1.0 - 1.0 / er) - a / er)
    k4 = (-b * dnx * dny / r2 + a * nxny) * inv_r3
    return k1, k2, k3, k4


def kernel_block(x, nx, y, ny, params: PhysicalParams):
    """Scalar (K1, K2, K3, K4) for one source-target pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    if float(np.dot(d, d)) < 1e-300:
        raise SingularityError("kernel_block evaluated at coincident points")
    k1, k2, k3, k4 = kernel_values_d(d, nx, ny, params)
    return float(k1), float(k2), float(k3), float(k4)


def source_terms(x, nx, charges: ChargeSystem):
    """(S1, S2): single-layer and normal-derivative sums of bare charges.

    S1 = sum_k q_k G0(x, y_k) and S2 = sum_k q_k dG0(x, y_k)/dn_x. These are
    the unscaled interior sources; the solver applies the dielectric scaling
    when it assembles a right-hand side.
    """
    s1, s2 = source_terms_at(
        np.asarray(x, dtype=float).reshape(1, 3),
        np.asarray(nx, dtype=float).reshape(1, 3),
        charges,
    )
    return float(s1[0]), float(s2[0])


def source_terms_at(points: np.ndarray, normals: np.ndarray, charges: ChargeSystem):
    """Vectorized source sums at many surface points: (m, 3) -> pair of (m,)."""
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    m = points.shape[0]
    s1, s2 = np.empty(m), np.empty(m)
    q = charges.charges
    # no more (point, charge) pairs per block than a matvec sweep block holds
    rows = max(TARGET_BLOCK, TARGET_BLOCK * m // max(q.size, 1))
    for s in range(0, m, rows):
        e = min(s + rows, m)
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
