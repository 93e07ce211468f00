"""Analytic reference solutions for charges inside a dielectric sphere.

The classical multipole expansion for a spherical cavity: Laplace harmonics
inside, modified spherical Bessel functions of the second kind outside,
matched through the dielectric jump conditions. These closed forms are the
ground truth for every sphere benchmark; they are validated three
independent ways (centered closed form, self-convergence in the truncation
order, and a finite-difference solve of the exterior radial equation) before
anything else is compared against them.

Conventions: the sphere is centered at the origin; potentials use the
1/(4 pi r) Green-function normalization; energies are in kcal/mol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import FOUR_PI, KCAL_MOL_PER_E2_ANG, PhysicalParams
from .mesh import ChargeSystem


class NotCenteredError(ValueError):
    """kirkwood_centered was asked about an eccentric or multi-charge system."""


@dataclass(frozen=True)
class SphereProblem:
    """A dielectric sphere of given radius at the origin, with interior charges."""

    radius: float
    params: PhysicalParams
    charges: ChargeSystem

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if len(self.charges):
            rho = np.linalg.norm(self.charges.positions, axis=1)
            bad = np.nonzero(rho >= self.radius - 1e-9)[0]
            if bad.size:
                raise ValueError(
                    f"charge {bad[0]} at distance {rho[bad[0]]} is not strictly "
                    f"inside the sphere of radius {self.radius}"
                )


# ---------------------------------------------------------------------------
# special functions


def legendre_all(nmax: int, x: np.ndarray) -> np.ndarray:
    """P_0..P_nmax at the points x, via the three-term recurrence.

    Returns shape (nmax+1,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    p = np.zeros((nmax + 1,) + x.shape)
    p[0] = 1.0
    if nmax >= 1:
        p[1] = x
    for n in range(1, nmax):
        p[n + 1] = ((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1)
    return p


def bessel_log_derivative(nmax: int, x: float) -> np.ndarray:
    """L_n = x k_n'(x)/k_n(x) for n = 0..nmax; x = 0 gives the Laplace limit.

    Uses the ratio recurrence tau_{n+1} = 1/tau_n + (2n+1)/x with
    tau_n = k_n/k_{n-1}, which never overflows where k_n itself would; then
    L_n = -x/tau_n - (n+1) from k_n' = -k_{n-1} - ((n+1)/x) k_n. At x = 0 the
    exterior harmonics degenerate to r^{-(n+1)}, so L_n = -(n+1).
    """
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return -np.arange(1, nmax + 2, dtype=float)
    ell = np.empty(nmax + 1)
    ell[0] = -(1.0 + x)
    tau = 1.0 + 1.0 / x
    for n in range(1, nmax + 1):
        ell[n] = -x / tau - (n + 1)
        tau = 1.0 / tau + (2 * n + 1) / x
    return ell


# ---------------------------------------------------------------------------
# expansion coefficients

def _reaction_coefficients(problem: SphereProblem, nmax: int):
    """Per-charge reaction coefficients A_kn and source amplitudes alpha_kn.

    The interior potential of charge k is
        phi_k(r, gamma) = sum_n [alpha_kn r^{-(n+1)} (for r > rho_k)
                                 + A_kn r^n] P_n(cos gamma),
    with alpha_kn = q_k rho_k^n/(4 pi eps1) and A_kn fixed by continuity of
    phi and of eps dphi/dr at r = a against the exterior k_n(kappa r) modes.
    """
    a = problem.radius
    p = problem.params
    ns = np.arange(nmax + 1, dtype=float)
    ell = bessel_log_derivative(nmax, p.kappa * a)
    rho = np.linalg.norm(problem.charges.positions, axis=1)  # (nc,)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_pow = np.where(
            rho[:, None] > 0.0, rho[:, None] ** ns[None, :], 0.0
        )
    rho_pow[:, 0] = 1.0  # rho^0 = 1 including the centered charge
    alpha = problem.charges.charges[:, None] * rho_pow / (FOUR_PI * p.eps1)
    denom = ns * p.eps1 - p.eps2 * ell
    coeff = a ** -(2 * ns + 1.0) * (p.eps2 * ell + (ns + 1) * p.eps1) / denom
    return alpha * coeff[None, :], alpha  # A (nc, n+1), alpha (nc, n+1)


@dataclass(frozen=True)
class KirkwoodSolution:
    """Truncated multipole solution: energy, surface traces, tail diagnostics.

    phi and dphi_dn evaluate the interior trace of the potential and its
    outward normal derivative at points on the sphere surface. tail_ratio is
    the last-term ratio test on the surface-coefficient magnitudes (worst
    charge); converged is False when that ratio exceeds 0.99.
    """

    energy: float
    phi: Callable[[np.ndarray], np.ndarray]
    dphi_dn: Callable[[np.ndarray], np.ndarray]
    tail_ratio: float
    converged: bool
    n_terms: int


def kirkwood_series(problem: SphereProblem, n_terms: int = 40) -> KirkwoodSolution:
    """Multipole solution for arbitrarily placed interior charges.

    n_terms is the number of retained modes (n = 0..n_terms-1). The default
    handles eccentricities up to about 0.9 of the radius; beyond that the
    convergence flag trips.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    nmax = n_terms - 1
    a = problem.radius
    big_a, alpha = _reaction_coefficients(problem, nmax)
    ns = np.arange(nmax + 1, dtype=float)
    pos = problem.charges.positions
    q = problem.charges.charges
    rho = np.linalg.norm(pos, axis=1)
    with np.errstate(invalid="ignore"):
        units = np.where(rho[:, None] > 0.0, pos / rho[:, None], 0.0)

    # energy: E = (1/2) sum_j q_j phi_reac(y_j), phi_reac from all charges
    energy = 0.0
    for j in range(len(q)):
        cosg = units @ units[j]  # (nc,)
        pn = legendre_all(nmax, cosg)  # (nmax+1, nc)
        with np.errstate(divide="ignore", invalid="ignore"):
            rj_pow = np.where(rho[j] > 0.0, rho[j] ** ns, 0.0)
        rj_pow[0] = 1.0
        energy += 0.5 * q[j] * float((big_a * rj_pow[None, :] * pn.T).sum())
    energy *= FOUR_PI * KCAL_MOL_PER_E2_ANG

    # surface traces: interior potential and radial derivative at r = a
    coef_phi = alpha * a ** -(ns + 1.0) + big_a * a**ns
    coef_dphi = -(ns + 1.0) * alpha * a ** -(ns + 2.0) + ns * big_a * a ** (ns - 1.0)

    def _evaluate(coef: np.ndarray, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = pts.reshape(-1, 3)
        radial = pts / np.linalg.norm(pts, axis=1)[:, None]
        out = np.zeros(pts.shape[0])
        for k in range(len(q)):
            cosg = radial @ units[k] if rho[k] > 0.0 else np.ones(pts.shape[0])
            pn = legendre_all(nmax, cosg)  # (nmax+1, m)
            out += coef[k] @ pn
        return out[0] if single else out

    if nmax >= 1:
        last = np.abs(coef_phi[:, nmax])
        prev = np.abs(coef_phi[:, nmax - 1])
        ratios = np.where(last > 0.0, last / np.maximum(prev, 1e-300), 0.0)
        tail = float(ratios.max()) if ratios.size else 0.0
    else:
        tail = 1.0 if np.abs(coef_phi).max(initial=0.0) > 0.0 else 0.0

    return KirkwoodSolution(
        energy=energy,
        phi=lambda points: _evaluate(coef_phi, points),
        dphi_dn=lambda points: _evaluate(coef_dphi, points),
        tail_ratio=tail,
        converged=tail <= 0.99,
        n_terms=n_terms,
    )


def kirkwood_centered(problem: SphereProblem):
    """Closed form for a single charge at the center.

    Returns (E_sol, phi, dphi_dn) where the two callables give the constant
    interior surface traces. Only the monopole mode survives:

        phi(a)     = q / (4 pi eps2 a (1 + kappa a))
        dphi/dn(a) = -q / (4 pi eps1 a^2)
        E_sol      = C q^2/(2a) [1/(eps2 (1 + kappa a)) - 1/eps1]

    with C the kcal/mol conversion constant.
    """
    if len(problem.charges) != 1:
        raise NotCenteredError(
            f"closed form needs exactly one centered charge, got "
            f"{len(problem.charges)}; use kirkwood_series"
        )
    if float(np.linalg.norm(problem.charges.positions[0])) > 1e-12:
        raise NotCenteredError(
            "closed form needs the charge at the center; use kirkwood_series"
        )
    a = problem.radius
    p = problem.params
    q = float(problem.charges.charges[0])
    screen = 1.0 + p.kappa * a
    energy = (
        KCAL_MOL_PER_E2_ANG * q * q / (2.0 * a) * (1.0 / (p.eps2 * screen) - 1.0 / p.eps1)
    )
    phi_val = q / (FOUR_PI * p.eps2 * a * screen)
    dphi_val = -q / (FOUR_PI * p.eps1 * a * a)

    def _const(value: float):
        def fn(points):
            pts = np.asarray(points, dtype=float)
            if pts.ndim == 1:
                return value
            return np.full(pts.shape[0], value)

        return fn

    return energy, _const(phi_val), _const(dphi_val)
