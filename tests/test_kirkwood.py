import numpy as np
import pytest
from scipy.linalg import solve_banded

from pbbem.kernels import FOUR_PI, KCAL_MOL_PER_E2_ANG, PhysicalParams
from pbbem.kirkwood import (
    NotCenteredError,
    SphereProblem,
    bessel_log_derivative,
    kirkwood_centered,
    kirkwood_series,
    legendre_all,
)
from pbbem.mesh import ChargeSystem
from reference import modified_spherical_kn

WATER = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
SALTY = PhysicalParams(eps1=1.0, eps2=80.0, kappa=1.0)


def centered_problem(radius=2.0, params=WATER, q=1.0):
    charges = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[q])
    return SphereProblem(radius=radius, params=params, charges=charges)


def eccentric_problem(rho, params=SALTY, radius=1.0, q=1.0):
    charges = ChargeSystem(positions=[[rho, 0.0, 0.0]], charges=[q])
    return SphereProblem(radius=radius, params=params, charges=charges)


# ---------------------------------------------------------------------------
# special functions


def test_legendre_all_closed_forms():
    x = np.array([-0.9, -0.3, 0.0, 0.4, 1.0])
    p = legendre_all(3, x)
    assert np.abs(p[0] - 1.0).max() == 0.0
    assert np.abs(p[1] - x).max() == 0.0
    assert np.abs(p[2] - 0.5 * (3 * x**2 - 1)).max() <= 1e-15
    assert np.abs(p[3] - 0.5 * (5 * x**3 - 3 * x)).max() <= 1e-15


def test_legendre_endpoint_values():
    p = legendre_all(12, np.array([1.0, -1.0]))
    assert np.abs(p[:, 0] - 1.0).max() == 0.0
    signs = (-1.0) ** np.arange(13)
    assert np.abs(p[:, 1] - signs).max() == 0.0


def test_modified_spherical_kn_closed_forms():
    x = 1.7
    k = modified_spherical_kn(2, x)
    e = np.exp(-x)
    assert k[0] == pytest.approx(e / x, rel=1e-15)
    assert k[1] == pytest.approx(e * (1 / x + 1 / x**2), rel=1e-14)
    assert k[2] == pytest.approx(e * (1 / x + 3 / x**2 + 3 / x**3), rel=1e-13)


def test_modified_spherical_kn_rejects_nonpositive():
    with pytest.raises(ValueError):
        modified_spherical_kn(3, 0.0)
    with pytest.raises(ValueError):
        modified_spherical_kn(3, -1.0)


def test_bessel_log_derivative_laplace_limit():
    ell = bessel_log_derivative(5, 0.0)
    assert np.array_equal(ell, -np.arange(1.0, 7.0))


def test_bessel_log_derivative_closed_forms():
    ell = bessel_log_derivative(1, 1.0)
    assert ell[0] == -2.0  # L_0(x) = -(1 + x)
    assert ell[1] == -2.5  # L_1(1) = -1/2 - 2
    with pytest.raises(ValueError):
        bessel_log_derivative(2, -0.5)


def test_bessel_log_derivative_consistent_with_kn():
    # L_n = x k_n'/k_n with k_n' = -k_{n-1} - ((n+1)/x) k_n
    x = 2.3
    k = modified_spherical_kn(6, x)
    ell = bessel_log_derivative(5, x)
    for n in range(1, 6):
        expected = x * (-k[n - 1] - ((n + 1) / x) * k[n]) / k[n]
        assert ell[n] == pytest.approx(expected, rel=1e-12)


def ode_log_derivative(n: int, x: float, r_max=40.0, m=200000) -> float:
    """Independent L_n(x) via a finite-difference solve of the radial ODE.

    w(r) = r k_n(kappa r) satisfies w'' = (kappa^2 + n(n+1)/r^2) w with
    w -> 0 at infinity. Solve the two-point problem on [a, r_max] with
    kappa = x/a = x (a = 1), take a one-sided 4th-order boundary derivative,
    and Richardson-extrapolate the O(h^2) scheme over two grids.
    """
    a = 1.0
    kappa = x / a

    def solve(m):
        r = np.linspace(a, r_max, m + 1)
        h = (r_max - a) / m
        c = kappa**2 + n * (n + 1) / r[1:-1] ** 2
        ab = np.zeros((3, m - 1))
        ab[0, 1:] = 1.0
        ab[1, :] = -2.0 - h * h * c
        ab[2, :-1] = 1.0
        rhs = np.zeros(m - 1)
        rhs[0] = -a  # w(a) = a moved to the right-hand side
        w_in = solve_banded((1, 1), ab, rhs)
        w = np.concatenate([[a], w_in, [0.0]])
        wp = (-25 * w[0] + 48 * w[1] - 36 * w[2] + 16 * w[3] - 3 * w[4]) / (12 * h)
        return a * wp / w[0] - 1.0

    coarse = solve(m // 2)
    fine = solve(m)
    return fine + (fine - coarse) / 3.0


@pytest.mark.parametrize("n", [0, 1])
def test_bessel_log_derivative_against_ode_oracle(n):
    oracle = ode_log_derivative(n, 1.0)
    value = bessel_log_derivative(n, 1.0)[n]
    assert abs(value - oracle) <= 1e-6 * abs(oracle)


# ---------------------------------------------------------------------------
# sphere problem validation


def test_sphere_problem_rejects_bad_radius():
    charges = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
    with pytest.raises(ValueError):
        SphereProblem(radius=0.0, params=WATER, charges=charges)


def test_sphere_problem_rejects_exterior_charge():
    charges = ChargeSystem(positions=[[1.5, 0.0, 0.0]], charges=[1.0])
    with pytest.raises(ValueError, match="charge 0"):
        SphereProblem(radius=1.0, params=WATER, charges=charges)
    on_surface = ChargeSystem(positions=[[1.0, 0.0, 0.0]], charges=[1.0])
    with pytest.raises(ValueError):
        SphereProblem(radius=1.0, params=WATER, charges=on_surface)


# ---------------------------------------------------------------------------
# centered closed form


def test_centered_born_energy():
    energy, phi, dphi = kirkwood_centered(centered_problem())
    expected = KCAL_MOL_PER_E2_ANG / 4.0 * (1.0 / 80.0 - 1.0)
    assert energy == pytest.approx(expected, rel=1e-15)
    assert energy == pytest.approx(-81.98017625, abs=5e-7)
    assert phi([2.0, 0.0, 0.0]) == pytest.approx(1.0 / (FOUR_PI * 160.0), rel=1e-14)
    assert dphi([0.0, 2.0, 0.0]) == pytest.approx(-1.0 / (FOUR_PI * 4.0), rel=1e-14)


def test_centered_identity_medium_has_zero_energy():
    params = PhysicalParams(eps1=80.0, eps2=80.0, kappa=0.0)
    energy, _, _ = kirkwood_centered(centered_problem(params=params))
    assert energy == 0.0


def test_centered_energy_scales_inversely_with_radius():
    e1, _, _ = kirkwood_centered(centered_problem(radius=1.0))
    e2, _, _ = kirkwood_centered(centered_problem(radius=2.0))
    assert e1 / e2 == 2.0


def test_centered_screening_lowers_energy():
    plain, _, _ = kirkwood_centered(centered_problem(radius=1.0))
    screened, _, _ = kirkwood_centered(
        centered_problem(radius=1.0, params=SALTY)
    )
    assert screened < plain < 0.0


def test_centered_rejects_eccentric_or_multiple_charges():
    two = ChargeSystem(positions=[[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], charges=[1.0, 1.0])
    with pytest.raises(NotCenteredError):
        kirkwood_centered(SphereProblem(radius=1.0, params=WATER, charges=two))
    with pytest.raises(NotCenteredError):
        kirkwood_centered(eccentric_problem(0.5))


def test_centered_vectorized_trace_evaluation():
    _, phi, dphi = kirkwood_centered(centered_problem())
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    assert phi(pts).shape == (2,)
    assert np.all(phi(pts) == phi(pts[0]))
    assert np.all(dphi(pts) == dphi(pts[1]))


# ---------------------------------------------------------------------------
# general series


def test_series_matches_centered_closed_form():
    for params in (WATER, SALTY, PhysicalParams(eps1=4.0, eps2=78.5, kappa=0.3)):
        problem = centered_problem(radius=1.7, params=params, q=-0.8)
        exact_e, exact_phi, exact_dphi = kirkwood_centered(problem)
        series = kirkwood_series(problem, n_terms=5)
        assert series.energy == pytest.approx(exact_e, rel=1e-12)
        pts = 1.7 * np.array([[1.0, 0, 0], [0, 1, 0], [0.6, 0, 0.8]])
        assert series.phi(pts) == pytest.approx(exact_phi(pts), rel=1e-12)
        assert series.dphi_dn(pts) == pytest.approx(exact_dphi(pts), rel=1e-12)


def test_series_centered_tail_is_clean():
    series = kirkwood_series(centered_problem(), n_terms=40)
    assert series.tail_ratio == 0.0
    assert series.converged


def test_series_single_term_cannot_certify_convergence():
    series = kirkwood_series(centered_problem(), n_terms=1)
    assert series.tail_ratio == 1.0
    assert not series.converged


def test_series_rejects_zero_terms():
    with pytest.raises(ValueError):
        kirkwood_series(centered_problem(), n_terms=0)


def test_eccentric_energy_frozen_value():
    """Half-radius eccentric charge in salt water, the standard hard case."""
    series = kirkwood_series(eccentric_problem(0.5), n_terms=40)
    assert series.converged
    assert series.tail_ratio == pytest.approx(0.5, abs=0.01)
    assert series.energy == pytest.approx(-219.45529289369173, rel=1e-12)


def test_eccentric_energy_self_convergence():
    e30 = kirkwood_series(eccentric_problem(0.5), n_terms=30).energy
    e60 = kirkwood_series(eccentric_problem(0.5), n_terms=60).energy
    assert abs(e30 - e60) <= 1e-8 * abs(e60)


def test_tail_ratio_tracks_eccentricity():
    near = kirkwood_series(eccentric_problem(0.9, params=WATER), n_terms=40)
    assert near.tail_ratio == pytest.approx(0.9, abs=0.01)
    assert near.converged
    harder = kirkwood_series(eccentric_problem(0.95), n_terms=10)
    assert 0.93 <= harder.tail_ratio <= 0.99
    assert harder.converged
    hopeless = kirkwood_series(eccentric_problem(0.97), n_terms=6)
    assert hopeless.tail_ratio > 0.99
    assert not hopeless.converged


def test_series_potential_superposition():
    qa = ChargeSystem(positions=[[0.3, 0.0, 0.0]], charges=[1.0])
    qb = ChargeSystem(positions=[[0.0, -0.4, 0.1]], charges=[-0.6])
    both = ChargeSystem(
        positions=np.vstack([qa.positions, qb.positions]),
        charges=np.concatenate([qa.charges, qb.charges]),
    )
    pts = np.array([[1, 0, 0], [0, 1, 0], [0, 0, -1], [0.6, 0.8, 0]], dtype=float)
    sols = [
        kirkwood_series(SphereProblem(radius=1.0, params=SALTY, charges=c), 40)
        for c in (qa, qb, both)
    ]
    assert sols[2].phi(pts) == pytest.approx(
        sols[0].phi(pts) + sols[1].phi(pts), rel=1e-10
    )
    assert sols[2].dphi_dn(pts) == pytest.approx(
        sols[0].dphi_dn(pts) + sols[1].dphi_dn(pts), rel=1e-10
    )


def test_series_rotation_invariance():
    angle = 0.7
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    base = eccentric_problem(0.5)
    turned = SphereProblem(
        radius=1.0,
        params=SALTY,
        charges=ChargeSystem(
            positions=base.charges.positions @ rot.T, charges=base.charges.charges
        ),
    )
    sol_base = kirkwood_series(base, 40)
    sol_turned = kirkwood_series(turned, 40)
    assert sol_turned.energy == pytest.approx(sol_base.energy, rel=1e-12)
    pts = np.array([[1, 0, 0], [0.6, 0.8, 0], [0, 0, 1]], dtype=float)
    assert sol_turned.phi(pts @ rot.T) == pytest.approx(sol_base.phi(pts), rel=1e-10)


def test_series_continuous_at_zero_screening():
    barely = PhysicalParams(eps1=1.0, eps2=80.0, kappa=1e-6)
    e0 = kirkwood_series(eccentric_problem(0.5, params=WATER), 40).energy
    e1 = kirkwood_series(eccentric_problem(0.5, params=barely), 40).energy
    assert abs(e0 - e1) <= 1e-6 * abs(e0)


def test_series_energy_is_negative_for_single_charge_in_water():
    for rho in (0.0, 0.3, 0.6):
        problem = eccentric_problem(rho) if rho else centered_problem(radius=1.0)
        assert kirkwood_series(problem, 40).energy < 0.0
