import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import g0, g_kappa

import pbbem.solver
from pbbem.kernels import (
    FOUR_PI,
    KCAL_MOL_PER_E2_ANG,
    PhysicalParams,
    SingularityError,
    kernel_values_d,
    source_terms_at,
)
from pbbem.mesh import ChargeSystem

WATER = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
SALTY = PhysicalParams(eps1=2.0, eps2=80.0, kappa=0.5)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# fundamental solutions


def test_g0_examples():
    assert g0([0, 0, 0], [1, 0, 0]) == pytest.approx(1.0 / FOUR_PI, rel=1e-15)
    assert g0([0, 0, 0], [0, 0, 2]) == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-15)


def test_g_kappa_examples():
    assert g_kappa([0, 0, 0], [1, 0, 0], 1.0) == pytest.approx(
        np.exp(-1.0) / FOUR_PI, rel=1e-15
    )
    assert g_kappa([0, 0, 0], [0, 1, 0], 0.0) == g0([0, 0, 0], [0, 1, 0])


def test_fundamental_solutions_reject_coincident_points():
    p = [0.3, -0.2, 1.0]
    with pytest.raises(SingularityError):
        g0(p, p)
    with pytest.raises(SingularityError):
        g_kappa(p, p, 1.0)


# ---------------------------------------------------------------------------
# physical parameters


def test_physical_params_validation():
    """A zero, negative or non-finite constant is rejected by name, before
    a kernel divides by it or a matvec spreads it."""
    for field, value in [("eps1", 0.0), ("eps2", -2.0), ("kappa", -0.1), ("eps1", np.inf),
                         ("eps2", np.inf), ("kappa", np.inf), ("eps1", np.nan)]:
        fields = {"eps1": 1.0, "eps2": 80.0, "kappa": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            PhysicalParams(**fields)


def test_physical_params_eps_ratio():
    assert PhysicalParams(eps1=4.0, eps2=80.0, kappa=0.0).eps == 0.05
    assert WATER.eps == 1.0 / 80.0


def test_energy_conversion_constant():
    assert KCAL_MOL_PER_E2_ANG == 332.0716


# ---------------------------------------------------------------------------
# kernel identities


def test_identity_medium_zeroes_all_kernels():
    params = PhysicalParams(eps1=4.25, eps2=4.25, kappa=0.0)
    d = np.array([1.0, 0.2, -0.3]) - np.array([0.0, 0.0, 0.5])
    k1, k2, k3, k4 = kernel_values_d(d, unit([1, 2, 0]), unit([0, 1, 1]), params)
    assert (float(k1), float(k2), float(k3), float(k4)) == (0.0, 0.0, 0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    eps=st.floats(min_value=0.5, max_value=120.0),
    dx=st.floats(min_value=-2.0, max_value=2.0),
    dy=st.floats(min_value=0.3, max_value=2.0),
    dz=st.floats(min_value=-2.0, max_value=2.0),
    ax=st.floats(min_value=-1.0, max_value=1.0),
)
def test_identity_medium_property(eps, dx, dy, dz, ax):
    params = PhysicalParams(eps1=eps, eps2=eps, kappa=0.0)
    d = np.array([dx, dy, dz])
    nx = unit([ax, 1.0, 0.3])
    ny = unit([0.2, -ax, 1.0])
    k1, k2, k3, k4 = kernel_values_d(d, nx, ny, params)
    assert (float(k1), float(k2), float(k3), float(k4)) == (0.0, 0.0, 0.0, 0.0)


def test_unscreened_case_closed_forms():
    x = np.array([0.9, 0.1, -0.4])
    y = np.array([-0.3, 0.6, 0.2])
    nx = unit([1.0, 0.5, 0.0])
    ny = unit([-0.2, 1.0, 0.7])
    k1, k2, k3, k4 = kernel_values_d(x - y, nx, ny, WATER)
    assert k1 == 0.0  # no screening: both fundamental solutions coincide
    assert k4 == 0.0
    er = 80.0
    d = x - y
    r = np.linalg.norm(d)
    assert k2 == pytest.approx(np.dot(d, ny) * (er - 1.0) / (FOUR_PI * r**3), rel=1e-13)
    assert k3 == pytest.approx(
        -np.dot(d, nx) * (1.0 - 1.0 / er) / (FOUR_PI * r**3), rel=1e-13
    )


def test_swap_symmetry():
    """Exchanging source and target transposes the system blocks.

    K1 and K4 are symmetric under the full swap; K3 at swapped arguments and
    swapped dielectrics is -K2. Verified to rounding (the reciprocal ratio is
    not computed through the identical float operations).
    """
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y = rng.uniform(-1.5, 1.5, (2, 3))
        if np.linalg.norm(x - y) < 0.3:
            continue
        nx = unit(rng.normal(size=3))
        ny = unit(rng.normal(size=3))
        eps1, eps2 = rng.uniform(0.5, 90.0, 2)
        kappa = rng.uniform(0.0, 2.0)
        fwd = PhysicalParams(eps1=eps1, eps2=eps2, kappa=kappa)
        rev = PhysicalParams(eps1=eps2, eps2=eps1, kappa=kappa)
        k1, k2, k3, k4 = kernel_values_d(x - y, nx, ny, fwd)
        s1, s2, s3, s4 = kernel_values_d(y - x, ny, nx, rev)
        assert k1 == pytest.approx(s1, rel=1e-13, abs=1e-18)
        assert k4 == pytest.approx(s4, rel=1e-13, abs=1e-18)
        assert k3 == pytest.approx(-s2, rel=1e-12, abs=1e-18)
        assert k2 == pytest.approx(-s3, rel=1e-12, abs=1e-18)


# ---------------------------------------------------------------------------
# finite-difference oracle for the derivative kernels


def central_difference(f, p, direction, h=1e-5):
    direction = np.asarray(direction, dtype=float)
    return (f(p + h * direction) - f(p - h * direction)) / (2.0 * h)


def layered_ny_derivative(x, y, ny, kappa):
    """Closed form of d(Gk - G0)/dny, the intermediate behind K4."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = float(np.linalg.norm(d))
    kr = kappa * r
    a = np.expm1(-kr) + kr * np.exp(-kr)
    return float(np.dot(d, ny)) * a / (FOUR_PI * r**3)


def test_kernels_match_finite_difference_oracle():
    """K2/K3 against FD of the fundamental solutions, K4 against FD of the
    closed-form mixed intermediate, over 100 random well-separated configs."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        x = rng.uniform(-1.0, 1.0, 3)
        direction = unit(rng.normal(size=3))
        r = rng.uniform(0.6, 2.5)
        y = x - r * direction
        nx = unit(rng.normal(size=3))
        ny = unit(rng.normal(size=3))
        if abs(np.dot(direction, nx)) < 0.1 or abs(np.dot(direction, ny)) < 0.1:
            continue
        eps1 = rng.uniform(0.5, 4.0)
        eps2 = rng.uniform(2.0, 100.0)
        kappa = rng.uniform(0.0, 2.0)
        params = PhysicalParams(eps1=eps1, eps2=eps2, kappa=kappa)
        er = eps2 / eps1

        k1, k2, k3, k4 = kernel_values_d(x - y, nx, ny, params)

        ref1 = g0(x, y) - g_kappa(x, y, kappa)
        dg0_dny = central_difference(lambda p: g0(x, p), y, ny)
        dgk_dny = central_difference(lambda p: g_kappa(x, p, kappa), y, ny)
        ref2 = er * dgk_dny - dg0_dny
        dg0_dnx = central_difference(lambda p: g0(p, y), x, nx)
        dgk_dnx = central_difference(lambda p: g_kappa(p, y, kappa), x, nx)
        ref3 = dg0_dnx - dgk_dnx / er
        ref4 = central_difference(
            lambda p: layered_ny_derivative(p, y, ny, kappa), x, nx
        )

        for num, ref in ((k1, ref1), (k2, ref2), (k3, ref3), (k4, ref4)):
            assert abs(num - ref) <= 1e-6 * max(abs(ref), 1e-4)
        checked += 1


# ---------------------------------------------------------------------------
# boundedness of the regularized kernels on a sphere


def test_kernels_bounded_at_close_range_on_sphere():
    """R * K_i stays bounded as the points merge along a unit sphere.

    The bare double-layer kernel blows up like 1/R^2; the differenced ones
    keep the curvature-limited 1/R form, so R*K is O(1) down to R ~ 1e-6.
    """
    for params in (WATER, PhysicalParams(eps1=1.0, eps2=80.0, kappa=1.0)):
        for theta in np.logspace(-6, -1, 11):
            x = np.array([1.0, 0.0, 0.0])
            y = np.array([np.cos(theta), np.sin(theta), 0.0])
            r = float(np.linalg.norm(x - y))
            kernels = kernel_values_d(x - y, x, y, params)
            for k in kernels:
                assert np.isfinite(k)
                assert abs(k) * r <= 10.0


def test_k2_close_range_limit_on_unit_sphere():
    er = 80.0
    theta = 1e-4
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([np.cos(theta), np.sin(theta), 0.0])
    r = float(np.linalg.norm(x - y))
    _, k2, _, _ = kernel_values_d(x - y, x, y, WATER)
    assert abs(k2) * r == pytest.approx((er - 1.0) / (8.0 * np.pi), rel=1e-3)


# ---------------------------------------------------------------------------
# source terms


def tiled_terms(points, normals, charges, origin=(0.0, 0.0, 0.0)):
    """source_terms_at over the solver's tiles of the points and charges."""
    tiles = pbbem.solver._tile_layout(len(points), len(charges))[0]
    return source_terms_at(points, normals, charges, np.asarray(origin), tiles)


def terms_at_point(x, nx, charges):
    """(S1, S2) at the single point x with normal nx."""
    s1, s2 = tiled_terms(np.reshape(x, (1, 3)), np.reshape(nx, (1, 3)), charges)
    return float(s1[0]), float(s2[0])


def test_source_terms_unit_charge_examples():
    charges = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
    for a in (1.0, 2.0):
        x = np.array([a, 0.0, 0.0])
        s1, s2 = terms_at_point(x, unit(x), charges)
        assert s1 == pytest.approx(1.0 / (FOUR_PI * a), rel=1e-14)
        assert s2 == pytest.approx(-1.0 / (FOUR_PI * a * a), rel=1e-14)


def test_source_terms_zero_charges():
    charges = ChargeSystem(positions=np.zeros((0, 3)), charges=np.zeros(0))
    s1, s2 = terms_at_point([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], charges)
    assert (s1, s2) == (0.0, 0.0)


def test_source_terms_superposition():
    qa = ChargeSystem(positions=[[0.1, 0.0, 0.0]], charges=[0.7])
    qb = ChargeSystem(positions=[[0.0, -0.2, 0.1]], charges=[-1.1])
    both = ChargeSystem(
        positions=np.vstack([qa.positions, qb.positions]),
        charges=np.concatenate([qa.charges, qb.charges]),
    )
    x = np.array([2.0, 1.0, 0.0])
    nx = unit([1.0, 1.0, 1.0])
    sa = terms_at_point(x, nx, qa)
    sb = terms_at_point(x, nx, qb)
    s = terms_at_point(x, nx, both)
    assert s[0] == pytest.approx(sa[0] + sb[0], rel=1e-14)
    assert s[1] == pytest.approx(sa[1] + sb[1], rel=1e-14)


def test_source_terms_reject_charge_on_surface_point():
    charges = ChargeSystem(positions=[[1.0, 0.0, 0.0]], charges=[1.0])
    with pytest.raises(SingularityError):
        tiled_terms(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]), charges)


def test_source_terms_error_names_global_point_index(monkeypatch):
    """The RHS is summed in tiles of at most TILE^2 pairs; the error still
    counts from point 0."""
    monkeypatch.setattr(pbbem.solver, "TILE", 4)
    tiles = pbbem.solver._tile_layout(30, 2)[0]
    # two charges, a short column axis: tall tiles of 16 // 2 = 8 rows, so
    # point 21 is row 5 of tile 2
    assert tiles.tolist() == [[s, min(s + 8, 30), 0, 2] for s in range(0, 30, 8)]
    charges = ChargeSystem(
        positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], charges=[1.0, 1.0]
    )
    points = np.tile([[0.0, 2.0, 0.0]], (30, 1))
    points[21] = (1.0, 0.0, 0.0)
    points[27] = (0.0, 0.0, 0.0)
    normals = np.tile([[0.0, 1.0, 0.0]], (30, 1))
    with pytest.raises(SingularityError, match="point 21 coincides with charge 1"):
        source_terms_at(points, normals, charges, np.zeros(3), tiles)


@pytest.mark.parametrize("offset, singular", [(1e-7, True), (1e-5, False)])
def test_source_terms_reject_a_point_in_the_rounding_band(monkeypatch, offset, singular):
    """A product r^2 = |x|^2 - 2 x.y + |y|^2 cannot be told apart from zero
    within 4 eps (|x|^2 + |y|^2): about the origin, a point 1e-7 from a
    charge at |y| = 100 (r^2 = 1e-14 against a band of 1.8e-11) raises,
    naming charge 5 of a later column tile (TILE = 4: tiles of 4 charges),
    and a point 1e-5 away (r^2 = 1e-10) gives finite sums."""
    monkeypatch.setattr(pbbem.solver, "TILE", 4)
    positions = np.zeros((6, 3))
    positions[:, 0] = [0.0, 10.0, 20.0, 30.0, 40.0, 100.0]
    charges = ChargeSystem(positions=positions, charges=np.ones(6))
    points = np.tile([[0.0, 50.0, 0.0]], (10, 1))
    points[6] = (100.0, offset, 0.0)
    normals = np.tile([[0.0, 1.0, 0.0]], (10, 1))
    if singular:
        with pytest.raises(SingularityError, match="point 6 coincides with charge 5"):
            tiled_terms(points, normals, charges)
    else:
        s1, s2 = tiled_terms(points, normals, charges)
        assert np.isfinite(s1).all() and np.isfinite(s2).all()


def test_source_terms_at_matches_scalar_form():
    rng = np.random.default_rng(5)
    charges = ChargeSystem(
        positions=rng.uniform(-0.4, 0.4, (5, 3)), charges=rng.uniform(-1, 1, 5)
    )
    points = rng.uniform(1.0, 2.0, (7, 3))
    normals = np.array([unit(v) for v in rng.normal(size=(7, 3))])
    s1, s2 = tiled_terms(points, normals, charges)
    for i in range(7):
        a = b = 0.0
        for q, y in zip(charges.charges, charges.positions):
            d = points[i] - y
            r = float(np.sqrt(d @ d))
            a += q / (FOUR_PI * r)
            b += -q * float(d @ normals[i]) / (FOUR_PI * r**3)
        assert s1[i] == pytest.approx(a, rel=1e-14)
        assert s2[i] == pytest.approx(b, rel=1e-14)


# ---------------------------------------------------------------------------
# a batch equals its pairs evaluated one at a time


def test_kernel_values_d_batch_equals_single_pairs():
    rng = np.random.default_rng(42)
    m = 40
    x = rng.uniform(-1, 1, (m, 3))
    offset = rng.normal(size=(m, 3))
    offset = offset / np.linalg.norm(offset, axis=1)[:, None]
    y = x - rng.uniform(0.5, 2.0, (m, 1)) * offset
    nx = rng.normal(size=(m, 3))
    nx /= np.linalg.norm(nx, axis=1)[:, None]
    ny = rng.normal(size=(m, 3))
    ny /= np.linalg.norm(ny, axis=1)[:, None]
    batched = kernel_values_d(x - y, nx, ny, SALTY)
    for i in range(m):
        single = kernel_values_d(x[i] - y[i], nx[i], ny[i], SALTY)
        for kb, ks in zip(batched, single):
            assert ks.shape == ()
            assert float(kb[i]) == float(ks)  # same elementwise operations, bitwise
    # the near table's shape: (n, 1, 3) target normals against (n, q, 3)
    # displacements and source normals, sign bits of zeros included
    d = (x - y).reshape(8, 5, 3)
    nx, ny = nx[::5, None], ny.reshape(8, 5, 3)
    for params in (WATER, SALTY):
        batched = kernel_values_d(d, nx, ny, params)
        for i, j in np.ndindex(8, 5):
            single = kernel_values_d(d[i, j], nx[i, 0], ny[i, j], params)
            for kb, ks in zip(batched, single):
                assert kb.shape == (8, 5) and ks.shape == ()
                assert kb[i, j].tobytes() == ks.tobytes()


def test_kernel_values_d_masking_contract():
    """Displacements can be overwritten before the call to mask self-pairs."""
    d = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    d[1] = (1.0, 0.0, 0.0)  # placeholder displacement for the masked pair
    nx = np.tile(unit([1.0, 1.0, 0.0]), (2, 1))
    ny = np.tile(unit([0.0, 1.0, 1.0]), (2, 1))
    k1, k2, k3, k4 = kernel_values_d(d, nx, ny, SALTY)
    assert np.all(np.isfinite([k1, k2, k3, k4]))
    assert k1[0] == k1[1] and k4[0] == k4[1]
