import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbbem.kernels
import pbbem.solver
from pbbem.kernels import FOUR_PI, KCAL_MOL_PER_E2_ANG, PhysicalParams, kernel_block
from pbbem.kirkwood import SphereProblem, kirkwood_centered
from pbbem.mesh import (
    ChargeSystem,
    FlatMesh,
    MeshValidationError,
    icosahedral_sphere,
)
from pbbem.geometry import DegenerateArcError
from pbbem.solver import (
    GmresBreakdown,
    GmresNonConvergence,
    SolverConfig,
    SurfaceSolution,
    assemble_rhs,
    convergence_order,
    discretize,
    gmres_solve,
    make_operator,
    matvec_hobi,
    matvec_lobi,
    partition_targets,
    solvation_energy,
    solve,
    surface_potential_error,
)

WATER = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
MIXED = PhysicalParams(eps1=2.0, eps2=80.0, kappa=0.5)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

CENTERED_UNIT = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
SCATTERED = ChargeSystem(
    positions=[[0.1, -0.2, 0.3], [-0.4, 0.0, 0.1], [0.0, 0.5, -0.2]],
    charges=[1.0, -0.5, 0.25],
)
NO_CHARGES = ChargeSystem(positions=np.zeros((0, 3)), charges=np.zeros(0))


@pytest.fixture(scope="module")
def born_hobi_l2():
    mesh = icosahedral_sphere(2, radius=2.0)
    config = SolverConfig(scheme="hobi", workers=1)
    problem = discretize(mesh, WATER, CENTERED_UNIT, config)
    return problem, solve(problem, config)


@pytest.fixture(scope="module")
def born_lobi_l2():
    mesh = icosahedral_sphere(2, radius=2.0)
    config = SolverConfig(scheme="lobi", workers=1)
    problem = discretize(mesh, WATER, CENTERED_UNIT, config)
    return problem, solve(problem, config)


# ---------------------------------------------------------------------------
# configuration and discretization


def test_solver_config_validation():
    with pytest.raises(ValueError, match="scheme"):
        SolverConfig(scheme="dense")
    with pytest.raises(ValueError, match="tolerance"):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        SolverConfig(tolerance=1.5)
    with pytest.raises(ValueError, match="restart"):
        SolverConfig(restart=0)
    with pytest.raises(ValueError, match="max_iterations"):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError, match="workers"):
        SolverConfig(workers=0)
    assert SolverConfig(workers=3).worker_count() == 3
    assert SolverConfig().worker_count() >= 1


def test_default_worker_count_follows_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert SolverConfig().worker_count() == 1


def test_discretize_counts_and_collocation():
    mesh = icosahedral_sphere(1, radius=2.0)
    hobi = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    assert hobi.n_collocation == mesh.n_vertices
    assert hobi.n_unknowns == 2 * mesh.n_vertices
    assert np.array_equal(hobi.colloc_pos, mesh.vertices)
    assert np.array_equal(hobi.colloc_nrm, mesh.normals)
    assert hobi.reg_pos.shape[0] == mesh.n_faces
    assert hobi.duf_pos.shape[0] == 3 * mesh.n_faces

    lobi = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="lobi"))
    assert lobi.n_collocation == mesh.n_faces
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    assert np.abs(lobi.colloc_pos - centroids).max() <= 1e-15
    # centroid normals are unit and roughly radial on a sphere
    lengths = np.linalg.norm(lobi.colloc_nrm, axis=1)
    assert np.abs(lengths - 1.0).max() <= 1e-12


def test_discretize_validates_mesh(tetrahedron_mesh):
    open_mesh = FlatMesh(
        vertices=tetrahedron_mesh.vertices,
        normals=tetrahedron_mesh.normals,
        faces=tetrahedron_mesh.faces[:3],
    )
    with pytest.raises(MeshValidationError):
        discretize(open_mesh, WATER, CENTERED_UNIT, SolverConfig())


def test_discretize_reports_degenerate_face(octahedron_arrays):
    verts, faces = octahedron_arrays
    normals = verts.copy()
    normals[0] = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0)
    mesh = FlatMesh(vertices=verts, normals=normals, faces=faces)
    with pytest.raises(DegenerateArcError, match="face"):
        discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))


def test_discretize_names_lowest_degenerate_face(octahedron_arrays):
    verts, faces = octahedron_arrays
    normals = verts.copy()
    # vertex 5 lies on faces 4..7; a normal along its chord to vertex 3
    # breaks only faces holding that edge, 6 and 7, so 6 must be named
    normals[5] = (verts[3] - verts[5]) / np.sqrt(2.0)
    mesh = FlatMesh(vertices=verts, normals=normals, faces=faces)
    with pytest.raises(DegenerateArcError) as info:
        discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    assert str(info.value) == (
        "face 6: endpoint normal is nearly parallel to the chord"
    )


def test_singular_faces_cover_incident_elements():
    mesh = icosahedral_sphere(0)
    problem = discretize(mesh, WATER, NO_CHARGES, SolverConfig(scheme="hobi"))
    for v in range(mesh.n_vertices):
        expected = np.nonzero((mesh.faces == v).any(axis=1))[0]
        got = problem.singular_faces(v)
        assert np.array_equal(np.sort(got), expected)
        assert np.array_equal(got, np.sort(got))  # slices come face-ordered


def test_lobi_near_list_is_own_face():
    mesh = icosahedral_sphere(0)
    problem = discretize(mesh, WATER, NO_CHARGES, SolverConfig(scheme="lobi"))
    for i in range(mesh.n_faces):
        assert np.array_equal(problem.singular_faces(i), [i])


# ---------------------------------------------------------------------------
# matvec correctness


def test_identity_medium_collapses_to_identity():
    """With eps1 = eps2 and no screening every kernel vanishes and both
    diagonal factors are 1, so the operator must be the exact identity."""
    params = PhysicalParams(eps1=3.0, eps2=3.0, kappa=0.0)
    mesh = icosahedral_sphere(1)
    rng = np.random.default_rng(0)
    for scheme, apply in (("hobi", matvec_hobi), ("lobi", matvec_lobi)):
        problem = discretize(mesh, params, NO_CHARGES, SolverConfig(scheme=scheme))
        for _ in range(10):
            u = rng.standard_normal(problem.n_unknowns)
            assert np.abs(apply(problem, u) - u).max() == 0.0


def test_matvec_scheme_mismatch():
    mesh = icosahedral_sphere(0)
    hobi = discretize(mesh, WATER, NO_CHARGES, SolverConfig(scheme="hobi"))
    lobi = discretize(mesh, WATER, NO_CHARGES, SolverConfig(scheme="lobi"))
    with pytest.raises(ValueError):
        matvec_hobi(lobi, np.zeros(lobi.n_unknowns))
    with pytest.raises(ValueError):
        matvec_lobi(hobi, np.zeros(hobi.n_unknowns))


def test_matvec_rejects_wrong_length():
    mesh = icosahedral_sphere(0)
    problem = discretize(mesh, WATER, NO_CHARGES, SolverConfig(scheme="lobi"))
    with pytest.raises(ValueError, match="length"):
        matvec_lobi(problem, np.zeros(problem.n_unknowns + 2))


def test_lobi_matvec_against_naive_loop():
    """Blocked vectorized sweep vs an explicit O(N^2) double loop."""
    mesh = icosahedral_sphere(0)  # 20 faces
    problem = discretize(mesh, MIXED, NO_CHARGES, SolverConfig(scheme="lobi"))
    t = problem.n_collocation
    er = MIXED.eps2 / MIXED.eps1
    rng = np.random.default_rng(1)
    u = rng.standard_normal(2 * t)
    phi, dphi = u[:t], u[t:]
    expected = np.empty(2 * t)
    for i in range(t):
        o1 = 0.5 * (1.0 + er) * phi[i]
        o2 = 0.5 * (1.0 + 1.0 / er) * dphi[i]
        for j in range(t):
            if j == i:
                continue
            k1, k2, k3, k4 = kernel_block(
                problem.colloc_pos[i],
                problem.colloc_nrm[i],
                problem.colloc_pos[j],
                problem.colloc_nrm[j],
                MIXED,
            )
            w = problem.reg_w[j, 0]
            o1 -= (k1 * dphi[j] + k2 * phi[j]) * w
            o2 -= (k3 * dphi[j] + k4 * phi[j]) * w
        expected[i] = o1
        expected[t + i] = o2
    got = matvec_lobi(problem, u)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("level", [0, 1])
def test_hobi_matvec_against_naive_loop(level):
    """Per vertex: the regular rule over non-incident faces plus the Duffy
    rule over that vertex's pairs, one kernel_block call per point."""
    mesh = icosahedral_sphere(level)
    problem = discretize(mesh, MIXED, NO_CHARGES, SolverConfig(scheme="hobi"))
    t = problem.n_collocation
    er = MIXED.eps2 / MIXED.eps1
    u = np.random.default_rng(2).standard_normal(2 * t)
    phi, dphi = u[:t], u[t:]
    expected = np.empty(2 * t)
    for i in range(t):
        xi, ni = problem.colloc_pos[i], problem.colloc_nrm[i]
        o1 = 0.5 * (1.0 + er) * phi[i]
        o2 = 0.5 * (1.0 + 1.0 / er) * dphi[i]
        for f, verts in enumerate(mesh.faces):
            if i in verts:
                continue
            for q in range(problem.reg_w.shape[1]):
                k1, k2, k3, k4 = kernel_block(
                    xi, ni, problem.reg_pos[f, q], problem.reg_nrm[f, q], MIXED
                )
                w = problem.reg_w[f, q]
                p = problem.reg_bary[q] @ phi[verts]
                dp = problem.reg_bary[q] @ dphi[verts]
                o1 -= (k1 * dp + k2 * p) * w
                o2 -= (k3 * dp + k4 * p) * w
        for pair in range(problem.pair_starts[i], problem.pair_starts[i + 1]):
            verts = problem.pair_gverts[pair]
            assert verts[0] == i
            for q in range(problem.duf_w.shape[1]):
                k1, k2, k3, k4 = kernel_block(
                    xi, ni, problem.duf_pos[pair, q], problem.duf_nrm[pair, q], MIXED
                )
                w = problem.duf_w[pair, q]
                p = problem.duf_bary[q] @ phi[verts]
                dp = problem.duf_bary[q] @ dphi[verts]
                o1 -= (k1 * dp + k2 * p) * w
                o2 -= (k3 * dp + k4 * p) * w
        expected[i] = o1
        expected[t + i] = o2
    got = matvec_hobi(problem, u)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _apply(problem, u):
    return (matvec_hobi if problem.scheme == "hobi" else matvec_lobi)(problem, u)


def _block_outputs(problem, u):
    t = problem.n_collocation
    solution = SurfaceSolution(u[:t], u[t:], 0, 0.0)
    return (
        _apply(problem, u),
        assemble_rhs(problem),
        np.array([solvation_energy(problem, solution)]),
    )


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_results_do_not_depend_on_target_block(monkeypatch, scheme):
    """Matvec, RHS and energy are bitwise equal for any row block size."""
    mesh = icosahedral_sphere(1)
    problem = discretize(mesh, MIXED, SCATTERED, SolverConfig(scheme=scheme))
    u = np.random.default_rng(7).standard_normal(problem.n_unknowns)
    reference = _block_outputs(problem, u)
    for rows in (1, 5, 48):
        monkeypatch.setattr(pbbem.solver, "TARGET_BLOCK", rows)
        monkeypatch.setattr(pbbem.kernels, "TARGET_BLOCK", rows)
        for got, want in zip(_block_outputs(problem, u), reference):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_solvation_energy_against_naive_loop(scheme):
    """The blocked energy sweep vs an explicit charge x source double loop."""
    mesh = icosahedral_sphere(1)
    problem = discretize(mesh, MIXED, SCATTERED, SolverConfig(scheme=scheme))
    rng = np.random.default_rng(8)
    u = rng.standard_normal(problem.n_unknowns)
    t = problem.n_collocation
    phi, dphi = u[:t], u[t:]
    src = problem.reg_pos.reshape(-1, 3)
    snrm = problem.reg_nrm.reshape(-1, 3)
    # trace at regular point q of face f, interpolated from its nodes
    bary_phi = problem.reg_bary @ phi[problem.reg_nodes].T  # (Q, N_f)
    bary_dphi = problem.reg_bary @ dphi[problem.reg_nodes].T
    w = problem.reg_w.reshape(-1)
    wphi = w * bary_phi.T.reshape(-1)
    wdphi = w * bary_dphi.T.reshape(-1)
    total = 0.0
    for x, q in zip(problem.charges.positions, problem.charges.charges):
        for j in range(src.shape[0]):
            k1, k2, _, _ = kernel_block(x, (0.0, 0.0, 1.0), src[j], snrm[j], MIXED)
            total += q * (k1 * wdphi[j] + k2 * wphi[j])
    expected = 0.5 * FOUR_PI * KCAL_MOL_PER_E2_ANG * total
    got = solvation_energy(problem, SurfaceSolution(phi, dphi, 0, 0.0))
    assert got == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_centered_charge_closed_form():
    mesh = icosahedral_sphere(1, radius=2.0)
    for eps1 in (1.0, 4.0):
        params = PhysicalParams(eps1=eps1, eps2=80.0, kappa=0.0)
        problem = discretize(mesh, params, CENTERED_UNIT, SolverConfig())
        rhs = assemble_rhs(problem)
        t = problem.n_collocation
        assert rhs.shape == (2 * t,)
        assert np.abs(rhs[:t] - 1.0 / (8.0 * np.pi * eps1)).max() <= 1e-14
        assert np.abs(rhs[t:] + 1.0 / (16.0 * np.pi * eps1)).max() <= 1e-14


def test_rhs_mirror_antisymmetry():
    """A +/- charge pair mirrored in z makes the source exactly odd."""
    mesh = icosahedral_sphere(1, radius=2.0)
    charges = ChargeSystem(
        positions=[[0.0, 0.0, 0.6], [0.0, 0.0, -0.6]], charges=[1.0, -1.0]
    )
    problem = discretize(mesh, WATER, charges, SolverConfig())
    rhs = assemble_rhs(problem)
    t = problem.n_collocation
    index = {
        tuple(np.round(v, 9)): i for i, v in enumerate(problem.colloc_pos)
    }
    mirror = np.array(
        [index[tuple(np.round(v * [1, 1, -1], 9))] for v in problem.colloc_pos]
    )
    scale = np.abs(rhs).max()
    assert np.abs(rhs[:t][mirror] + rhs[:t]).max() <= 1e-12 * scale
    assert np.abs(rhs[t:][mirror] + rhs[t:]).max() <= 1e-12 * scale


def test_rhs_zero_charges():
    mesh = icosahedral_sphere(0)
    problem = discretize(mesh, WATER, NO_CHARGES, SolverConfig())
    assert np.all(assemble_rhs(problem) == 0.0)


# ---------------------------------------------------------------------------
# GMRES


def test_gmres_solves_dense_example():
    rng = np.random.default_rng(3)
    n = 8
    a = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    config = SolverConfig(tolerance=1e-12, workers=1)
    sol = gmres_solve(lambda v: a @ v, b, config)
    exact = np.linalg.solve(a, b)
    assert np.abs(sol.vector - exact).max() <= 1e-9
    assert sol.iterations <= n
    assert sol.residual <= 1e-12


def test_gmres_restart_path():
    rng = np.random.default_rng(4)
    n = 12
    a = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    config = SolverConfig(tolerance=1e-12, restart=3, max_iterations=500, workers=1)
    sol = gmres_solve(lambda v: a @ v, b, config)
    assert np.abs(a @ sol.vector - b).max() <= 1e-10
    assert sol.iterations > 3  # had to restart at least once


def test_gmres_identity_converges_in_one_step():
    b = np.array([1.0, -2.0, 0.5, 3.0])
    sol = gmres_solve(lambda v: v, b, SolverConfig(workers=1))
    assert np.array_equal(sol.vector, b)
    assert sol.iterations == 1


def test_one_cycle_solve_spends_iterations_plus_one_matvecs():
    """The zero start vector costs no matvec; only the final check does."""
    mesh = icosahedral_sphere(1, radius=2.0)
    config = SolverConfig(scheme="hobi", workers=1)
    problem = discretize(mesh, WATER, CENTERED_UNIT, config)
    calls = []

    def counted(v):
        calls.append(1)
        return matvec_hobi(problem, v)

    sol = gmres_solve(counted, assemble_rhs(problem), config)
    assert sol.iterations < config.restart  # converged inside the first cycle
    assert len(calls) == sol.iterations + 1


def test_gmres_zero_rhs():
    sol = gmres_solve(lambda v: v, np.zeros(6), SolverConfig(workers=1))
    assert np.all(sol.vector == 0.0)
    assert sol.iterations == 0
    assert sol.residual == 0.0


def test_gmres_odd_length_rejected():
    with pytest.raises(ValueError, match="even"):
        gmres_solve(lambda v: v, np.ones(5), SolverConfig(workers=1))


def test_gmres_nonconvergence_carries_best_residual():
    rng = np.random.default_rng(5)
    n = 20
    a = np.eye(n) + 2.5 * rng.standard_normal((n, n))  # genuinely hard
    b = rng.standard_normal(n)
    config = SolverConfig(tolerance=1e-14, max_iterations=3, workers=1)
    with pytest.raises(GmresNonConvergence) as info:
        gmres_solve(lambda v: a @ v, b, config)
    assert 0.0 < info.value.best_residual <= 1.0


def test_gmres_stops_at_first_non_finite_residual():
    """A NaN operator costs one matvec; a NaN right-hand side costs none."""
    calls = []

    def nan_operator(v):
        calls.append(1)
        return np.full_like(v, np.nan)

    b = np.ones(6)
    with pytest.raises(GmresBreakdown, match=r"matvecs: 1,"):
        gmres_solve(nan_operator, b, SolverConfig(workers=1))
    assert len(calls) == 1
    calls.clear()
    b[3] = np.nan
    with pytest.raises(GmresBreakdown, match=r"matvecs: 0,"):
        gmres_solve(nan_operator, b, SolverConfig(workers=1))
    assert calls == []


# ---------------------------------------------------------------------------
# partitioning and parallel determinism


def test_partition_examples():
    assert partition_targets(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert partition_targets(7, 1) == [(0, 7)]
    assert partition_targets(3, 5) == [(0, 1), (1, 2), (2, 3), (3, 3), (3, 3)]
    assert partition_targets(0, 2) == [(0, 0), (0, 0)]
    with pytest.raises(ValueError):
        partition_targets(5, 0)
    with pytest.raises(ValueError):
        partition_targets(-1, 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=200),
    w=st.integers(min_value=1, max_value=17),
)
def test_partition_property(n, w):
    ranges = partition_targets(n, w)
    assert len(ranges) == w
    assert ranges[0][0] == 0
    assert ranges[-1][1] == n
    sizes = []
    for (lo, hi), (lo2, _) in zip(ranges, ranges[1:] + [(n, n)]):
        assert lo <= hi
        assert hi == lo2
        sizes.append(hi - lo)
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_parallel_matvec_bitwise_deterministic():
    """The partitioned operator must reproduce the serial sweep bitwise."""
    mesh = icosahedral_sphere(1)
    rng = np.random.default_rng(6)
    for scheme in ("hobi", "lobi"):
        problem = discretize(
            mesh, MIXED, CENTERED_UNIT, SolverConfig(scheme=scheme)
        )
        u = rng.standard_normal(problem.n_unknowns)
        serial = matvec_hobi(problem, u) if scheme == "hobi" else matvec_lobi(
            problem, u
        )
        for workers in (2, 4, 8):
            config = SolverConfig(scheme=scheme, workers=workers)
            with make_operator(problem, config) as op:
                assert np.abs(op(u) - serial).max() == 0.0


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_parallel_matvec_tolerates_empty_ranges():
    mesh = icosahedral_sphere(0)  # 12 vertices, fewer than the worker count
    problem = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    u = np.linspace(-1.0, 1.0, problem.n_unknowns)
    serial = matvec_hobi(problem, u)
    with make_operator(problem, SolverConfig(workers=16)) as op:
        assert np.abs(op(u) - serial).max() == 0.0


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_two_pooled_operators_keep_their_own_problems():
    """Each pool's workers hold the problem they were started with."""
    rng = np.random.default_rng(9)
    problems = [
        discretize(mesh, params, CENTERED_UNIT, SolverConfig(scheme=scheme))
        for mesh, params, scheme in (
            (icosahedral_sphere(1), MIXED, "hobi"),
            (icosahedral_sphere(1, radius=2.0), WATER, "lobi"),
        )
    ]
    vectors = [rng.standard_normal(p.n_unknowns) for p in problems]
    serial = [_apply(p, u) for p, u in zip(problems, vectors)]
    with make_operator(problems[0], SolverConfig(workers=2)) as first:
        with make_operator(problems[1], SolverConfig(workers=2)) as second:
            for _ in range(2):
                assert np.array_equal(first(vectors[0]), serial[0])
                assert np.array_equal(second(vectors[1]), serial[1])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_solve_equals_the_three_step_pipeline(monkeypatch, scheme, workers):
    """solve() is assemble_rhs, make_operator, gmres_solve; its pool is closed."""
    config = SolverConfig(scheme=scheme, workers=workers)
    problem = discretize(icosahedral_sphere(1, radius=2.0), MIXED, SCATTERED, config)
    with make_operator(problem, config) as op:
        expected = gmres_solve(op, assemble_rhs(problem), config)
    opened = []

    def kept_operator(*args):
        opened.append(make_operator(*args))
        return opened[-1]

    monkeypatch.setattr(pbbem.solver, "make_operator", kept_operator)
    solution = solve(problem, config)
    # the operator is still referenced, so only close() can have ended its pool
    assert len(opened) == 1
    assert multiprocessing.active_children() == []
    assert np.array_equal(solution.vector, expected.vector)
    assert solution.iterations == expected.iterations
    assert solution.residual == expected.residual


def test_make_operator_serial_matches_matvec():
    mesh = icosahedral_sphere(0)
    problem = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="lobi"))
    u = np.linspace(0.0, 1.0, problem.n_unknowns)
    config = SolverConfig(scheme="lobi", workers=1)
    with make_operator(problem, config) as op:
        assert np.array_equal(op(u), matvec_lobi(problem, u))


# ---------------------------------------------------------------------------
# end-to-end sphere benchmarks


def test_born_sphere_hobi_frozen_values(born_hobi_l2):
    problem, solution = born_hobi_l2
    energy = solvation_energy(problem, solution)
    assert energy == pytest.approx(-81.98131581725495, rel=1e-9)
    sphere = SphereProblem(radius=2.0, params=WATER, charges=CENTERED_UNIT)
    _, exact_phi, exact_dphi = kirkwood_centered(sphere)
    err_phi = surface_potential_error(solution.phi, exact_phi(problem.colloc_pos))
    assert err_phi == pytest.approx(7.10544719410754e-5, rel=0.05)
    err_dphi = surface_potential_error(
        solution.dphi_dn, exact_dphi(problem.colloc_pos)
    )
    assert err_dphi <= 5e-3
    assert 4 <= solution.iterations <= 9
    assert solution.residual <= 1e-6
    assert np.array_equal(
        solution.vector, np.concatenate([solution.phi, solution.dphi_dn])
    )


def test_born_sphere_lobi_frozen_values(born_lobi_l2):
    problem, solution = born_lobi_l2
    energy = solvation_energy(problem, solution)
    assert energy == pytest.approx(-86.3199784371863, rel=1e-9)
    sphere = SphereProblem(radius=2.0, params=WATER, charges=CENTERED_UNIT)
    _, exact_phi, _ = kirkwood_centered(sphere)
    err_phi = surface_potential_error(solution.phi, exact_phi(problem.colloc_pos))
    assert err_phi == pytest.approx(0.0446, rel=0.1)
    assert 6 <= solution.iterations <= 12


def test_hobi_beats_lobi_on_the_same_mesh(born_hobi_l2, born_lobi_l2):
    sphere = SphereProblem(radius=2.0, params=WATER, charges=CENTERED_UNIT)
    _, exact_phi, _ = kirkwood_centered(sphere)
    hp, hs = born_hobi_l2
    lp, ls = born_lobi_l2
    err_h = surface_potential_error(hs.phi, exact_phi(hp.colloc_pos))
    err_l = surface_potential_error(ls.phi, exact_phi(lp.colloc_pos))
    assert err_h < err_l / 100.0


def test_energy_error_decreases_under_refinement(born_hobi_l2):
    exact = -81.98017625  # centered closed form, radius 2, water
    _, coarse_sol = born_hobi_l2
    coarse_energy = solvation_energy(*born_hobi_l2)
    config = SolverConfig(scheme="hobi", workers=1)
    mesh = icosahedral_sphere(3, radius=2.0)
    problem = discretize(mesh, WATER, CENTERED_UNIT, config)
    solution = solve(problem, config)
    fine_energy = solvation_energy(problem, solution)
    assert abs(fine_energy - exact) < abs(coarse_energy - exact)
    del coarse_sol


def test_zero_charge_solve_is_trivial():
    config = SolverConfig(scheme="lobi", workers=1)
    problem = discretize(icosahedral_sphere(1), WATER, NO_CHARGES, config)
    solution = solve(problem, config)
    assert np.all(solution.vector == 0.0)
    assert solution.iterations == 0
    assert solvation_energy(problem, solution) == 0.0


def test_lobi_matvec_cost_scales_quadratically():
    """min-of-3 matvec timings across one refinement (4x the unknowns)."""
    times = {}
    for level in (2, 3):
        mesh = icosahedral_sphere(level)
        problem = discretize(mesh, WATER, NO_CHARGES, SolverConfig(scheme="lobi"))
        u = np.ones(problem.n_unknowns)
        matvec_lobi(problem, u)  # warm up caches
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            matvec_lobi(problem, u)
            best = min(best, time.perf_counter() - t0)
        times[level] = best
    per_doubling = np.sqrt(times[3] / times[2])
    assert 2.5 <= per_doubling <= 5.5


# ---------------------------------------------------------------------------
# error metrics


def test_surface_potential_error_examples():
    assert surface_potential_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert surface_potential_error([1.1, 2.0], [1.0, 2.0]) == pytest.approx(0.05)
    with pytest.raises(ZeroDivisionError):
        surface_potential_error([1.0], [0.0])
    with pytest.raises(ValueError):
        surface_potential_error([1.0, 2.0], [1.0])


def test_convergence_order_examples():
    assert convergence_order(2.0, 1.0, 4.0, 1.0) == pytest.approx(2.0)
    assert convergence_order(1.0, 2.0, 4.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        convergence_order(1.0, 1.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        convergence_order(2.0, 1.0, -4.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    h=st.floats(min_value=0.01, max_value=0.5),
    ratio=st.floats(min_value=1.5, max_value=8.0),
    ec=st.floats(min_value=1e-8, max_value=1.0),
    ef=st.floats(min_value=1e-8, max_value=1.0),
)
def test_convergence_order_orientation_invariance(h, ratio, ec, ef):
    spacing = convergence_order(h, h / ratio, ec, ef)
    density = convergence_order(1.0 / h, ratio / h, ec, ef)
    assert spacing == pytest.approx(density, rel=1e-9)
