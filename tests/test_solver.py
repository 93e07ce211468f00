import ast
import inspect
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbbem.geometry
import pbbem.mesh
import pbbem.solver
from pbbem.kernels import (
    FOUR_PI,
    KCAL_MOL_PER_E2_ANG,
    PhysicalParams,
    kernel_values_d,
    reaction_terms_at,
    source_terms_at,
    sweep_buffers,
)
from pbbem.kirkwood import SphereProblem, kirkwood_centered
from pbbem.mesh import (
    ChargeSystem,
    FlatMesh,
    MeshValidationError,
    icosahedral_sphere,
    parse_msms,
    write_msms,
)
from pbbem.geometry import DegenerateArcError, DegenerateElementError, frames_at
from pbbem.solver import (
    DUFFY_RULE,
    GMRES_STEPS,
    REGULAR_RULE,
    STRIP_CHUNKS,
    TILE,
    GmresBreakdown,
    GmresNonConvergence,
    SolverConfig,
    SurfaceSolution,
    WorkerDied,
    assemble_rhs,
    convergence_order,
    discretize,
    gmres_solve,
    make_operator,
    matvec_hobi,
    matvec_lobi,
    solvation_energy,
    solve,
    surface_potential_error,
)
from pbbem.solver import _partition
from conftest import _childless
from reference import duffy_near_sums, duffy_pairs, g0, gmres_givens

WATER = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
MIXED = PhysicalParams(eps1=2.0, eps2=80.0, kappa=0.5)

HAS_FORK = hasattr(os, "fork")

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
    with pytest.raises(ValueError, match="workers"):
        SolverConfig(workers=0)
    for bad in (2.5, 10.5, True, "4"):
        with pytest.raises(ValueError, match="^workers must be an int >= 1"):
            SolverConfig(workers=bad)
    assert SolverConfig(workers=np.int64(7)).workers == 7
    assert SolverConfig(workers=3).worker_count() == 3
    assert SolverConfig().worker_count() >= 1


def test_solver_config_holds_plain_values_and_no_rules():
    """The quadrature rules and GMRES's step budget are the solver's
    constants, not config fields, so configs built from equal values
    compare and hash equal, and a rule, restart or budget keyword is an
    unknown argument."""
    names = [f.name for f in fields(SolverConfig)]
    assert names == ["scheme", "tolerance", "workers"]
    a = SolverConfig(scheme="lobi", tolerance=1e-8, workers=2)
    b = SolverConfig(scheme="lobi", tolerance=1e-8, workers=2)
    assert a == b and hash(a) == hash(b) and a != SolverConfig(scheme="lobi")
    for field, value in (("regular_rule", REGULAR_RULE), ("duffy_points", 4),
                         ("restart", 2), ("max_iterations", 3)):
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: value})


def test_default_worker_count_follows_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert SolverConfig().worker_count() == 1


def test_worker_count_is_at_most_the_chunk_count(monkeypatch):
    """A worker beyond the STRIP_CHUNKS-th would hold no chunk, so the count
    a report reads is the count that runs: 64 usable CPUs or workers=64
    give STRIP_CHUNKS. Starts no process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert SolverConfig().worker_count() == STRIP_CHUNKS
    assert SolverConfig(workers=64).worker_count() == STRIP_CHUNKS
    assert SolverConfig(workers=STRIP_CHUNKS - 1).worker_count() == STRIP_CHUNKS - 1


def test_array_holding_records_compare_by_identity():
    """Records that hold arrays compare and hash by identity, so == on a
    config, `in` on a list of meshes and hash() never touch an array; the
    solver's two rules are read-only and verified once, at import."""
    mesh = icosahedral_sphere(0)
    assert mesh in [mesh] and mesh not in [icosahedral_sphere(0)]
    assert CENTERED_UNIT == CENTERED_UNIT != replace(CENTERED_UNIT)
    problem = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="lobi"))
    assert problem == problem != replace(problem)
    solution = SurfaceSolution(np.zeros(3), np.ones(3), 0, 0.0)
    assert solution == solution != replace(solution)
    assert len({mesh, CENTERED_UNIT, problem, solution}) == 4
    assert SolverConfig() == SolverConfig()
    assert hash(SolverConfig()) == hash(SolverConfig())
    for rule in (REGULAR_RULE, DUFFY_RULE):
        assert rule == rule != replace(rule)
        assert not (rule.points.flags.writeable or rule.weights.flags.writeable)


def test_discretize_counts_and_collocation():
    mesh = icosahedral_sphere(1, radius=2.0)
    hobi = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    assert hobi.n_collocation == mesh.n_vertices
    assert hobi.n_unknowns == 2 * mesh.n_vertices
    assert np.array_equal(hobi.colloc_pos, mesh.vertices)
    assert np.array_equal(hobi.colloc_nrm, mesh.normals)
    assert hobi.reg_pos.shape[0] == mesh.n_faces
    assert duffy_pairs(hobi)[1].shape[0] == 3 * mesh.n_faces
    assert hobi.duf_w.shape == (3 * mesh.n_faces, 16)
    # a row's entries: its own vertex and each neighbour, ascending
    assert hobi.near_starts.shape == (mesh.n_vertices + 1,)
    for v in range(mesh.n_vertices):
        cols = hobi.near_cols[hobi.near_starts[v] : hobi.near_starts[v + 1]]
        ring = np.unique(mesh.faces[(mesh.faces == v).any(axis=1)])
        assert np.array_equal(cols, ring)
    assert hobi.near_coef.shape == (4, hobi.near_cols.size)

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


def test_msms_mesh_is_validated_once_per_setup(monkeypatch):
    """parse_msms validates the mesh it returns, and discretize does not
    check that read-only mesh again: the closedness check, validate's last
    step, runs once. A mesh built directly is still checked by discretize."""
    calls = []
    real_check = pbbem.mesh._check_closed
    monkeypatch.setattr(pbbem.mesh, "_check_closed", lambda f: calls.append(real_check(f)))
    mesh = parse_msms(*write_msms(icosahedral_sphere(1)))
    discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    assert len(calls) == 1
    built = icosahedral_sphere(1)
    discretize(built, WATER, CENTERED_UNIT, SolverConfig(scheme="lobi"))
    assert len(calls) == 2


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


@pytest.mark.parametrize("which, per_face", [(0, 1), (1, 3)])
def test_discretize_names_face_of_vanishing_jacobian(monkeypatch, which, per_face):
    """A degenerate curved element in the regular (one element per face) or
    the Duffy (three rotations per face) frames is reported by its face."""
    calls = []

    def collapse_face_5(node_pos, node_nrm, pts):
        if len(calls) == which:
            node_pos = node_pos.copy()
            node_pos[:, 5 * per_face] = node_pos[:, 5 * per_face, :1]
        calls.append(None)
        return frames_at(node_pos, node_nrm, pts)

    monkeypatch.setattr(pbbem.solver, "frames_at", collapse_face_5)
    mesh = icosahedral_sphere(1)
    with pytest.raises(DegenerateElementError) as info:
        discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    assert str(info.value).startswith("face 5: vanishing Jacobian at (r, s) = (")


def _collapse_in_call(monkeypatch, call: int, element: int) -> list:
    """Make the solver's frames_at call number `call` (from 0) see element
    `element` of its nodes collapsed onto that element's node 1; returns the
    list that records the calls."""
    calls = []

    def collapsing(node_pos, node_nrm, pts):
        if len(calls) == call:
            node_pos = node_pos.copy()
            node_pos[:, element] = node_pos[:, element, :1]
        calls.append(None)
        return frames_at(node_pos, node_nrm, pts)

    monkeypatch.setattr(pbbem.solver, "frames_at", collapsing)
    return calls


def test_discretize_names_face_past_the_first_near_chunk(monkeypatch):
    """hobi's set-up forms every face's regular frames in one call, then
    its rotations' Duffy frames NEAR_CHUNK faces at a time; a face whose
    rotated element lies in the second run is named by its mesh index, not
    by its place in the run."""
    chunk = pbbem.solver.NEAR_CHUNK
    face = chunk + 20
    calls = _collapse_in_call(monkeypatch, 2, 3 * (face - chunk) + 1)
    mesh = icosahedral_sphere(2)  # 320 faces: three runs
    with pytest.raises(DegenerateElementError) as info:
        discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    assert len(calls) == 3  # the regular frames, then one call per run
    assert str(info.value).startswith(f"face {face}: vanishing Jacobian at (r, s) = (")


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("duffy", [False, True])
def test_degenerate_element_names_its_face_across_chunk_edges(monkeypatch, chunk, duffy):
    """With runs of 1 or 7 faces, a collapsed element of face 45, in the
    regular frames or in rotation 1's Duffy frames, is named by that face
    and the rule's first point, where a collapsed element's Jacobian
    vanishes first: the message a whole-mesh set-up gives."""
    monkeypatch.setattr(pbbem.solver, "NEAR_CHUNK", chunk)
    face = 45
    run, offset = divmod(face, chunk)
    _collapse_in_call(monkeypatch, 1 + run if duffy else 0, 3 * offset + 1 if duffy else face)
    rule = pbbem.solver.DUFFY_RULE if duffy else pbbem.solver.REGULAR_RULE
    r, s = (float(c) for c in rule.points[0])
    with pytest.raises(DegenerateElementError) as info:
        discretize(icosahedral_sphere(1), WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    assert str(info.value) == f"face {face}: vanishing Jacobian at (r, s) = ({r}, {s})"


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
@pytest.mark.parametrize("edge_face", [None, 44, 46])
def test_degenerate_arc_names_lowest_face_over_edge_and_cross_arcs(
        monkeypatch, chunk, edge_face):
    """A degenerate cross arc of face 45's rotation 1, alone or beside a
    degenerate edge arc whose lower face is 44 or 46, raises
    DegenerateArcError for the lowest face over both kinds of arc, with
    that arc's cause, whatever the run length: every arc is fitted before
    the first run."""
    mesh = icosahedral_sphere(1)
    face = 45
    monkeypatch.setattr(pbbem.solver, "NEAR_CHUNK", chunk)
    real = pbbem.geometry.fit_arc
    lo = hi = None
    if edge_face is not None:
        # the face's first edge, whose other face lies past both 44 and 46
        for j in range(3):
            lo, hi = sorted(mesh.faces[edge_face, [j, (j + 1) % 3]])
            others = [f for f in range(mesh.n_faces)
                      if {lo, hi} <= set(mesh.faces[f]) and f != edge_face]
            if others[0] > 46:
                break
        assert others[0] > 46

    def failing(p0, n0, p1, n1, pending=None):
        arc = real(p0, n0, p1, n1, pending)
        if np.ndim(p0) == 3:  # the cross arcs, (N_f, 3 rotations, 3)
            mask = np.zeros(np.shape(p0)[:2], dtype=bool)
            mask[face, 1] = True
            pending.append((mask, "arc endpoints coincide"))
        elif lo is not None:  # the edge arcs, by ascending (low, high) key
            keys = np.unique([min(a, b) * mesh.n_vertices + max(a, b) for f in mesh.faces
                              for a, b in zip(f, np.roll(f, -1))])
            pending.append((keys == lo * mesh.n_vertices + hi,
                            "endpoint normal is nearly parallel to the chord"))
        return arc

    monkeypatch.setattr(pbbem.geometry, "fit_arc", failing)
    with pytest.raises(DegenerateArcError) as info:
        discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    if edge_face == 44:
        assert str(info.value) == "face 44: endpoint normal is nearly parallel to the chord"
    else:
        assert str(info.value) == "face 45: arc endpoints coincide"
    assert info.value.index == (min(face, edge_face or face),)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("kappa", [0.0, 0.125])
def test_discretize_arrays_do_not_follow_the_chunk(monkeypatch, level, kappa):
    """Runs of 1, 7 or all faces give every DiscretizedProblem array the
    bits of the default runs: each element's frames and near coefficients
    follow neither its run nor its place in it, and the near table adds
    every coefficient in element order."""
    mesh = icosahedral_sphere(level)
    params = PhysicalParams(eps1=1.0, eps2=80.0, kappa=kappa)

    def arrays(problem):
        return {f.name: getattr(problem, f.name) for f in fields(problem)
                if isinstance(getattr(problem, f.name), np.ndarray)}

    default = arrays(discretize(mesh, params, CENTERED_UNIT, SolverConfig()))
    assert len(default) == 12
    for chunk in (1, 7, 3 * mesh.n_faces):
        monkeypatch.setattr(pbbem.solver, "NEAR_CHUNK", chunk)
        other = arrays(discretize(mesh, params, CENTERED_UNIT, SolverConfig()))
        for name, value in default.items():
            assert np.array_equal(other[name], value), (chunk, name)


def _near_sources(problem):
    """(T, N) bools: the regular-rule sources each row skips, from the mesh
    alone: every point of each face holding the row's vertex (hobi), or the
    row's own centroid (lobi)."""
    faces = problem.mesh.faces
    if problem.scheme == "lobi":
        near = np.eye(len(faces), dtype=bool)
    else:
        near = np.stack([(faces == v).any(axis=1) for v in range(problem.n_collocation)])
    return np.repeat(near, problem.reg_w.shape[1], axis=1)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_plan_near_pairs_are_the_singular_sets(scheme, level):
    """The sweep plan's near pairs, read back from each tile's flat indices,
    are exactly the pairs of each row with the regular-rule points of its
    singular elements: hobi's vertex with every face incident to it, lobi's
    centroid with its own face. Each lies inside its tile's block, each
    tile's are in face order, and no pair is listed twice."""
    problem = discretize(icosahedral_sphere(level), WATER, NO_CHARGES, SolverConfig(scheme=scheme))
    plan = pbbem.solver._sweep_plan(problem)
    q = problem.reg_w.shape[1]
    got = np.zeros((problem.n_collocation, problem.reg_w.size), int)
    for s, e, c, d, a, b in plan.tiles.tolist():
        flat = plan.near[a:b]
        assert np.all((0 <= flat) & (flat < (e - s) * (d - c)))
        i, j = s + flat // (d - c), c + flat % (d - c)
        assert np.all(np.diff(j // q) >= 0)
        np.add.at(got, (i, j), 1)
    assert plan.tiles[-1, 5] == plan.near.size
    assert np.array_equal(got, _near_sources(problem).astype(int))


# ---------------------------------------------------------------------------
# matvec correctness


def test_identity_medium_collapses_to_identity():
    """With eps1 = eps2 and no screening every kernel vanishes and both
    diagonal factors are 1, so the operator must be the exact identity."""
    params = PhysicalParams(eps1=3.0, eps2=3.0, kappa=0.0)
    mesh = icosahedral_sphere(1)
    rng = np.random.default_rng(0)
    for scheme in ("hobi", "lobi"):
        problem = discretize(mesh, params, NO_CHARGES, SolverConfig(scheme=scheme))
        for _ in range(10):
            u = rng.standard_normal(problem.n_unknowns)
            assert np.abs(_apply(problem, u) - u).max() == 0.0


def test_lobi_operator_has_a_unit_diagonal():
    """Each equation is divided by its jump coefficient, and lobi drops
    the self pair, so op(e_i)[i] is exactly 1 in both halves. The RHS is
    divided the same way: S_k / (eps1 alpha_k), bit for bit."""
    mesh = icosahedral_sphere(0)
    problem = discretize(mesh, MIXED, SCATTERED, SolverConfig(scheme="lobi"))
    n = problem.n_unknowns
    with make_operator(problem, SolverConfig(workers=1)) as op:
        diagonal = [op(np.eye(n)[i])[i] for i in range(n)]
    assert diagonal == [1.0] * n

    er = MIXED.eps2 / MIXED.eps1
    alpha1, alpha2 = 0.5 * (1.0 + er), 0.5 * (1.0 + 1.0 / er)
    tiles = pbbem.solver._tile_layout(problem.n_collocation, len(SCATTERED))[0]
    s1, s2 = source_terms_at(
        problem.colloc_pos, problem.colloc_nrm, SCATTERED, problem.origin, tiles
    )
    expected = np.concatenate([s1 / (MIXED.eps1 * alpha1), s2 / (MIXED.eps1 * alpha2)])
    assert np.array_equal(assemble_rhs(problem), expected)


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
        _apply(problem, np.zeros(problem.n_unknowns + 2))


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
        o1 = o2 = 0.0
        for j in range(t):
            if j == i:
                continue
            k1, k2, k3, k4 = kernel_values_d(
                problem.colloc_pos[i] - problem.colloc_pos[j],
                problem.colloc_nrm[i],
                problem.colloc_nrm[j],
                MIXED,
            )
            w = problem.reg_w[j, 0]
            o1 -= (k1 * dphi[j] + k2 * phi[j]) * w
            o2 -= (k3 * dphi[j] + k4 * phi[j]) * w
        expected[i] = phi[i] + o1 / (0.5 * (1.0 + er))
        expected[t + i] = dphi[i] + o2 / (0.5 * (1.0 + 1.0 / er))
    got = _apply(problem, u)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("level", [0, 1])
def test_hobi_matvec_against_naive_loop(level):
    """Per vertex: the regular rule over non-incident faces plus the Duffy
    rule over that vertex's pairs, one kernel_values_d call per point."""
    mesh = icosahedral_sphere(level)
    problem = discretize(mesh, MIXED, NO_CHARGES, SolverConfig(scheme="hobi"))
    gverts, duf_pos, duf_nrm, duf_w, duf_bary = duffy_pairs(problem)
    t = problem.n_collocation
    er = MIXED.eps2 / MIXED.eps1
    u = np.random.default_rng(2).standard_normal(2 * t)
    phi, dphi = u[:t], u[t:]
    expected = np.empty(2 * t)
    for i in range(t):
        xi, ni = problem.colloc_pos[i], problem.colloc_nrm[i]
        o1 = o2 = 0.0
        for f, verts in enumerate(mesh.faces):
            if i in verts:
                continue
            for q in range(problem.reg_w.shape[1]):
                k1, k2, k3, k4 = kernel_values_d(
                    xi - problem.reg_pos[f, q], ni, problem.reg_nrm[f, q], MIXED
                )
                w = problem.reg_w[f, q]
                p = problem.reg_bary[q] @ phi[verts]
                dp = problem.reg_bary[q] @ dphi[verts]
                o1 -= (k1 * dp + k2 * p) * w
                o2 -= (k3 * dp + k4 * p) * w
        # the Duffy pairs of row i rotate exactly the faces incident to it
        pairs = np.flatnonzero(gverts[:, 0] == i)
        incident = mesh.faces[(mesh.faces == i).any(axis=1)]
        assert sorted(map(sorted, gverts[pairs].tolist())) == sorted(map(sorted, incident.tolist()))
        for pair in pairs:
            verts = gverts[pair]
            assert verts[0] == i
            for q in range(duf_w.shape[1]):
                k1, k2, k3, k4 = kernel_values_d(
                    xi - duf_pos[pair, q], ni, duf_nrm[pair, q], MIXED
                )
                w = duf_w[pair, q]
                p = duf_bary[q] @ phi[verts]
                dp = duf_bary[q] @ dphi[verts]
                o1 -= (k1 * dp + k2 * p) * w
                o2 -= (k3 * dp + k4 * p) * w
        expected[i] = phi[i] + o1 / (0.5 * (1.0 + er))
        expected[t + i] = dphi[i] + o2 / (0.5 * (1.0 + 1.0 / er))
    got = _apply(problem, u)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _apply(problem, u):
    """One matvec of a new serial operator, which builds its own plan."""
    with make_operator(problem, SolverConfig(workers=1)) as op:
        return op(u)


def _sweep(problem, u, lo=0, hi=STRIP_CHUNKS):
    """Chunks [lo, hi) of u's sweep from a plan built for this call, as a
    pool worker builds one when it starts and then runs a task."""
    plan = pbbem.solver._sweep_plan(problem)
    return pbbem.solver._apply_chunks(plan, pbbem.solver._sweep_moments(plan, u), lo, hi)


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_rhs_does_not_depend_on_strip_layout(monkeypatch, scheme):
    """The RHS, like the matvec and the energy, is products over the tiles
    of _tile_layout, which round by their sizes: for any tile size (1, 5
    and 48 below: tiles of 1 x 1, 5 x 3 and up to 48 x 3 pairs) it stays within
    1e-14 of the default layout's, relative to its largest value per
    half, at every kappa. Its bits follow the fixed layout, never the
    worker count."""
    mesh = icosahedral_sphere(1)
    for params in SCREENED_AND_NOT:
        problem = discretize(mesh, params, SCATTERED, SolverConfig(scheme=scheme))
        reference = assemble_rhs(problem).reshape(2, -1)
        scale = np.abs(reference).max(axis=1, keepdims=True)
        for tile, chunks in zip((1, 5, 48), (1, 3, 16)):
            with monkeypatch.context() as layout:
                layout.setattr(pbbem.solver, "TILE", tile)
                layout.setattr(pbbem.solver, "STRIP_CHUNKS", chunks)
                rhs = assemble_rhs(problem).reshape(2, -1)
            assert np.all(np.abs(rhs - reference) <= 1e-14 * scale)


def test_rhs_matches_scalar_greens_functions_off_the_origin():
    """On the level-3 hobi sphere moved by (100, -50, 30) A, with 40
    charges scattered inside it, the RHS (products about the problem's
    origin, the vertex centroid) stays within 1e-14 of sums of
    reference.g0, G0 and its normal derivative -G0 d.nx / r^2, relative
    to its largest value per half (1.5e-15 and 3.2e-15 measured)."""
    shift = np.array([100.0, -50.0, 30.0])
    mesh = icosahedral_sphere(3, center=shift)
    rng = np.random.default_rng(8)
    charges = ChargeSystem(shift + rng.uniform(-0.5, 0.5, (40, 3)), rng.uniform(-1, 1, 40))
    problem = discretize(mesh, MIXED, charges, SolverConfig(scheme="hobi"))
    expected = np.zeros((2, problem.n_collocation))
    for i, (x, nx) in enumerate(zip(problem.colloc_pos, problem.colloc_nrm)):
        for q, y in zip(charges.charges, charges.positions):
            d = x - y
            expected[:, i] += q * g0(x, y) * np.array([1.0, -float(d @ nx) / float(d @ d)])
    er = MIXED.eps2 / MIXED.eps1
    expected /= MIXED.eps1 * np.array([[0.5 * (1.0 + er)], [0.5 * (1.0 + 1.0 / er)]])
    got = assemble_rhs(problem).reshape(2, -1)
    scale = np.abs(expected).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - expected) <= 1e-14 * scale)


def _node_sum(values, bary):
    """(..., K) node values x (m, K) weights -> (..., m), in node order."""
    out = values[..., 0, None] * bary[:, 0]
    for k in range(1, bary.shape[1]):
        out = out + values[..., k, None] * bary[:, k]
    return out


def _reference_row_sums(xt, nt, src, snrm, wphi, wdphi, params, skip=None):
    """The sweep as four full kernel arrays per block from kernel_values_d,
    K1 and K4 evaluated even where they are exactly zero. skip, if given,
    is (T, N) bools: row i drops the sources j where skip[i, j]."""
    t = xt.shape[0]
    acc1, acc2 = np.empty(t), np.empty(t)
    for s in range(0, t, 8):
        e = min(s + 8, t)
        d = xt[s:e, None, :] - src[None, :, :]
        if skip is not None:
            pair = np.nonzero(skip[s:e])
            d[pair] = (1.0, 0.0, 0.0)
        k1, k2, k3, k4 = kernel_values_d(d, nt[s:e, None, :], snrm[None], params)
        if skip is not None:
            for k in (k1, k2, k3, k4):
                k[pair] = 0.0
        acc1[s:e] = (k1 * wdphi + k2 * wphi).sum(axis=1)
        acc2[s:e] = (k3 * wdphi + k4 * wphi).sum(axis=1)
    return acc1, acc2


def _reference_moment_sums(problem, wphi, wdphi):
    """(2, T) regular sums as the moment contraction, written out. Per
    tile of _tile_layout, with positions about the problem's origin,
    r^2 = [|x|^2, x, 1] @ [1, -2 y, |y|^2] and d.nx = [x.nx, nx/2] @ [1, -2 y]:
    g = 1/r^3 (zero at the skipped pairs), at kappa > 0 as ir^2 ir from
    ir = 1/r, with f4 = a g, f1 = em1 ir and t = b d.nx ir^2 g, e^(-kr)
    taken as 1 + em1; each factor times the sources' moments, built from wphi and
    wdphi divided by 4 pi (the kernels' constant), g's and f4's products
    added and contracted with the targets' [x, 1, x.nx, nx] (g's moments
    carry the signs). If self-sourced, each tile off the diagonal also sends the
    swapped pairs' sums to its columns, and the chunks add over the binary
    chunk tree. Only the layout is shared with the code."""
    params, t = problem.params, problem.n_collocation
    er, kappa = params.eps2 / params.eps1, params.kappa
    own = problem.scheme == "lobi"  # self-sourced
    src = problem.reg_pos.reshape(-1, 3)
    wphi, wdphi = wphi / FOUR_PI, wdphi / FOUR_PI
    y, ny = (src - problem.origin).T, problem.reg_nrm.reshape(-1, 3).T
    ydn = y[0] * ny[0] + y[1] * ny[1] + y[2] * ny[2]
    c2, c3 = (er - 1.0) * wphi, -(1.0 - 1.0 / er) * wdphi
    mg = np.stack([*(c2 * ny), -c2 * ydn, c3, *(-c3 * y)], axis=1)
    wn = wphi * ny
    m4 = np.stack([*(er * wn), -er * wphi * ydn, wdphi / er, *(wn - wdphi * y / er)], axis=1)
    m5 = np.stack([wphi, *(-wphi * y)], axis=1)
    nt = problem.colloc_nrm.T
    x = (problem.colloc_pos - problem.origin).T
    xnx = x[0] * nt[0] + x[1] * nt[1] + x[2] * nt[2]
    w = np.array([*x, np.ones(t), xnx, *nt])
    xr = np.stack([x[0] * x[0] + x[1] * x[1] + x[2] * x[2], *x, np.ones(t)], axis=1)
    nr = np.stack([xnx, *(nt / 2)], axis=1)
    yc = np.stack([np.ones(y.shape[1]), *(-2 * y), y[0] * y[0] + y[1] * y[1] + y[2] * y[2]])
    tiles, _, chunks = pbbem.solver._tile_layout(t, None if own else src.shape[0])
    skip = _near_sources(problem)

    def sums(factors, sources, targets, swapped=False):
        """The targets' two sums from the factors, each (sources, targets)."""
        moments = [m[sources] for m in (mg, m4, m5, wdphi)]
        wt = w[:, targets]
        p = moments[0].T @ factors[0]
        if kappa != 0.0:
            p = p + moments[1].T @ factors[1]
        p = p * wt
        s1 = ((p[0] + p[1]) + p[2]) + p[3]
        s2 = ((p[4] + p[5]) + p[6]) + p[7]
        if kappa != 0.0:
            s1 -= moments[3] @ factors[2]
            if swapped:
                p = (moments[2].T @ factors[3]) * wt[4:]
                s2 += ((p[0] + p[1]) + p[2]) + p[3]
            else:
                p = (moments[1][:, :4].T @ factors[3]) * wt[:4]
                s2 -= (((p[0] + p[1]) + p[2]) + p[3]) / er
        return s1, s2

    def chunk_sums(k):
        acc = np.zeros((2, t))
        for s, e, c, d in tiles[chunks[k] : chunks[k + 1]]:
            pair = np.nonzero(skip[s:e, c:d])
            r2 = xr[s:e] @ yc[:, c:d]
            r2[pair] = 1.0
            if kappa == 0.0:
                g = 1.0 / (r2 * np.sqrt(r2))
                g[pair] = 0.0
                f = [g]
            else:
                dnx = nr[s:e] @ yc[:4, c:d]
                ir = 1.0 / np.sqrt(r2)
                ir[pair] = 0.0
                ir2 = ir * ir
                g = ir2 * ir
                mkr = np.sqrt(r2) * -kappa
                em1 = np.expm1(mkr)
                ekr = (em1 + 1.0) * mkr
                a = em1 - ekr
                b = mkr * ekr + a + a + a
                f = [g, a * g, em1 * ir, b * dnx * ir2 * g]
            row1, row2 = sums([a.T for a in f], slice(c, d), slice(s, e))
            acc[0, s:e] += row1
            acc[1, s:e] += row2
            if own and c != s:
                col1, col2 = sums(f, slice(s, e), slice(c, d), True)
                acc[0, c:d] += col1
                acc[1, c:d] += col2
        return acc

    def node(a, b):
        if b - a == 1:
            return chunk_sums(a)
        m = (a + b) // 2
        return node(a, m) + node(m, b)

    return node(0, STRIP_CHUNKS)


def _table_near_sums(problem, phi, dphi):
    """(2, T): each row's near table entries added one by one in order."""
    sums = np.zeros((2, problem.n_collocation))
    c1, c2, c3, c4 = problem.near_coef
    for t in range(problem.n_collocation):
        for i in range(problem.near_starts[t], problem.near_starts[t + 1]):
            v = problem.near_cols[i]
            sums[0, t] += c1[i] * dphi[v] + c2[i] * phi[v]
            sums[1, t] += c3[i] * dphi[v] + c4[i] * phi[v]
    return sums


def _reference_matvec(problem, u, moments=False, near_sums=_table_near_sums):
    """The operator with every regular kernel value from kernel_values_d,
    or with the regular sums from _reference_moment_sums if moments, plus
    hobi's near values from near_sums(problem, phi, dphi): the table's entries
    in order, or duffy_near_sums, pair by pair."""
    t = problem.n_collocation
    params = problem.params
    er = params.eps2 / params.eps1
    phi, dphi = u[:t], u[t:]
    w = problem.reg_w
    wphi = (w * _node_sum(phi[problem.reg_nodes], problem.reg_bary)).reshape(-1)
    wdphi = (w * _node_sum(dphi[problem.reg_nodes], problem.reg_bary)).reshape(-1)
    sources = (
        problem.colloc_pos, problem.colloc_nrm,
        problem.reg_pos.reshape(-1, 3), problem.reg_nrm.reshape(-1, 3),
        wphi, wdphi, params, _near_sources(problem),
    )
    if moments:
        acc1, acc2 = _reference_moment_sums(problem, wphi, wdphi)
    else:
        acc1, acc2 = _reference_row_sums(*sources)
    if problem.near_coef is not None:
        near1, near2 = near_sums(problem, phi, dphi)
        acc1 += near1
        acc2 += near2
    out1 = phi - acc1 / (0.5 * (1.0 + er))
    out2 = dphi - acc2 / (0.5 * (1.0 + 1.0 / er))
    return np.concatenate([out1, out2])


SCREENED_AND_NOT = [MIXED, PhysicalParams(eps1=2.0, eps2=80.0, kappa=0.0)]


def _assert_near_four_kernel_sums(problem, u, got):
    """got, a matvec of u, is within 1e-12 of the four-kernel operator's
    kernel sums (the matvec minus u), relative to them, in each half; its
    near values are summed pair by pair (duffy_near_sums)."""
    four = _reference_matvec(problem, u, near_sums=duffy_near_sums)
    t = problem.n_collocation
    for half in (slice(None, t), slice(t, None)):
        sums = four[half] - u[half]
        assert np.abs(got[half] - four[half]).max() <= 1e-12 * np.abs(sums).max()


@pytest.mark.parametrize("params", SCREENED_AND_NOT, ids=["kappa>0", "kappa=0"])
@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_sweep_bitwise_equals_four_kernel_reference(scheme, params):
    """Both schemes' sweeps sum every tile as products of kernel factors
    with source moments, lobi's with the swapped pairs' column sums: the
    matvec equals that contraction written out (_reference_moment_sums)
    bit for bit, with hobi's near table added entry by entry, and it is
    within 1e-12 per half of the four-kernel sums (kernel_values_d, K1 and
    K4 evaluated even where they are exactly zero). hobi's table is within
    1e-14 of its Duffy pairs summed one by one."""
    mesh = icosahedral_sphere(1)
    problem = discretize(mesh, params, SCATTERED, SolverConfig(scheme=scheme))
    u = np.random.default_rng(11).standard_normal(problem.n_unknowns)
    got = _apply(problem, u)
    assert np.array_equal(got, _reference_matvec(problem, u, moments=True))
    _assert_near_four_kernel_sums(problem, u, got)
    if scheme == "hobi":
        pairs = _reference_matvec(problem, u, True, duffy_near_sums)
        assert np.abs(got - pairs).max() <= 1e-14 * np.abs(pairs).max()


@pytest.mark.parametrize("params", SCREENED_AND_NOT, ids=["kappa>0", "kappa=0"])
@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_moment_sums_keep_their_digits_off_the_origin(scheme, params):
    """The moment sums x.A - B cancel like |x - origin| / r, so they are
    taken about the vertex centroid: on a level-3 mesh translated by
    (100, -50, 30) A every matvec stays within 1e-12 of the four-kernel
    sums per half (about the coordinate origin they drift to ~1e-11)."""
    mesh = icosahedral_sphere(3)
    moved = FlatMesh(
        vertices=mesh.vertices + [100.0, -50.0, 30.0], normals=mesh.normals, faces=mesh.faces
    )
    problem = discretize(moved, params, NO_CHARGES, SolverConfig(scheme=scheme))
    u = np.random.default_rng(3).standard_normal(problem.n_unknowns)
    _assert_near_four_kernel_sums(problem, u, _apply(problem, u))


@pytest.mark.parametrize("scheme, level", [("lobi", 4), ("hobi", 3)])
def test_strip_products_keep_their_digits(monkeypatch, scheme, level):
    """kernel_sums takes r^2 = |x|^2 - 2 x.y + |y|^2 and d.nx = x.nx - y.nx
    as products of per-target rows with per-source columns, positions about
    the origin. On a mesh translated by (100, -50, 30) A, every pair of 8
    tiles spread over the sweep stays within 4 eps (|x|^2 + |y|^2) of d.d
    and 4 eps (|x| + |y|) of d.nx, with d = x - y formed elementwise from
    the same positions, and no pair the tile keeps has r^2 <= 0."""
    mesh = icosahedral_sphere(level)
    moved = FlatMesh(
        vertices=mesh.vertices + [100.0, -50.0, 30.0], normals=mesh.normals, faces=mesh.faces
    )
    problem = discretize(moved, MIXED, NO_CHARGES, SolverConfig(scheme=scheme))
    strips = []
    real_kernel_sums = pbbem.solver.kernel_sums

    def recording(scratch, targets, sources, *args, mask, **kw):
        strips.append((*targets[:2], sources[0], mask))
        return real_kernel_sums(scratch, targets, sources, *args, mask=mask, **kw)

    monkeypatch.setattr(pbbem.solver, "kernel_sums", recording)
    _sweep(problem, np.ones(problem.n_unknowns))
    eps = np.finfo(float).eps
    for k in np.linspace(0, len(strips) - 1, 8).astype(int):
        rows, nrows, cols, mask = strips[k]  # [|x|^2, x, 1], [x.nx, nx/2], [1, -2 y, |y|^2]
        x, nx, y = rows[:, 1:4], 2 * nrows[:, 1:4], (-0.5 * cols[1:4]).T
        d = x[:, None] - y[None]
        r2, dnx = rows @ cols, nrows @ cols[:4]
        xx, yy = rows[:, :1], cols[4]
        assert np.all(np.abs(r2 - (d * d).sum(axis=2)) <= 4 * eps * (xx + yy))
        dnx_d = (d * nx[:, None]).sum(axis=2)
        assert np.all(np.abs(dnx - dnx_d) <= 4 * eps * (np.sqrt(xx) + np.sqrt(yy)))
        r2.reshape(-1)[mask] = np.inf
        assert r2.min() > 0.0


@pytest.mark.parametrize("params", SCREENED_AND_NOT, ids=["kappa>0", "kappa=0"])
@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_first_sum_only_energy_equals_full_sweep_energy(scheme, params):
    """solvation_energy evaluates only K1 and K2, as matrix products over
    the sources' factors; a full four-kernel sweep's first row sums give
    the same energy within 1e-13 relative (8.0e-16 measured, hobi at
    kappa = 0)."""
    mesh = icosahedral_sphere(1)
    problem = discretize(mesh, params, SCATTERED, SolverConfig(scheme=scheme))
    t = problem.n_collocation
    u = np.random.default_rng(12).standard_normal(2 * t)
    phi, dphi = u[:t], u[t:]
    w = problem.reg_w
    wphi = (w * _node_sum(phi[problem.reg_nodes], problem.reg_bary)).reshape(-1)
    wdphi = (w * _node_sum(dphi[problem.reg_nodes], problem.reg_bary)).reshape(-1)
    charges = problem.charges
    rows, _ = _reference_row_sums(
        charges.positions, np.zeros_like(charges.positions),
        problem.reg_pos.reshape(-1, 3), problem.reg_nrm.reshape(-1, 3),
        wphi, wdphi, params,
    )
    total = 0.0
    for q, row in zip(charges.charges, rows):
        total += q * row
    expected = 0.5 * FOUR_PI * KCAL_MOL_PER_E2_ANG * total
    got = solvation_energy(problem, SurfaceSolution(phi, dphi, 0, 0.0))
    assert got == pytest.approx(expected, rel=1e-13)


def test_hobi_discretize_traced_peak_stays_bounded():
    """hobi's set-up holds one node table and one run of NEAR_CHUNK faces
    beside the problem's own arrays. A level-4 discretize traced a peak of
    8.93 MB, 3.85 MB of it the arrays the problem keeps (2-CPU Xeon host,
    NumPy 2.4); building every face's three rotations whole traced
    18.49 MB. The bound leaves a quarter for allocator and NumPy drift."""
    mesh = icosahedral_sphere(4)
    tracemalloc.start()
    try:
        problem = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="hobi"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(problem, name).nbytes for name in (
        "reg_pos", "reg_nrm", "reg_w", "near_starts", "near_cols", "near_coef", "duf_w"))
    assert kept == pytest.approx(3.85e6, rel=0.01)
    assert peak <= 11.2e6


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_chunk_task_memory_does_not_grow_with_chunks(scheme):
    """A worker's plan holds one set of scratch buffers, sized by its
    largest tile. Traced over the plan's build and one task, doubling the
    chunks adds less than one source row of one buffer plus one (2, T)
    partial sum of the deeper chunk tree to the peak, which stays within
    half a block of what workspace_doubles counts for a whole serial
    matvec (0.96-1.06 of it at levels 1-3)."""
    mesh = icosahedral_sphere(2)
    problem = discretize(mesh, MIXED, NO_CHARGES, SolverConfig(scheme=scheme))
    u = np.random.default_rng(13).standard_normal(problem.n_unknowns)
    n_sources = problem.reg_w.size
    t = problem.n_collocation
    task, sizes = _sweep, (STRIP_CHUNKS // 4, STRIP_CHUNKS // 2)
    node_bytes = 2 * t * 8
    _, pairs, _ = pbbem.solver._tile_layout(t, None if scheme == "lobi" else n_sources)
    block_bytes = int(pairs.max()) * 8
    peaks = []
    for size in sizes:
        task(problem, u, 0, size)  # warm any lazy state
        tracemalloc.start()
        try:
            task(problem, u, 0, size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < n_sources * 8 + node_bytes
    assert peaks[1] < pbbem.solver.workspace_doubles(problem) * 8 + block_bytes // 2


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_solvation_energy_against_naive_loop(scheme):
    """The tiled energy vs an explicit charge x source double loop: each
    charge's row of reaction_terms_at, under the solver's layout and one
    of several column tiles a charge, and the total."""
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
    total, rows = 0.0, []
    for x, q in zip(problem.charges.positions, problem.charges.charges):
        row = 0.0
        for j in range(src.shape[0]):
            k1, k2, _, _ = kernel_values_d(x - src[j], (0.0, 0.0, 1.0), snrm[j], MIXED)
            row += k1 * wdphi[j] + k2 * wphi[j]
            total += q * (k1 * wdphi[j] + k2 * wphi[j])
        rows.append(row)
    n = len(src)
    for tiles in (pbbem.solver._tile_layout(len(SCATTERED), n)[0],
                  np.array([[0, len(SCATTERED), c, min(c + 70, n)] for c in range(0, n, 70)])):
        got_rows = reaction_terms_at(SCATTERED.positions, src.T, snrm.T, wphi, wdphi,
                                     problem.origin, MIXED, tiles)
        for got_row, row in zip(got_rows, rows, strict=True):
            assert got_row == pytest.approx(row, rel=1e-13)
    expected = 0.5 * FOUR_PI * KCAL_MOL_PER_E2_ANG * total
    got = solvation_energy(problem, SurfaceSolution(phi, dphi, 0, 0.0))
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("shift", [(0.0, 0.0, 0.0), (100.0, -50.0, 30.0)],
                         ids=["origin", "moved"])
@pytest.mark.parametrize("params", SCREENED_AND_NOT, ids=["kappa>0", "kappa=0"])
@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_energy_keeps_its_digits_near_the_surface_and_off_the_origin(scheme, params, shift):
    """The energy takes r^2 = |x|^2 - 2 x.y + |y|^2 from a matrix product,
    which loses digits like eps (R / depth)^2 for a charge at that depth
    below a surface of radius R, and sums x.H - H' about the vertex
    centroid. A charge at 1% of R below a level-3 radius-2 surface, at the
    origin or moved by (100, -50, 30) A, stays within 5e-12 relative of
    the four-kernel sums (2.9e-13 measured, hobi moved at kappa > 0)."""
    mesh = icosahedral_sphere(3, radius=2.0)
    mesh = FlatMesh(vertices=mesh.vertices + shift, normals=mesh.normals, faces=mesh.faces)
    charges = ChargeSystem(positions=[0.99 * (mesh.vertices[0] - shift) + shift],
                           charges=[1.0])
    problem = discretize(mesh, params, charges, SolverConfig(scheme=scheme))
    t = problem.n_collocation
    u = np.random.default_rng(14).standard_normal(2 * t)
    phi, dphi = u[:t], u[t:]
    w = problem.reg_w
    wphi = (w * _node_sum(phi[problem.reg_nodes], problem.reg_bary)).reshape(-1)
    wdphi = (w * _node_sum(dphi[problem.reg_nodes], problem.reg_bary)).reshape(-1)
    (row,), _ = _reference_row_sums(
        charges.positions, np.zeros((1, 3)),
        problem.reg_pos.reshape(-1, 3), problem.reg_nrm.reshape(-1, 3),
        wphi, wdphi, params,
    )
    expected = 0.5 * FOUR_PI * KCAL_MOL_PER_E2_ANG * row
    got = solvation_energy(problem, SurfaceSolution(phi, dphi, 0, 0.0))
    assert got == pytest.approx(expected, rel=5e-12)


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
        er = params.eps2 / eps1
        alpha1, alpha2 = 0.5 * (1.0 + er), 0.5 * (1.0 + 1.0 / er)
        assert np.abs(rhs[:t] - 1.0 / (8.0 * np.pi * eps1) / alpha1).max() <= 1e-14
        assert np.abs(rhs[t:] + 1.0 / (16.0 * np.pi * eps1) / alpha2).max() <= 1e-14


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


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_energy_zero_charges(scheme):
    mesh = icosahedral_sphere(0)
    problem = discretize(mesh, WATER, NO_CHARGES, SolverConfig(scheme=scheme))
    t = problem.n_collocation
    solution = SurfaceSolution(np.ones(t), np.ones(t), 0, 0.0)
    assert solvation_energy(problem, solution) == 0.0


def test_energy_rejects_a_solution_of_another_problem(born_hobi_l2):
    """Traces of another length, a finer or a coarser problem's solution,
    raise a ValueError naming both lengths: a level-3 solution on the
    level-2 problem used to return -81.98085 kcal/mol (the right answer is
    -81.98132), and a shorter one an IndexError."""
    problem, solution = born_hobi_l2
    for n in (642, 42):
        for phi, dphi in ((np.ones(n), np.ones(n)), (solution.phi, np.ones(n))):
            with pytest.raises(ValueError, match=(
                rf"^expected traces of length 162, got phi of shape \({phi.size},\)"
                rf" and dphi_dn of shape \({n},\)$"
            )):
                solvation_energy(problem, SurfaceSolution(phi, dphi, 0, 0.0))


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_sweep_scratch_does_not_grow_with_the_mesh(scheme):
    """workspace_doubles' block term, sweep_buffers blocks of the largest
    tile, is the same at levels 3 and 5 (hobi: 642 and 10242 rows over
    5120 and 81920 sources; lobi: 1280 and 20480 faces): sweep_buffers
    TILE^2 values, where an 8-row strip over every source grew with N."""
    for params in SCREENED_AND_NOT:
        blocks = []
        for level in (3, 5):
            faces = 20 * 4**level
            sizes = (faces // 2 + 2, 4 * faces) if scheme == "hobi" else (faces, None)
            blocks.append(sweep_buffers(params) * int(pbbem.solver._tile_layout(*sizes)[1].max()))
        assert blocks == [sweep_buffers(params) * TILE**2] * 2


def test_tile_layout_gives_a_short_axis_long_tiles():
    """A short row axis gets wide tiles and a short column axis tall ones,
    and no tile holds more than TILE^2 pairs. At the benchmark workloads'
    sizes the matvec (hobi 642 rows x 5120 sources, lobi 5120 faces), the
    energy (1 or 2000 charges x 5120 sources) and the 2000-charge RHS (642
    points x 2000 charges) keep tiles of min(TILE, t) rows and TILE^2 //
    rows columns, while a one-charge RHS is one tile."""
    for t, n in ((642, 5120), (5120, None), (1, 5120), (2000, 5120), (642, 2000)):
        h = min(TILE, t)
        m, w = (t, h) if n is None else (n, TILE * TILE // h)
        expected = [[s, min(s + h, t), c, min(c + w, m)]
                    for s in range(0, t, h) for c in range(0 if n else s, m, w)]
        assert pbbem.solver._tile_layout(t, n)[0].tolist() == expected
    for t in (642, 5120):
        assert pbbem.solver._tile_layout(t, 1)[0].tolist() == [[0, t, 0, 1]]
    sizes = (1, 2, 7, 100, 191, 192, 193, 500, 5000)
    for t in sizes:
        for n in (None, *sizes):
            tiles, pairs, _ = pbbem.solver._tile_layout(t, n)
            m = t if n is None else n
            assert pairs.max() <= TILE * TILE
            assert tiles[:, 0].min() == tiles[:, 2].min() == 0
            assert tiles[:, 1].max() == t and tiles[:, 3].max() == m
            if n is not None:  # every pair once
                assert pairs.sum() == t * n


def test_strip_layout_without_sources_or_rows():
    """No sources (or an empty ChargeSystem's RHS): no tile, and every
    chunk is empty. No rows (an empty energy): no tile."""
    tiles, pairs, chunks = pbbem.solver._tile_layout(642, 0)
    assert tiles.shape == (0, 4) and pairs.size == 0
    assert list(chunks) == [0] * (STRIP_CHUNKS + 1)
    for n in (None, 5120):
        tiles, pairs, _ = pbbem.solver._tile_layout(0, n)
        assert tiles.shape == (0, 4) and pairs.size == 0


# ---------------------------------------------------------------------------
# GMRES


def _perturbed_identity(n, seed, spread):
    """(a, b, config): I plus spread times a seeded normal matrix, tolerance 1e-12."""
    rng = np.random.default_rng(seed)
    a = np.eye(n) + spread * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    return a, b, SolverConfig(tolerance=1e-12, workers=1)


def _two_clusters(zero_half):
    """(a, b, config): the jump coefficients of eps 1/80 on the diagonal,
    40.5 and 0.506, and small random coupling, so two eigenvalue clusters
    about 80x apart; b's second half is zero if zero_half."""
    n = 10
    rng = np.random.default_rng(21)
    coupling = 0.02 * rng.standard_normal((2 * n, 2 * n))
    a = np.diag(np.repeat([40.5, 0.50625], n)) + coupling
    b = rng.standard_normal(2 * n)
    if zero_half:
        b[n:] = 0.0
    return a, b, SolverConfig(tolerance=1e-8, workers=1)


def test_gmres_solves_dense_example():
    a, b, config = _perturbed_identity(8, seed=3, spread=0.3)
    n = b.size
    sol = gmres_solve(lambda v: a @ v, b, config)
    exact = np.linalg.solve(a, b)
    assert np.abs(sol.vector - exact).max() <= 1e-9
    assert sol.iterations <= n
    assert sol.residual <= 1e-12


def test_gmres_identity_converges_in_one_step():
    b = np.array([1.0, -2.0, 0.5, 3.0])
    sol = gmres_solve(lambda v: v, b, SolverConfig(workers=1))
    assert np.array_equal(sol.vector, b)
    assert sol.iterations == 1


def test_one_cycle_solve_spends_one_matvec_per_iteration():
    """The zero start vector costs no matvec, and the solve ends on the
    Arnoldi residual, not on another one. solve() reports the operator's
    own count."""
    mesh = icosahedral_sphere(1, radius=2.0)
    config = SolverConfig(scheme="hobi", workers=1)
    problem = discretize(mesh, WATER, CENTERED_UNIT, config)
    sol = solve(problem, config)
    assert sol.matvecs == sol.iterations
    assert gmres_solve(lambda v: v, assemble_rhs(problem), config).matvecs is None


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_solve_ends_on_the_arnoldi_residual(scheme):
    """At tolerance 1e-10 a solve spends one matvec per iteration; the
    returned vector's true per-equation residual, from one extra matvec,
    is within the tolerance, and the reported residual matches it to
    rounding. 1 and 2 workers report the same bits."""
    config = SolverConfig(scheme=scheme, tolerance=1e-10, workers=1)
    problem = discretize(icosahedral_sphere(1, radius=2.0), MIXED, SCATTERED, config)
    sol = solve(problem, config)
    assert sol.matvecs == sol.iterations
    b = assemble_rhs(problem)
    with make_operator(problem, SolverConfig(workers=1)) as op:
        r = b - op(sol.vector)
    T = problem.n_collocation
    true = max(
        np.linalg.norm(r[h]) / (np.linalg.norm(b[h]) or np.linalg.norm(b))
        for h in (slice(0, T), slice(T, 2 * T))
    )
    assert true <= config.tolerance
    # abs is pinned: approx's default 1e-12 would exceed both residuals
    assert sol.residual == pytest.approx(true, rel=1e-6, abs=1e-15)
    if HAS_FORK:
        pooled_config = SolverConfig(scheme=scheme, tolerance=1e-10, workers=2)
        pooled = solve(problem, pooled_config)
        assert pooled.residual == sol.residual
        assert np.array_equal(pooled.vector, sol.vector)


@pytest.mark.parametrize("zero_half", [False, True])
def test_gmres_residual_is_per_equation(zero_half):
    """The reported residual is max_k ||b_k - (Ax)_k|| / ||b_k||, within
    the tolerance; a zero b_k is taken against ||b||. With both halves
    nonzero it is never below the combined ||b - Ax|| / ||b||."""
    a, b, config = _two_clusters(zero_half)
    n = b.size // 2
    sol = gmres_solve(lambda v: a @ v, b, config)
    r = b - a @ sol.vector
    scales = np.linalg.norm(b[:n]), np.linalg.norm(b if zero_half else b[n:])
    expected = max(np.linalg.norm(r[:n]) / scales[0], np.linalg.norm(r[n:]) / scales[1])
    # the rounding floor of b - A x: an entry sums 2n products, so its
    # error is within 2n eps (|b| + |A| |x|), ~1e-14 here; the two sides
    # differ by 5e-16 (1e-6 relative), since GMRES forms r from its
    # Arnoldi relation
    floor = 2 * n * np.finfo(float).eps * (np.abs(b) + np.abs(a) @ np.abs(sol.vector))
    slack = max(np.linalg.norm(floor[:n]) / scales[0], np.linalg.norm(floor[n:]) / scales[1])
    assert sol.residual == pytest.approx(expected, rel=0.0, abs=slack)
    assert 0.0 < sol.residual <= config.tolerance
    if not zero_half:
        assert np.linalg.norm(r) / np.linalg.norm(b) <= sol.residual


def test_gmres_stops_at_the_first_step_meeting_the_per_equation_test():
    """With b's second half a tenth of _two_clusters', the GMRES iterate
    meets max_k ||r_k|| / ||b_k|| <= tol at step 12 (7.6e-7 at tol 1e-6),
    while the whole-residual bound ||r|| <= tol min_k ||b_k|| needs step
    13. Each step's residual comes from a least-squares solve on an
    explicit orthonormal Krylov basis. The solve stops at step 12, with
    one operator call per iteration."""
    a, b, config = _two_clusters(False)
    n = b.size // 2
    b[n:] *= 0.1
    tol = 1e-6
    scales = np.linalg.norm(b[:n]), np.linalg.norm(b[n:])
    per_equation, whole = [], []
    basis = [b / np.linalg.norm(b)]
    while not whole or whole[-1] > tol:
        q = np.array(basis).T
        r = b - a @ (q @ np.linalg.lstsq(a @ q, b)[0])
        per_equation.append(
            max(np.linalg.norm(r[:n]) / scales[0], np.linalg.norm(r[n:]) / scales[1])
        )
        whole.append(np.linalg.norm(r) / min(scales))
        w = a @ basis[-1]
        for _ in range(2):  # twice, so the basis stays orthonormal to rounding
            w = w - q @ (q.T @ w)
        basis.append(w / np.linalg.norm(w))
    first = 1 + next(k for k, rel in enumerate(per_equation) if rel <= tol)
    assert len(whole) == first + 1  # the construction separates the two tests

    calls = []

    def counted(v):
        calls.append(1)
        return a @ v

    sol = gmres_solve(counted, b, replace(config, tolerance=tol))
    assert sol.iterations == first == len(calls)
    assert sol.residual == pytest.approx(per_equation[first - 1], rel=1e-6)


def test_screened_lobi_sphere_matvec_count():
    """Pinned: a centred charge in the radius-2, level-2 lobi sphere at
    kappa 0.125 converges in 4 matvecs. The whole-residual bound ||r|| <=
    tol min_k ||b_k|| would spend a fifth."""
    config = SolverConfig(scheme="lobi", workers=1)
    params = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.125)
    problem = discretize(icosahedral_sphere(2, radius=2.0), params, CENTERED_UNIT, config)
    sol = solve(problem, config)
    assert sol.matvecs == sol.iterations == 4
    assert sol.residual <= config.tolerance


@pytest.mark.parametrize(
    "system", ["dense", "two-clusters", "two-clusters-zero-half", "born-hobi"]
)
def test_gmres_equals_the_givens_loop(system):
    """Each step's y from a least-squares solve on the one Hessenberg
    matrix ends the solve at the step where the Givens-rotated loop's
    back-substituted y does, on the same per-equation test: the same
    iteration count, and x equal to 1e-12 relative."""
    if system == "born-hobi":
        config = SolverConfig(scheme="hobi", workers=1)
        problem = discretize(icosahedral_sphere(1, radius=2.0), WATER, CENTERED_UNIT, config)
        apply, b = make_operator(problem, config), assemble_rhs(problem)
    else:
        a, b, config = {
            "dense": lambda: _perturbed_identity(8, seed=3, spread=0.3),
            "two-clusters": lambda: _two_clusters(False),
            "two-clusters-zero-half": lambda: _two_clusters(True),
        }[system]()
        apply = lambda v: a @ v  # noqa: E731
    sol = gmres_solve(apply, b, config)
    oracle = gmres_givens(apply, b, config)
    assert sol.iterations == oracle.iterations
    gap = np.abs(sol.vector - oracle.vector).max()
    assert gap <= 1e-12 * np.abs(oracle.vector).max()


def test_gmres_zero_rhs():
    sol = gmres_solve(lambda v: v, np.zeros(6), SolverConfig(workers=1))
    assert np.all(sol.vector == 0.0)
    assert sol.iterations == 0
    assert sol.residual == 0.0


def test_gmres_odd_length_rejected():
    with pytest.raises(ValueError, match="even"):
        gmres_solve(lambda v: v, np.ones(5), SolverConfig(workers=1))


def test_gmres_nonconvergence_carries_best_residual():
    """A system that needs more than GMRES_STEPS steps raises
    GmresNonConvergence after exactly GMRES_STEPS matvecs, carrying the
    smallest residual of any step, as does the Givens-rotated loop."""
    rng = np.random.default_rng(5)
    n = 2 * GMRES_STEPS
    a = np.eye(n) + 2.5 * rng.standard_normal((n, n))  # genuinely hard
    b = rng.standard_normal(n)
    calls = []

    def counted(v):
        calls.append(1)
        return a @ v

    config = SolverConfig(workers=1)
    with pytest.raises(GmresNonConvergence, match=rf"^no convergence \(matvecs: {GMRES_STEPS},"
                       ) as info:
        gmres_solve(counted, b, config)
    assert type(info.value) is GmresNonConvergence
    assert len(calls) == GMRES_STEPS
    assert config.tolerance < info.value.best_residual < 1.0
    with pytest.raises(GmresNonConvergence) as oracle:
        gmres_givens(lambda v: a @ v, b, config)
    assert info.value.best_residual == pytest.approx(oracle.value.best_residual, rel=1e-9)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_gmres_stops_at_first_non_finite_residual(value):
    """A non-finite operator costs one matvec and raises GmresBreakdown,
    never the LinAlgError of a least-squares solve on non-finite input; a
    non-finite right-hand side costs none."""
    calls = []

    def bad_operator(v):
        calls.append(1)
        return np.full_like(v, value)

    b = np.ones(6)
    with pytest.raises(GmresBreakdown, match=r"matvecs: 1,"):
        gmres_solve(bad_operator, b, SolverConfig(workers=1))
    assert len(calls) == 1
    calls.clear()
    b[3] = value
    with pytest.raises(GmresBreakdown, match=r"matvecs: 0,"):
        gmres_solve(bad_operator, b, SolverConfig(workers=1))
    assert calls == []


def test_gmres_fails_after_one_cycle_without_progress():
    """An operator that returns zero makes the Hessenberg matrix
    rank-deficient, which no later step could mend: GmresBreakdown after
    1 matvec, from either loop."""
    calls = []

    def zero(v):
        calls.append(1)
        return 0 * v

    for loop in (gmres_solve, gmres_givens):
        calls.clear()
        with pytest.raises(GmresBreakdown,
                           match=r"^rank-deficient Hessenberg matrix \(matvecs: 1,"):
            loop(zero, np.ones(6), SolverConfig(workers=1))
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# partitioning and parallel determinism


def test_partition_examples():
    assert _partition(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert _partition(7, 1) == [(0, 7)]
    assert _partition(3, 5) == [(0, 1), (1, 2), (2, 3), (3, 3), (3, 3)]
    assert _partition(0, 2) == [(0, 0), (0, 0)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=200),
    w=st.integers(min_value=1, max_value=17),
)
def test_partition_property(n, w):
    ranges = _partition(n, w)
    assert len(ranges) == w
    assert ranges[0][0] == 0
    assert ranges[-1][1] == n
    sizes = []
    for (lo, hi), (lo2, _) in zip(ranges, ranges[1:] + [(n, n)]):
        assert lo <= hi
        assert hi == lo2
        sizes.append(hi - lo)
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_parallel_matvec_bitwise_deterministic(monkeypatch):
    """The partitioned operator must reproduce the serial sweep bitwise.
    With the default TILE, hobi level 2 (162 rows over 1280 sources) has
    5 tiles of 162 x 227 and one of 162 x 145, and lobi level 2 (320
    faces) 3 tiles; levels 1 have one tile each. With TILE = 24 (forked
    workers inherit it) the same meshes have 10 to 378 tiles, so chunks
    hold several and row tiles span chunks. Both schemes at kappa > 0 and
    at kappa = 0."""
    rng = np.random.default_rng(6)
    for tile, scheme, level, params in (
        (tile, scheme, level, params)
        for tile in (TILE, 24) for scheme in ("hobi", "lobi") for level in (1, 2)
        for params in SCREENED_AND_NOT
    ):
        monkeypatch.setattr(pbbem.solver, "TILE", tile)
        problem = discretize(
            icosahedral_sphere(level), params, CENTERED_UNIT, SolverConfig(scheme=scheme)
        )
        u = rng.standard_normal(problem.n_unknowns)
        serial = _apply(problem, u)
        for workers in (2, 4, 8, 16):
            config = SolverConfig(scheme=scheme, workers=workers)
            with make_operator(problem, config) as op:
                assert np.abs(op(u) - serial).max() == 0.0


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_energy_bits_do_not_follow_the_worker_count():
    """The energy of 40 charges, one tile of matrix products, has the
    same bits after solves on 1, 2 and 4 workers, at kappa 0 and > 0."""
    rng = np.random.default_rng(9)
    charges = ChargeSystem(rng.uniform(-1.0, 1.0, (40, 3)), rng.uniform(-1.0, 1.0, 40))
    for params in SCREENED_AND_NOT:
        problem = discretize(icosahedral_sphere(1, radius=2.0), params, charges, SolverConfig())
        energies = {
            solvation_energy(problem, solve(problem, SolverConfig(workers=workers)))
            for workers in (1, 2, 4)
        }
        assert len(energies) == 1


def _counting_forks(monkeypatch) -> list[int]:
    """Replace os.fork by one that records, in this process, the pid of
    each child it starts."""
    pids, real = [], os.fork

    def counting():
        pids.append(real())
        return pids[-1]

    monkeypatch.setattr(os, "fork", counting)
    return pids


def _reaped(pid: int) -> bool:
    """Whether pid is no child of this process any more, running or not."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _energy_case(params):
    """A level-1 sphere of radius 2 with 400 charges inside radius 1, three
    row tiles of the energy's layout (192, 192 and 16 charges), and traces
    that stand for a solution."""
    rng = np.random.default_rng(23)
    direction = rng.standard_normal((400, 3))
    positions = direction / np.linalg.norm(direction, axis=1)[:, None] * rng.uniform(0, 1, (400, 1))
    charges = ChargeSystem(positions, rng.uniform(-1.0, 1.0, 400))
    problem = discretize(icosahedral_sphere(1, radius=2.0), params, charges, SolverConfig())
    t = problem.n_collocation
    return problem, SurfaceSolution(rng.standard_normal(t), rng.standard_normal(t), 0, 0.0)


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
@pytest.mark.parametrize("params", SCREENED_AND_NOT, ids=["kappa>0", "kappa=0"])
def test_forked_energy_has_the_serial_sweeps_bits(monkeypatch, params):
    """400 charges over three row tiles: on 1, 2 and 4 workers the energy
    sweeps them in 1, 2 and 3 processes (the parent and 0, 1 and 2 forked
    children, each reaped by the call), and its bits are those of one
    reaction_terms_at sweep over every tile, q times the rows added in
    charge order."""
    problem, solution = _energy_case(params)
    charges = problem.charges
    tiles, _, _ = pbbem.solver._tile_layout(len(charges), problem.reg_w.size)
    assert sorted(set(tiles[:, 0].tolist())) == [0, 192, 384]
    rows = reaction_terms_at(
        charges.positions, problem.reg_pos.reshape(-1, 3).T, problem.reg_nrm.reshape(-1, 3).T,
        *pbbem.solver._weights(problem, solution.phi, solution.dphi_dn),
        problem.origin, params, tiles,
    )
    total = 0.0
    for q, row in zip(charges.charges, rows):
        total += q * row
    serial = 0.5 * FOUR_PI * KCAL_MOL_PER_E2_ANG * total
    pids = _counting_forks(monkeypatch)
    for workers, children in ((1, 0), (2, 1), (4, 2)):
        start = len(pids)
        energy = solvation_energy(problem, solution, SolverConfig(workers=workers))
        assert energy == serial
        assert len(pids) - start == children
        assert all(_reaped(pid) for pid in pids) and _childless()


def _in_a_child(monkeypatch, act):
    """Make the energy's reaction_terms_at call act() first in a forked
    child, and sweep as usual in this process."""
    parent, real = os.getpid(), pbbem.solver.reaction_terms_at

    def sweep(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    monkeypatch.setattr(pbbem.solver, "reaction_terms_at", sweep)


def _raise_boom():
    raise ValueError("boom")


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
@pytest.mark.parametrize(
    "act, raised",
    [(lambda: os.kill(os.getpid(), signal.SIGKILL),
      (WorkerDied, "^energy worker died: worker 0 was killed by signal 9$")),
     (lambda: os._exit(3), (WorkerDied, "^energy worker died: worker 0 exited with status 3$")),
     (_raise_boom, (ValueError, "^boom$"))],
    ids=["killed", "exited", "raised"],
)
@pytest.mark.parametrize("params", SCREENED_AND_NOT, ids=["kappa>0", "kappa=0"])
def test_forked_energy_raises_what_its_children_met(monkeypatch, params, act, raised):
    """A child killed by a signal or ending without its rows raises
    WorkerDied naming it, and an exception raised in a child is raised
    again in the parent; either way every child is reaped by the call,
    and the next energy, with children that sweep, has the serial bits."""
    problem, solution = _energy_case(params)
    serial = solvation_energy(problem, solution, SolverConfig(workers=1))
    _in_a_child(monkeypatch, act)
    pids = _counting_forks(monkeypatch)
    for workers in (2, 4):
        start = time.monotonic()
        with pytest.raises(raised[0], match=raised[1]):
            solvation_energy(problem, solution, SolverConfig(workers=workers))
        assert time.monotonic() - start < 5.0
        assert all(_reaped(pid) for pid in pids) and _childless()
    assert len(pids) == 3
    monkeypatch.undo()
    assert solvation_energy(problem, solution, SolverConfig(workers=4)) == serial
    assert _childless()


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_parallel_matvec_tolerates_empty_ranges():
    """More workers than non-empty chunks: hobi's 12 vertices and lobi's 20
    faces each form one tile, so 15 of the 16 chunks are empty."""
    mesh = icosahedral_sphere(0)
    for scheme in ("hobi", "lobi"):
        problem = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme=scheme))
        u = np.linspace(-1.0, 1.0, problem.n_unknowns)
        serial = _apply(problem, u)
        with make_operator(problem, SolverConfig(workers=16)) as op:
            assert np.abs(op(u) - serial).max() == 0.0


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_pool_starts_at_most_one_worker_per_chunk(monkeypatch):
    """A worker beyond the STRIP_CHUNKS-th would only hold an empty range:
    20 requested workers start at most 16 processes and give the serial bits."""
    problem = discretize(icosahedral_sphere(1), MIXED, CENTERED_UNIT, SolverConfig())
    u = np.linspace(-1.0, 1.0, problem.n_unknowns)
    serial = _apply(problem, u)
    pids = _counting_forks(monkeypatch)
    with make_operator(problem, SolverConfig(workers=20)) as op:
        assert np.array_equal(op(u), serial)
        assert 1 < len(pids) <= STRIP_CHUNKS
    assert all(_reaped(pid) for pid in pids)


def _counting_plans(monkeypatch):
    """Replace the sweep's plan builder by one that records, in this
    process, the problem of each plan it builds."""
    builds, real = [], pbbem.solver._sweep_plan

    def counting(problem):
        builds.append(problem)
        return real(problem)

    monkeypatch.setattr(pbbem.solver, "_sweep_plan", counting)
    return builds


@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_serial_operator_builds_its_plan_once(monkeypatch, scheme):
    """Opening a serial operator builds nothing; its first matvec builds
    the sweep's plan and the next four sweep from the same one, each with
    a fresh operator's bits."""
    problem = discretize(icosahedral_sphere(1), MIXED, NO_CHARGES, SolverConfig(scheme=scheme))
    vectors = np.random.default_rng(15).standard_normal((5, problem.n_unknowns))
    expected = [_apply(problem, u) for u in vectors]
    builds = _counting_plans(monkeypatch)
    with make_operator(problem, SolverConfig(workers=1)) as op:
        assert builds == []
        for u, bits in zip(vectors, expected):
            assert np.array_equal(op(u), bits)
    assert builds == [problem]


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_pooled_operator_parent_builds_no_plan(monkeypatch):
    """A pool's workers each build their own plan as they start; the
    parent builds none, over 3 matvecs that keep the serial bits."""
    problem = discretize(icosahedral_sphere(2), MIXED, NO_CHARGES, SolverConfig(scheme="lobi"))
    u = np.random.default_rng(16).standard_normal(problem.n_unknowns)
    serial = _apply(problem, u)
    builds = _counting_plans(monkeypatch)
    with make_operator(problem, SolverConfig(workers=2)) as op:
        for _ in range(3):
            assert np.array_equal(op(u), serial)
    assert builds == []


def test_operators_on_one_problem_keep_their_own_layouts(monkeypatch):
    """Two serial operators on one problem, opened and first applied under
    TILE = 24 and the default TILE, each keep their own layout's bits,
    alternately applied after TILE is back at its default: a plan belongs
    to its operator, not to the problem."""
    problem = discretize(icosahedral_sphere(2), MIXED, NO_CHARGES, SolverConfig(scheme="hobi"))
    u = np.random.default_rng(17).standard_normal(problem.n_unknowns)
    operators, bits = [], []
    for tile in (24, TILE):
        monkeypatch.setattr(pbbem.solver, "TILE", tile)
        operators.append(make_operator(problem, SolverConfig(workers=1)))
        bits.append(operators[-1](u))
    assert not np.array_equal(*bits)  # the two layouts round differently
    for _ in range(2):
        for op, first in zip(operators, bits):
            assert np.array_equal(op(u), first)
    monkeypatch.setattr(pbbem.solver, "TILE", 24)
    assert np.array_equal(_apply(problem, u), bits[0])


def _exit_worker(*args):
    os._exit(1)


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_dead_worker_raises_instead_of_hanging(monkeypatch, scheme):
    """A worker that exits mid-task fails the matvec within seconds."""
    problem = discretize(
        icosahedral_sphere(1), WATER, CENTERED_UNIT, SolverConfig(scheme=scheme)
    )
    monkeypatch.setattr(pbbem.solver, "_worker_part", _exit_worker)
    pids = _counting_forks(monkeypatch)
    with make_operator(problem, SolverConfig(workers=2)) as op:
        start = time.monotonic()
        with pytest.raises(WorkerDied, match="^matvec worker died: worker 0 exited with status 1$"):
            op(np.ones(problem.n_unknowns))
        assert time.monotonic() - start < 5.0
    assert len(pids) == 2 and all(_reaped(pid) for pid in pids)
    assert _childless()


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_matvec_on_a_broken_pool_raises_worker_died(monkeypatch):
    """Once a worker died the operator forks no new one: a second matvec
    raises WorkerDied with the first one's message, and close() answers
    serially again."""
    problem = discretize(icosahedral_sphere(1), WATER, CENTERED_UNIT, SolverConfig(scheme="lobi"))
    u = np.ones(problem.n_unknowns)
    serial = _apply(problem, u)
    monkeypatch.setattr(pbbem.solver, "_worker_part", _exit_worker)
    pids = _counting_forks(monkeypatch)
    with make_operator(problem, SolverConfig(workers=2)) as op:
        for _ in range(2):
            with pytest.raises(WorkerDied, match="^matvec worker died: worker 0 exited with status 1$"):
                op(u)
    assert len(pids) == 2 and all(_reaped(pid) for pid in pids)
    assert _childless()
    assert np.array_equal(op(u), serial)


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_killed_worker_names_its_signal(monkeypatch):
    """A worker killed between matvecs fails the next one within seconds
    with WorkerDied naming the signal, and every later one alike."""
    problem = discretize(icosahedral_sphere(1), MIXED, CENTERED_UNIT, SolverConfig(scheme="hobi"))
    u = np.random.default_rng(18).standard_normal(problem.n_unknowns)
    serial = _apply(problem, u)
    pids = _counting_forks(monkeypatch)
    with make_operator(problem, SolverConfig(workers=2)) as op:
        assert np.array_equal(op(u), serial)
        os.kill(pids[1], signal.SIGKILL)
        start = time.monotonic()
        for _ in range(2):
            with pytest.raises(WorkerDied, match="^matvec worker died: worker 1 was killed by signal 9$"):
                op(u)
        assert time.monotonic() - start < 5.0
    assert len(pids) == 2 and all(_reaped(pid) for pid in pids)
    assert np.array_equal(op(u), serial)


class _TwoArguments(Exception):
    """An exception that pickles but cannot be unpickled: its one stored
    argument does not fill its two parameters."""

    def __init__(self, first, second):
        super().__init__(first)


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
@pytest.mark.parametrize(
    "error, raised",
    [(ValueError("boom"), (ValueError, "^boom$")),
     (_TwoArguments("boom", 2), (TypeError, "second"))],
    ids=["ValueError", "unpicklable"],
)
def test_worker_exception_is_raised_in_the_parent(monkeypatch, error, raised):
    """An exception in one worker's task is raised in the parent with its
    type and message, and the next matvec still gets every worker's own
    reply. One the parent cannot read ends the workers, and the next matvec
    forks new ones."""
    problem = discretize(icosahedral_sphere(1), MIXED, CENTERED_UNIT, SolverConfig(scheme="lobi"))
    u = np.random.default_rng(19).standard_normal(problem.n_unknowns)
    serial = _apply(problem, u)
    real = pbbem.solver._worker_part

    def failing(plan, v, lo, hi):
        if v[0] == 0.0 and lo > 0:
            raise error
        return real(plan, v, lo, hi)

    monkeypatch.setattr(pbbem.solver, "_worker_part", failing)
    pids = _counting_forks(monkeypatch)
    with make_operator(problem, SolverConfig(workers=2)) as op:
        with pytest.raises(raised[0], match=raised[1]):
            op(np.zeros(problem.n_unknowns))
        assert np.array_equal(op(u), serial)
    assert len(pids) == (2 if raised[0] is ValueError else 4)
    assert all(_reaped(pid) for pid in pids)


BLAS_NAMES = {"dot", "matmul", "einsum", "linalg"}


def _blas_uses(func) -> list[str]:
    """'module.function: construct' for every `@`, dot, matmul, einsum or
    linalg in the pbbem functions that func reaches by name."""
    seen, todo, found = set(), [func], []
    while todo:
        func = todo.pop()
        name = f"{func.__module__}.{func.__qualname__}"
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult
            ):
                found.append(f"{name}: @")
            word = getattr(node, "attr", None) or getattr(node, "id", None)
            if word in BLAS_NAMES:
                found.append(f"{name}: {word}")
            callee = func.__globals__.get(word) if isinstance(node, ast.Name) else None
            if inspect.isfunction(callee) and callee.__module__.startswith("pbbem"):
                todo.append(callee)
    return found


def test_worker_task_blas_use_is_the_moment_product():
    """Workers fork from a parent that may have started BLAS threads. The
    BLAS calls a worker makes are a strip's r^2 and d.nx products,
    (rows, 5) @ (5, n) and (rows, 4) @ (4, n), and its products of kernel
    factors with source moments, (k, n) @ (n, rows) or, for lobi's swapped
    pairs, (k, rows) @ (rows, n), whose bits do not follow the BLAS thread
    count (the tests below); no linalg, einsum or dot (README, Determinism
    and parallelism)."""
    assert _blas_uses(pbbem.solver.gmres_solve)  # the walk sees BLAS uses
    assert _blas_uses(pbbem.solver._worker_part) == [
        "pbbem.kernels.kernel_sums: matmul"
    ] * 2 + ["pbbem.kernels._moment_products: matmul"] * 5


def test_energy_blas_use_is_its_strip_products():
    """The energy's BLAS calls, made in the parent, are a tile's r^2
    product and its row sums' products with the sources' moments and
    wdphi (their bits under 1 and 2 BLAS threads: next tests)."""
    assert sorted(_blas_uses(pbbem.solver.solvation_energy)) == [
        "pbbem.kernels.reaction_terms_at: matmul"
    ] * 3


def test_rhs_blas_use_is_its_tile_products():
    """The RHS's BLAS calls, made in the parent, are a tile's r^2 and d.nx
    products and its two products with the charges (their bits under 1
    and 2 BLAS threads: next tests)."""
    assert _blas_uses(pbbem.solver.assemble_rhs) == ["pbbem.kernels.source_terms_at: matmul"] * 4


BLAS_THREADS_SCRIPT = """
import hashlib
import sys
import numpy as np
from pbbem.kernels import PhysicalParams
from pbbem.mesh import ChargeSystem, icosahedral_sphere
from pbbem.solver import (SolverConfig, SurfaceSolution, assemble_rhs, discretize,
                          make_operator, solvation_energy)

scheme, kappa, level = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
params = PhysicalParams(eps1=2.0, eps2=80.0, kappa=kappa)
rng = np.random.default_rng(4)
charges = ChargeSystem(rng.uniform(-0.5, 0.5, (400, 3)), rng.uniform(-1.0, 1.0, 400))
problem = discretize(icosahedral_sphere(level), params, charges, SolverConfig(scheme=scheme))
u = np.random.default_rng(5).standard_normal(problem.n_unknowns)
with make_operator(problem, SolverConfig(workers=1)) as op:
    serial = op(u)
a = np.random.default_rng(6).standard_normal((600, 600))
a @ a  # large enough for OpenBLAS to run on every thread it may use
with make_operator(problem, SolverConfig(workers=2)) as op:
    pooled = op(u)
t = problem.n_collocation
energy = solvation_energy(problem, SurfaceSolution(u[:t], u[t:], 0, 0.0), SolverConfig(workers=2))
rhs = assemble_rhs(problem)
print(*(hashlib.sha256(np.asarray([] if x is None else x).tobytes()).hexdigest()
        for x in (serial, pooled, energy, rhs, problem.reg_pos, problem.reg_nrm,
                  problem.reg_w, problem.near_coef)))
"""


def _blas_thread_digests(scheme: str, kappa: float, level: int) -> list[list[str]]:
    """The digests BLAS_THREADS_SCRIPT prints under OPENBLAS_NUM_THREADS=1
    and =2: discretize on the level-`level` sphere with the serial matvec,
    the 2-worker one, and the energy of 400 scattered charges (three row
    tiles, swept by the parent and a child it forks after the
    multi-threaded product) and their RHS, each time, then discretize's own
    frames, weights and near coefficients (lobi's near_coef is None)."""
    package_root = str(Path(pbbem.solver.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_SCRIPT, scheme, str(kappa), str(level)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    return digests


def _assert_blas_thread_digests_agree(scheme: str, kappa: float, level: int = 2):
    one, two = _blas_thread_digests(scheme, kappa, level)
    assert one == two and one[0] == one[1] and len(one) == 8


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_unscreened_hobi_matvec_bits_do_not_follow_blas_threads():
    """The level-2 kappa = 0 hobi matvec, serial and with 2 workers forked
    after the parent ran a multi-threaded product, and the energy and the
    RHS the parent then sums, have the same bits under OPENBLAS_NUM_THREADS=1 and
    =2."""
    _assert_blas_thread_digests_agree("hobi", 0.0)


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_screened_hobi_matvec_bits_do_not_follow_blas_threads():
    """At kappa > 0 the near table's K1 and K4 coefficients are nonzero,
    and discretize forms every frame and near coefficient with BLAS
    products: on the level-2 and level-3 spheres the matvec, serial and
    pooled, the energy, whose K1 product runs only here, the RHS and
    discretize's own arrays have the same bits under OPENBLAS_NUM_THREADS=1
    and =2."""
    for level in (2, 3):
        _assert_blas_thread_digests_agree("hobi", 0.125, level)


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
@pytest.mark.parametrize("kappa", [0.0, 0.125])
def test_lobi_matvec_bits_do_not_follow_blas_threads(kappa):
    """lobi's off-diagonal tiles also take the transposed products of the
    swapped pairs, (k, rows) @ (rows, cols): the matvec, serial and pooled,
    the energy and the RHS have the same bits under OPENBLAS_NUM_THREADS=1 and =2,
    on the level-2 mesh (T = 320: tiles of 192 and 128 rows) and on the
    level-3 one (T = 1280: 21 of its 28 tiles are full TILE x TILE
    squares)."""
    for level in (2, 3):
        _assert_blas_thread_digests_agree("lobi", kappa, level)


@pytest.mark.parametrize("tile", ["default", "none"])
@pytest.mark.parametrize("n", [1, 7, 20, 321, 700])
def test_strips_tile_rows_and_evaluate_each_pair_once(monkeypatch, n, tile):
    """Run the chunk task on n distinct points and record every pair the
    kernel evaluates; tile "none" replaces the default TILE by 8, so every
    n but 1 and 7 spans several tiles. The row tiles cut [0, n) into runs
    of TILE rows (the last may have fewer), and the tiles are the squares
    (I, J >= I) of those runs, each of at most TILE^2 pairs. Each ordered
    pair (i, j), i != j, takes its values from exactly one evaluation: its
    own, or that of (j, i) when i's row tile lies past j's. So each
    unordered pair is evaluated once, except inside a diagonal tile, where
    each orientation is evaluated on its own."""
    if tile == "none":
        monkeypatch.setattr(pbbem.solver, "TILE", 8)
    size = pbbem.solver.TILE
    tiles, pairs, chunks = pbbem.solver._tile_layout(n)
    bounds = np.append(np.arange(0, n, size), n)
    rows = np.diff(bounds)
    assert np.all(rows[:-1] == size) and 1 <= rows[-1] <= size
    blocks = [(s, e, c, d) for i, (s, e) in enumerate(zip(bounds[:-1], bounds[1:]))
              for c, d in zip(bounds[i:-1], bounds[i + 1 :])]
    assert tiles.tolist() == [list(b) for b in blocks]
    assert np.all(pairs <= size * size)
    assert chunks[0] == 0 and chunks[-1] == len(tiles) and np.all(np.diff(chunks) >= 0)

    points = np.column_stack([np.arange(n, dtype=float), np.zeros(n), np.ones(n)])
    normals = points / np.linalg.norm(points, axis=1)[:, None]
    mesh = FlatMesh(vertices=points, normals=points, faces=np.zeros((0, 3), int))
    problem = pbbem.solver.DiscretizedProblem(
        mesh=mesh, params=MIXED, charges=NO_CHARGES, scheme="lobi",
        colloc_pos=points, colloc_nrm=normals,
        reg_pos=points[:, None], reg_nrm=normals[:, None], reg_w=np.ones((n, 1)),
        reg_bary=np.ones((1, 1)), reg_nodes=np.arange(n)[:, None], origin=points.mean(axis=0),
    )
    evaluated = np.zeros((n, n), int)
    real_kernel_sums = pbbem.solver.kernel_sums

    def recording(scratch, targets, sources, *args, mask, **kw):
        # the rows [|x|^2, x, 1] and columns [1, -2 y, |y|^2] hold positions about the origin
        i = np.rint(targets[0][:, 1] + problem.origin[0]).astype(int)
        j = np.rint(sources[0][1] * -0.5 + problem.origin[0]).astype(int)
        seen = np.ones((i.size, j.size), int)
        seen.reshape(-1)[mask] = 0
        evaluated[np.ix_(i, j)] += seen
        return real_kernel_sums(scratch, targets, sources, *args, mask=mask, **kw)

    monkeypatch.setattr(pbbem.solver, "kernel_sums", recording)
    _sweep(problem, np.ones(2 * n))
    row_tile = np.repeat(np.arange(rows.size), rows)  # the row tile holding each row
    past = row_tile[:, None] > row_tile[None, :]  # i's row tile past j's
    served = evaluated + np.where(past, evaluated.T, 0)
    assert np.array_equal(served, 1 - np.eye(n, dtype=int))
    square = row_tile[:, None] == row_tile[None, :]
    assert np.all((evaluated + evaluated.T)[~square] == 1)
    assert np.all(evaluated[square & ~np.eye(n, dtype=bool)] == 1)


def test_hobi_strips_evaluate_each_regular_pair_once(monkeypatch):
    """Record every (row, regular source) pair the hobi chunk task
    evaluates on a level-1 mesh: each is evaluated exactly once, except the
    Q sources of each face incident to the row's vertex, which never are."""
    problem = discretize(icosahedral_sphere(1), MIXED, NO_CHARGES, SolverConfig())
    t, (nf, q) = problem.n_collocation, problem.reg_w.shape
    # kernel_sums reads positions about the origin, from the rows
    # [|x|^2, x, 1] and the columns [1, -2 y, |y|^2]; halving is exact
    row_of = {tuple(x): i for i, x in enumerate(problem.colloc_pos - problem.origin)}
    col_of = {tuple(y): j for j, y in enumerate(problem.reg_pos.reshape(-1, 3) - problem.origin)}
    evaluated = np.zeros((t, nf * q), int)
    real_kernel_sums = pbbem.solver.kernel_sums

    def recording(scratch, targets, sources, *args, mask, **kw):
        xs = targets[0][:, 1:4]
        ys = (sources[0][1:4] * -0.5).T
        if all(tuple(y) in col_of for y in ys):  # a regular block, not Duffy
            i = [row_of[tuple(x)] for x in xs]
            j = [col_of[tuple(y)] for y in ys]
            seen = np.ones((len(i), len(j)), int)
            seen.reshape(-1)[mask] = 0
            evaluated[np.ix_(i, j)] += seen
        return real_kernel_sums(scratch, targets, sources, *args, mask=mask, **kw)

    monkeypatch.setattr(pbbem.solver, "kernel_sums", recording)
    _sweep(problem, np.ones(2 * t))
    incident = np.zeros((t, nf), int)
    for f, face in enumerate(problem.mesh.faces):
        incident[face, f] = 1
    assert np.array_equal(evaluated, 1 - np.repeat(incident, q, axis=1))


@pytest.mark.parametrize("level", [4, 5])
def test_strip_chunks_hold_equal_pair_counts(level):
    """At benchmark sizes (level 4: 5120 faces; level 5: 20480) the chunks'
    pair counts agree within 10%."""
    n = 20 * 4**level
    _, pairs, chunks = pbbem.solver._tile_layout(n)
    per_chunk = np.array([pairs[a:b].sum() for a, b in zip(chunks[:-1], chunks[1:])])
    assert per_chunk.sum() == pairs.sum()
    assert per_chunk.max() - per_chunk.min() <= 0.1 * per_chunk.max()


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
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


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_closing_the_first_opened_pooled_operator_first(monkeypatch):
    """Each worker keeps none of another operator's pipe ends, so the first
    of two open pools closes, within seconds, while the second stays open,
    and reaps its own workers; the second keeps its bits."""
    problems = [
        discretize(icosahedral_sphere(1, radius=r), WATER, CENTERED_UNIT, SolverConfig(scheme="lobi"))
        for r in (1.0, 2.0)
    ]
    vectors = [np.linspace(-1.0, 1.0, p.n_unknowns) for p in problems]
    serial = [_apply(p, u) for p, u in zip(problems, vectors)]
    pids = _counting_forks(monkeypatch)
    first = make_operator(problems[0], SolverConfig(workers=2))
    first(vectors[0])
    with make_operator(problems[1], SolverConfig(workers=2)) as second:
        assert np.array_equal(second(vectors[1]), serial[1])
        closer = threading.Thread(target=first.close)
        closer.start()
        closer.join(5.0)
        assert not closer.is_alive()
        assert all(_reaped(pid) for pid in pids[:2])
        assert np.array_equal(second(vectors[1]), serial[1])
    assert len(pids) == 4 and all(_reaped(pid) for pid in pids)


POOL_IMPORTS_SCRIPT = """
import sys
import threading
import numpy as np
from pbbem.kernels import PhysicalParams
from pbbem.mesh import ChargeSystem, icosahedral_sphere
from pbbem.solver import SolverConfig, discretize, solve

config = SolverConfig(scheme="lobi", workers=2)
problem = discretize(icosahedral_sphere(1), PhysicalParams(1.0, 80.0, 0.125),
                     ChargeSystem([[0.0, 0.0, 0.0]], [1.0]), config)
solve(problem, config)
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules),
      threading.active_count())
"""


@pytest.mark.skipif(not HAS_FORK, reason="os.fork unavailable")
def test_pooled_solve_imports_no_executor_and_starts_no_thread():
    """A 2-worker solve, in a fresh process, imports neither
    concurrent.futures nor multiprocessing and leaves one thread."""
    package_root = str(Path(pbbem.solver.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", POOL_IMPORTS_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 1\n"


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
    pids = _counting_forks(monkeypatch)
    solution = solve(problem, config)
    # the operator is still referenced, so only close() can have ended its pool
    assert len(opened) == 1
    assert len(pids) == (workers if workers > 1 else 0)
    assert _childless()
    assert np.array_equal(solution.vector, expected.vector)
    assert solution.iterations == expected.iterations
    assert solution.residual == expected.residual
    assert solution.matvecs == opened[0].matvecs == expected.iterations


def test_make_operator_serial_matches_matvec():
    """A serial operator's later calls, which reuse its plan, give the bits
    of a new operator's first call."""
    mesh = icosahedral_sphere(0)
    problem = discretize(mesh, WATER, CENTERED_UNIT, SolverConfig(scheme="lobi"))
    u = np.linspace(0.0, 1.0, problem.n_unknowns)
    config = SolverConfig(scheme="lobi", workers=1)
    with make_operator(problem, config) as op:
        op(u[::-1].copy())
        assert np.array_equal(op(u), _apply(problem, u))


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
    assert 3 <= solution.iterations <= 5
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
    assert 4 <= solution.iterations <= 6


def test_well_posed_solves_converge_in_few_iterations(born_hobi_l2, born_lobi_l2):
    """Counts, not timings: at the default tolerance the level-3 eccentric
    screened sphere (criterion 9's input) takes at most 9 iterations per
    scheme, and each level-2 Born solve spends one matvec per iteration."""
    params = PhysicalParams(eps1=1.0, eps2=80.0, kappa=1.0)
    charge = ChargeSystem(positions=[[0.5, 0.0, 0.0]], charges=[1.0])
    mesh = icosahedral_sphere(3, radius=1.0)
    for scheme in ("hobi", "lobi"):
        config = SolverConfig(scheme=scheme, workers=1)
        solution = solve(discretize(mesh, params, charge, config), config)
        assert solution.iterations <= 9, scheme
    for _, solution in (born_hobi_l2, born_lobi_l2):
        assert solution.matvecs == solution.iterations


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
    """Work per refinement (4x the unknowns), once counted and once timed.

    The tile layout's pair count is deterministic: about T(T+1)/2, each
    unordered pair once plus the diagonal tiles' second orientations,
    T TILE / 2 pairs. Counted at levels 4 and 5, where those are under
    10% (at levels 2 and 3 they are 52% and 14%), its growth per doubling
    of the mesh size must be quadratic in T. The timing takes the min of 7
    matvecs at levels 3 and 4, where the pair work outweighs the fixed
    interpreter cost per tile; the two levels' repeats alternate, so a
    drift in the host's load reaches both minima instead of the ratio."""
    pairs = {}
    for level in (4, 5):
        t = 20 * 4**level
        pairs[level] = int(pbbem.solver._tile_layout(t)[1].sum())
        assert t * (t + 1) / 2 <= pairs[level] <= 1.1 * t * (t + 1) / 2
    assert 2.5 <= np.sqrt(pairs[5] / pairs[4]) <= 5.5

    problems = {}
    for level in (3, 4):
        mesh = icosahedral_sphere(level)
        problems[level] = discretize(mesh, WATER, NO_CHARGES, SolverConfig(scheme="lobi"))
        _apply(problems[level], np.ones(problems[level].n_unknowns))  # warm up
    times = {level: np.inf for level in problems}
    for _ in range(7):
        for level, problem in problems.items():
            u = np.ones(problem.n_unknowns)
            t0 = time.perf_counter()
            _apply(problem, u)
            times[level] = min(times[level], time.perf_counter() - t0)
    per_doubling = np.sqrt(times[4] / times[3])
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
