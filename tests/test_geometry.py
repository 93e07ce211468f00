import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import curved_nodes
from reference import nodes_from_vertex_data

from pbbem import geometry
from pbbem.geometry import (
    REFERENCE_NODES,
    CubicArc,
    DegenerateArcError,
    DegenerateElementError,
    arc_normal,
    arc_point,
    arc_velocity,
    fit_arc,
    frames_at,
    shape_gradient_matrices,
    shape_matrix,
)
from pbbem.kernels import PhysicalParams
from pbbem.mesh import ChargeSystem, FlatMesh, icosahedral_sphere
from pbbem.quadrature import gauss_radau_rule
from pbbem.solver import SolverConfig, discretize

# strategy for points strictly inside the reference triangle
inner_rs = st.tuples(
    st.floats(min_value=0.01, max_value=0.98),
    st.floats(min_value=0.01, max_value=0.98),
).map(lambda t: (t[0] * (1.0 - t[1]) * 0.98, t[1] * 0.98))


# ---------------------------------------------------------------------------
# cubic Lagrange basis


def test_kronecker_property():
    vals = shape_matrix(REFERENCE_NODES)
    assert np.abs(vals - np.eye(10)).max() <= 1e-13


def test_partition_of_unity_at_barycenter():
    third = 1.0 / 3.0
    assert abs(shape_matrix(np.array([[third, third]]))[0].sum() - 1.0) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(rs=inner_rs)
def test_partition_of_unity_and_gradient_sum(rs):
    pts = np.array([rs])
    assert abs(shape_matrix(pts)[0].sum() - 1.0) <= 1e-12
    g_r, g_s = shape_gradient_matrices(pts)
    assert max(abs(g_r[0].sum()), abs(g_s[0].sum())) <= 1e-11


def test_cubic_reproduction():
    def g(r, s):
        return r**3 - 2.0 * r * s**2 + s

    nodal = np.array([g(r, s) for r, s in REFERENCE_NODES])
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.random(2)
        r, s = a * (1.0 - b), b  # inside the triangle
        assert abs(shape_matrix(np.array([[r, s]]))[0] @ nodal - g(r, s)) <= 1e-12


def test_shape_gradients_match_finite_differences():
    h = 1e-6
    pts = np.array([(0.2, 0.3), (0.05, 0.1), (0.4, 0.55), (1.0 / 3.0, 1.0 / 3.0)])
    g_r, g_s = shape_gradient_matrices(pts)
    fd_r = (shape_matrix(pts + (h, 0.0)) - shape_matrix(pts - (h, 0.0))) / (2 * h)
    fd_s = (shape_matrix(pts + (0.0, h)) - shape_matrix(pts - (0.0, h))) / (2 * h)
    assert np.abs(g_r - fd_r).max() <= 1e-8
    assert np.abs(g_s - fd_s).max() <= 1e-8


def test_vertex_local_indices():
    """Vertices are nodes 1, 4 and 9, stored at 0, 3 and 8."""
    assert [tuple(REFERENCE_NODES[i]) for i in (0, 3, 8)] == [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, 1.0),
    ]


# ---------------------------------------------------------------------------
# edge arcs


def test_fit_arc_straight_segment():
    p0 = np.array([0.0, 0.0, 0.0])
    p1 = np.array([2.0, 0.0, 0.0])
    n = np.array([0.0, 0.0, 1.0])
    arc = fit_arc(p0, n, p1, n)
    assert np.abs(arc.c2).max() <= 1e-12
    assert np.abs(arc.c3).max() <= 1e-12
    assert np.abs(arc_point(arc, 0.5) - [1.0, 0.0, 0.0]).max() <= 1e-12


def test_fit_arc_endpoints_exact():
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0])
    arc = fit_arc(p0, p0, p1, p1)  # unit sphere: normal equals position
    assert np.abs(arc_point(arc, 0.0) - p0).max() <= 1e-15
    assert np.abs(arc_point(arc, 1.0) - p1).max() <= 1e-12


def test_fit_arc_tangent_orthogonal_to_normals():
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0])
    arc = fit_arc(p0, p0, p1, p1)
    assert abs(np.dot(arc_velocity(arc, 0.0), p0)) <= 1e-12
    assert abs(np.dot(arc_velocity(arc, 1.0), p1)) <= 1e-12


def test_fit_arc_quarter_circle_midpoint():
    """A quarter circle is the hardest arc a sane mesh produces.

    The chord midpoint misses the circle by 1 - sqrt(2)/2 ~ 0.293; the
    fitted cubic has to do far better than that.
    """
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0])
    arc = fit_arc(p0, p0, p1, p1)
    mid = arc_point(arc, 0.5)
    radial_miss = abs(np.linalg.norm(mid) - 1.0)
    assert radial_miss <= 5e-3
    assert radial_miss < 0.05 * 0.293


def test_fit_arc_small_arc_accuracy():
    theta = 0.2
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([np.cos(theta), np.sin(theta), 0.0])
    arc = fit_arc(p0, p0, p1, p1)
    for t in np.linspace(0.0, 1.0, 9):
        assert abs(np.linalg.norm(arc_point(arc, t)) - 1.0) <= 1e-6


def test_fit_arc_swap_symmetry():
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0])
    fwd = fit_arc(p0, p0, p1, p1)
    rev = fit_arc(p1, p1, p0, p0)
    for t in (0.125, 0.25, 0.5, 0.75):
        assert np.abs(arc_point(fwd, t) - arc_point(rev, 1.0 - t)).max() <= 1e-12


def test_fit_arc_degenerate_cases():
    p = np.array([0.0, 0.0, 0.0])
    n = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateArcError):
        fit_arc(p, n, p, n)  # coincident endpoints
    q = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateArcError, match="parallel"):
        fit_arc(p, n, q, n)  # normal along the chord


def test_arc_point_evaluates_polynomial():
    arc = CubicArc(
        c0=np.array([1.0, 0.0, 0.0]),
        c1=np.array([0.0, 2.0, 0.0]),
        c2=np.array([0.0, 0.0, 3.0]),
        c3=np.array([-1.0, 0.0, 0.0]),
    )
    assert np.abs(arc_point(arc, 0.0) - [1.0, 0.0, 0.0]).max() == 0.0
    expected = [1.0 - 0.125, 1.0, 0.75]  # c0 + 0.5 c1 + 0.25 c2 + 0.125 c3
    assert np.abs(arc_point(arc, 0.5) - expected).max() <= 1e-15


def test_arc_normal_small_arc_is_radial():
    theta = 0.02
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([np.cos(theta), np.sin(theta), 0.0])
    arc = fit_arc(p0, p0, p1, p1)
    for t in (0.0, 0.3, 0.5, 1.0):
        n, fallback = arc_normal(arc, t, p0)
        assert not fallback
        exact = arc_point(arc, t)
        exact = exact / np.linalg.norm(exact)
        assert np.abs(n - exact).max() <= 1e-10


def test_arc_normal_quarter_circle_accuracy():
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0])
    arc = fit_arc(p0, p0, p1, p1)
    n, fallback = arc_normal(arc, 0.5, (p0 + p1) / np.sqrt(2.0))
    assert not fallback
    mid = arc_point(arc, 0.5)
    exact = mid / np.linalg.norm(mid)
    # a cubic cannot carry exact circular curvature; 2e-3 is its honest level
    assert np.abs(n - exact).max() <= 2e-3


def test_arc_normal_straight_arc_falls_back_to_reference():
    p0 = np.array([0.0, 0.0, 0.0])
    p1 = np.array([1.0, 0.0, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    arc = fit_arc(p0, up, p1, up)
    n, fallback = arc_normal(arc, 0.5, up)
    assert fallback
    assert np.abs(n - up).max() == 0.0


def test_arc_normal_sign_follows_reference():
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0])
    arc = fit_arc(p0, p0, p1, p1)
    outward, _ = arc_normal(arc, 0.5, np.array([1.0, 1.0, 0.0]))
    inward, _ = arc_normal(arc, 0.5, np.array([-1.0, -1.0, 0.0]))
    assert np.abs(outward + inward).max() <= 1e-15


# ---------------------------------------------------------------------------
# curved elements


def lone_faces(*corners):
    """geometry.curved_nodes on faces that share no vertex, each given as
    its (x1, n1, x2, n2, x3, n3): the (N_f, 3, 10, 3) positions and normals."""
    x = np.array([c[0::2] for c in corners], dtype=float).reshape(-1, 3)
    n = np.array([c[1::2] for c in corners], dtype=float).reshape(-1, 3)
    return geometry.curved_nodes(x, n, np.arange(len(x)).reshape(-1, 3))


def test_element_vertex_nodes_bitwise(tetrahedron_mesh):
    nodes, normals = curved_nodes(tetrahedron_mesh)
    for f, verts in enumerate(tetrahedron_mesh.faces):
        for local, gid in zip((0, 3, 8), verts):
            assert np.array_equal(nodes[f, local], tetrahedron_mesh.vertices[gid])
            assert np.array_equal(normals[f, local], tetrahedron_mesh.normals[gid])


def test_flat_element_is_affine():
    # all three normals identical: every arc degenerates to its chord
    x1 = np.array([0.0, 0.0, 0.0])
    x2 = np.array([1.0, 0.0, 0.0])
    x3 = np.array([0.0, 1.0, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    nodes, normals = (a[0, 0] for a in lone_faces((x1, up, x2, up, x3, up)))
    affine = (
        x1[None, :]
        + REFERENCE_NODES[:, 0:1] * (x2 - x1)[None, :]
        + REFERENCE_NODES[:, 1:2] * (x3 - x1)[None, :]
    )
    assert np.abs(nodes - affine).max() <= 1e-10
    assert np.abs(normals - up).max() <= 1e-12


def node_radius_error(level):
    nodes, _ = curved_nodes(icosahedral_sphere(level))
    return float(np.abs(np.linalg.norm(nodes, axis=-1) - 1.0).max())


def test_sphere_element_nodes_near_sphere():
    assert node_radius_error(1) <= 5e-3


def test_sphere_node_deviation_shrinks_by_level():
    d0, d1, d2 = node_radius_error(0), node_radius_error(1), node_radius_error(2)
    assert d1 < d0 / 8.0
    assert d2 < d1 / 8.0


def test_shared_edges_fit_the_same_nodes_on_an_ellipsoid():
    """Both faces of every edge put the same two nodes on it, bit for bit:
    each edge arc is fitted once, so neighbouring curved elements meet off
    the sphere too."""
    sphere = icosahedral_sphere(2)
    axes = np.array([1.0, 0.8, 0.6])
    normals = sphere.vertices / axes  # gradient of |x / axes|^2 at x = u axes
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    mesh = FlatMesh(vertices=sphere.vertices * axes, normals=normals, faces=sphere.faces)
    mesh.validate()
    nodes, _ = curved_nodes(mesh)
    edges = {}
    for f, (a, b, c) in enumerate(mesh.faces):
        # the nodes at 1/3 and 2/3 along edges 1-2, 1-3 and 2-3
        for (p, q), (i, j) in (((a, b), (1, 4)), ((a, c), (2, 5)), ((b, c), (6, 7))):
            pair = nodes[f, [i, j]] if p < q else nodes[f, [j, i]]
            edges.setdefault((min(p, q), max(p, q)), []).append(pair)
    assert len(edges) == 3 * mesh.n_faces // 2
    gaps = [np.abs(one - other).max() for one, other in edges.values()]
    assert max(gaps) == 0.0


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_curved_nodes_match_the_per_rotation_fit(level):
    """The per-rotation fit (tests/reference.py) runs each rotation's arcs
    in its own direction. Where that is from the lower vertex index to the
    higher, as the edge table fits them, every node keeps its bits. Reversed
    edge nodes differ by rounding. A normal is the direction of an arc's
    curvature, which shrinks like h^2, so its rounding grows like 4^level;
    the interior node's cross arc takes it on over a chord of length ~h."""
    mesh = icosahedral_sphere(level)
    rotations = np.stack([np.roll(mesh.faces, -k, axis=1) for k in range(3)], axis=1)
    x, n = mesh.vertices[rotations], mesh.normals[rotations]
    old = nodes_from_vertex_data(*(a[..., k, :] for k in range(3) for a in (x, n)))
    new = geometry.curved_nodes(mesh.vertices, mesh.normals, mesh.faces)
    same = np.zeros(rotations.shape[:2] + (10,), dtype=bool)
    same[..., [0, 3, 8]] = True
    for (start, end), local in (((0, 1), [1, 4]), ((0, 2), [2, 5]), ((1, 2), [6, 7])):
        same[..., local] = (rotations[..., start] < rotations[..., end])[..., None]
    assert not same.all()  # some arcs do run high to low
    for a, b in zip(old, new):
        assert np.array_equal(a[same], b[same])
    eps = np.finfo(float).eps
    gap = np.abs(old[0] - new[0]).max(axis=-1)
    assert gap[..., :9].max() <= 4e-16
    assert gap[..., 9].max() <= 4 * eps * 2.0**level
    assert np.abs(old[1] - new[1]).max() <= 16 * eps * 4.0**level


def test_one_arc_per_mesh_edge(monkeypatch):
    """A closed mesh has 3 N_f / 2 edges and each is fitted once; the cross
    arcs of the three rotations add 3 N_f (the per-rotation fit made 12 N_f)."""
    fitted = []
    real = geometry.fit_arc

    def counting(p0, *rest):
        fitted.append(int(np.prod(np.shape(p0)[:-1])))
        return real(p0, *rest)

    monkeypatch.setattr(geometry, "fit_arc", counting)
    mesh = icosahedral_sphere(2)
    geometry.curved_nodes(mesh.vertices, mesh.normals, mesh.faces)
    assert fitted == [3 * mesh.n_faces // 2, 3 * mesh.n_faces]


def test_degenerate_vertex_normal_names_face(octahedron_arrays):
    verts, faces = octahedron_arrays
    normals = verts.copy()
    # vertex 0 is (1,0,0); face 0 is (0,2,4) with chord 0->2 along (-1,1,0).
    # Tilt the normal of vertex 0 to be parallel to that chord.
    normals[0] = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0)
    mesh = FlatMesh(vertices=verts, normals=normals, faces=faces)
    params = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
    charges = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
    with pytest.raises(DegenerateArcError, match="^face 0: "):
        discretize(mesh, params, charges, SolverConfig(scheme="hobi"))


def test_batched_nodes_equal_stacked_single_calls():
    mesh = icosahedral_sphere(1)
    rng = np.random.default_rng(11)
    nrm = mesh.normals + 0.1 * rng.standard_normal(mesh.normals.shape)
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    nodes, normals = geometry.curved_nodes(mesh.vertices, nrm, mesh.faces)
    assert nodes.shape == normals.shape == (mesh.n_faces, 3, 10, 3)
    for f in range(mesh.n_faces):
        one_nodes, one_normals = geometry.curved_nodes(
            mesh.vertices, nrm, mesh.faces[f : f + 1]
        )
        assert np.array_equal(nodes[f], one_nodes[0])
        assert np.array_equal(normals[f], one_normals[0])


def test_batched_error_names_first_failing_member():
    x1, x2, x3 = np.eye(3)
    n1, n2, n3 = np.eye(3)
    good = (x1, n1, x2, n2, x3, n3)
    # vertices 2 and 3 coincide: the arc between them fails
    late = (x1, n1, x2, n2, x2, n2)
    # vertex 1's normal along the 1-2 chord: the first arc fails
    early = (x1, (x2 - x1) / np.sqrt(2.0), x2, n2, x3, n3)
    for batch, cause in (
        ((good, late, early), "coincide"),
        ((good, early, late), "parallel"),
    ):
        with pytest.raises(DegenerateArcError, match=cause) as info:
            lone_faces(*batch)
        assert info.value.index == (1,)


# ---------------------------------------------------------------------------
# frames


def test_element_frame_flat_jacobian():
    x1 = np.array([0.0, 0.0, 0.0])
    x2 = np.array([2.0, 0.0, 0.0])
    x3 = np.array([0.0, 1.0, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    nodes, normals = (a[:, 0] for a in lone_faces((x1, up, x2, up, x3, up)))
    _, nrm, jac = frames_at(nodes, normals, np.array([(0.2, 0.3)]))
    assert jac[0, 0] == pytest.approx(2.0, rel=1e-10)  # 2 x triangle area
    assert np.abs(nrm[0, 0] - up).max() <= 1e-12


def test_element_frame_at_origin_is_first_node(tetrahedron_mesh):
    nodes, normals = curved_nodes(tetrahedron_mesh)
    pos, _, _ = frames_at(nodes[:1], normals[:1], np.array([(0.0, 0.0)]))
    assert np.abs(pos[0, 0] - nodes[0, 0]).max() <= 1e-13


def test_element_frame_normals_near_radial_on_sphere():
    nodes, normals = curved_nodes(icosahedral_sphere(2))
    pts = np.array([(0.2, 0.3), (0.05, 0.05), (0.6, 0.3), (1 / 3, 1 / 3)])
    pos, nrm, _ = frames_at(nodes, normals, pts)
    radial = pos / np.linalg.norm(pos, axis=-1)[..., None]
    angle = np.arccos(np.clip(np.sum(nrm * radial, axis=-1), -1.0, 1.0))
    assert angle.max() <= 1e-2  # radians


def test_element_frame_degenerate_collinear():
    x1 = np.array([0.0, 0.0, 0.0])
    x2 = np.array([1.0, 0.0, 0.0])
    x3 = np.array([2.0, 1e-18, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    nodes, normals = (a[:, 0] for a in lone_faces((x1, up, x2, up, x3, up)))
    with pytest.raises(DegenerateElementError):
        frames_at(nodes, normals, np.array([(0.3, 0.3)]))


def test_frames_at_collapsed_element_raises_not_warns():
    """A (1, 10, 3) node set collapsed to one point has a zero Jacobian
    everywhere: frames_at names the element and the first reference point
    instead of dividing by zero."""
    node_pos = np.zeros((1, 10, 3)) + [0.5, -1.0, 2.0]
    node_nrm = np.zeros((1, 10, 3)) + [0.0, 0.0, 1.0]
    pts = np.array([(0.25, 0.5), (0.1, 0.1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would fail here
        with pytest.raises(DegenerateElementError) as info:
            frames_at(node_pos, node_nrm, pts)
    assert str(info.value) == "element 0: vanishing Jacobian at (r, s) = (0.25, 0.5)"
    assert info.value.index == (0,)
    assert info.value.point == (0.25, 0.5)


def test_frames_at_names_first_degenerate_element():
    node_pos, node_nrm = (a[:3] for a in curved_nodes(icosahedral_sphere(0)))
    node_pos[1] = node_pos[1, 0]
    node_pos[2] = node_pos[2, 0]
    with pytest.raises(DegenerateElementError, match="^element 1: "):
        frames_at(node_pos, node_nrm, np.array([(0.2, 0.3)]))


def test_frames_at_matches_nodes_and_finite_differences():
    """Positions at the 10 reference nodes are the node values; the
    Jacobian and the normal are those of a central difference of the
    positions frames_at returns (outward on this outward-wound sphere)."""
    node_pos, node_nrm = (a[[0, 17, 53]] for a in curved_nodes(icosahedral_sphere(1)))
    pos, _, _ = frames_at(node_pos, node_nrm, REFERENCE_NODES)
    assert np.abs(pos - node_pos).max() <= 1e-13

    def position(p):
        return frames_at(node_pos, node_nrm, p)[0]

    pts = np.array([(0.1, 0.2), (0.5, 0.25), (1 / 3, 1 / 3), (0.05, 0.9)])
    h = 1e-6
    d_dr = (position(pts + (h, 0.0)) - position(pts - (h, 0.0))) / (2 * h)
    d_ds = (position(pts + (0.0, h)) - position(pts - (0.0, h))) / (2 * h)
    cross = np.cross(d_dr, d_ds)
    fd_jac = np.linalg.norm(cross, axis=-1)
    _, nrm, jac = frames_at(node_pos, node_nrm, pts)
    assert np.abs(jac - fd_jac).max() <= 1e-8 * jac.max()
    assert np.abs(nrm - cross / fd_jac[..., None]).max() <= 1e-8


# ---------------------------------------------------------------------------
# curved vs flat area convergence on the unit sphere


def sphere_area_error(level, curved):
    mesh = icosahedral_sphere(level)
    if curved:
        nodes, normals = curved_nodes(mesh)
    else:
        # every vertex takes its face's normal, so each arc is its chord
        a, b, c = (mesh.vertices[mesh.faces[:, k]] for k in range(3))
        up = np.cross(b - a, c - a)
        up /= np.linalg.norm(up, axis=1)[:, None]
        nodes, normals = (q[:, 0] for q in lone_faces(*zip(a, up, b, up, c, up)))
    rule = gauss_radau_rule()
    _, _, jac = frames_at(nodes, normals, rule.points)
    return abs((jac * rule.weights).sum() - 4.0 * np.pi)


def test_curved_area_order_beats_flat():
    e_curved = [sphere_area_error(lvl, curved=True) for lvl in (1, 2, 3)]
    e_flat = [sphere_area_error(lvl, curved=False) for lvl in (1, 2)]
    # mesh size h halves per level
    order_c1 = np.log2(e_curved[0] / e_curved[1])
    order_c2 = np.log2(e_curved[1] / e_curved[2])
    order_f = np.log2(e_flat[0] / e_flat[1])
    assert order_c1 >= 3.0
    assert order_c2 >= 3.0
    assert 1.5 <= order_f <= 2.5
    assert e_curved[1] < e_flat[1] / 50.0
