import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbbem.geometry import (
    REFERENCE_NODES,
    VERTEX_LOCAL,
    CubicArc,
    CurvedElement,
    DegenerateArcError,
    DegenerateElementError,
    arc_normal,
    arc_point,
    arc_velocity,
    build_curved_element,
    element_frame,
    fit_arc,
    frames_at,
    nodes_from_vertex_data,
    shape_functions,
    shape_gradients,
    shape_matrix,
)
from pbbem.mesh import FlatMesh, icosahedral_sphere
from pbbem.quadrature import gauss_radau_rule, integrate_element

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
    assert abs(shape_functions(third, third).sum() - 1.0) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(rs=inner_rs)
def test_partition_of_unity_and_gradient_sum(rs):
    r, s = rs
    assert abs(shape_functions(r, s).sum() - 1.0) <= 1e-12
    grads = shape_gradients(r, s)
    assert np.abs(grads.sum(axis=0)).max() <= 1e-11


def test_cubic_reproduction():
    def g(r, s):
        return r**3 - 2.0 * r * s**2 + s

    nodal = np.array([g(r, s) for r, s in REFERENCE_NODES])
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.random(2)
        r, s = a * (1.0 - b), b  # inside the triangle
        assert abs(shape_functions(r, s) @ nodal - g(r, s)) <= 1e-12


def test_shape_gradients_match_finite_differences():
    h = 1e-6
    for r, s in [(0.2, 0.3), (0.05, 0.1), (0.4, 0.55), (1.0 / 3.0, 1.0 / 3.0)]:
        grads = shape_gradients(r, s)
        fd_r = (shape_functions(r + h, s) - shape_functions(r - h, s)) / (2 * h)
        fd_s = (shape_functions(r, s + h) - shape_functions(r, s - h)) / (2 * h)
        assert np.abs(grads[:, 0] - fd_r).max() <= 1e-8
        assert np.abs(grads[:, 1] - fd_s).max() <= 1e-8


def test_vertex_local_indices():
    assert [tuple(REFERENCE_NODES[i]) for i in VERTEX_LOCAL] == [
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


def test_element_vertex_nodes_bitwise(tetrahedron_mesh):
    elem = build_curved_element(tetrahedron_mesh, 0)
    a, b, c = tetrahedron_mesh.faces[0]
    assert elem.vertex_ids == (a, b, c)
    for local, gid in zip(VERTEX_LOCAL, (a, b, c)):
        assert np.array_equal(elem.nodes[local], tetrahedron_mesh.vertices[gid])
        assert np.array_equal(
            elem.node_normals[local], tetrahedron_mesh.normals[gid]
        )


def test_flat_element_is_affine():
    # all three normals identical: every arc degenerates to its chord
    x1 = np.array([0.0, 0.0, 0.0])
    x2 = np.array([1.0, 0.0, 0.0])
    x3 = np.array([0.0, 1.0, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    nodes, normals = nodes_from_vertex_data(x1, up, x2, up, x3, up)
    affine = (
        x1[None, :]
        + REFERENCE_NODES[:, 0:1] * (x2 - x1)[None, :]
        + REFERENCE_NODES[:, 1:2] * (x3 - x1)[None, :]
    )
    assert np.abs(nodes - affine).max() <= 1e-10
    assert np.abs(normals - up).max() <= 1e-12


def test_sphere_element_nodes_near_sphere():
    mesh = icosahedral_sphere(1)
    worst = 0.0
    for f in range(mesh.n_faces):
        elem = build_curved_element(mesh, f)
        radii = np.linalg.norm(elem.nodes, axis=1)
        worst = max(worst, float(np.abs(radii - 1.0).max()))
    assert worst <= 5e-3


def test_sphere_node_deviation_shrinks_by_level():
    def worst(level):
        mesh = icosahedral_sphere(level)
        dev = 0.0
        for f in range(mesh.n_faces):
            elem = build_curved_element(mesh, f)
            dev = max(dev, float(np.abs(np.linalg.norm(elem.nodes, axis=1) - 1.0).max()))
        return dev

    d0, d1, d2 = worst(0), worst(1), worst(2)
    assert d1 < d0 / 8.0
    assert d2 < d1 / 8.0


def test_build_curved_element_index_guard(tetrahedron_mesh):
    with pytest.raises(IndexError):
        build_curved_element(tetrahedron_mesh, 4)
    with pytest.raises(IndexError):
        build_curved_element(tetrahedron_mesh, -1)


def test_degenerate_vertex_normal_names_face(octahedron_arrays):
    verts, faces = octahedron_arrays
    normals = verts.copy()
    # vertex 0 is (1,0,0); face 0 is (0,2,4) with chord 0->2 along (-1,1,0).
    # Tilt the normal of vertex 0 to be parallel to that chord.
    normals[0] = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0)
    mesh = FlatMesh(vertices=verts, normals=normals, faces=faces)
    with pytest.raises(DegenerateArcError, match="face 0"):
        build_curved_element(mesh, 0)


def test_batched_nodes_equal_stacked_single_calls():
    mesh = icosahedral_sphere(1)
    rng = np.random.default_rng(11)
    nrm = mesh.normals + 0.1 * rng.standard_normal(mesh.normals.shape)
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    rotations = np.stack([np.roll(mesh.faces, -k, axis=1) for k in range(3)], axis=1)
    x, n = mesh.vertices[rotations], nrm[rotations]  # (N_f, 3, 3, 3)
    args = [a[..., k, :] for k in range(3) for a in (x, n)]
    nodes, normals = nodes_from_vertex_data(*args)
    assert nodes.shape == normals.shape == (mesh.n_faces, 3, 10, 3)
    for f in range(mesh.n_faces):
        for k in range(3):
            one_nodes, one_normals = nodes_from_vertex_data(*(a[f, k] for a in args))
            assert np.array_equal(nodes[f, k], one_nodes)
            assert np.array_equal(normals[f, k], one_normals)


def test_batched_error_names_first_failing_member():
    x1, x2, x3 = np.eye(3)
    n1, n2, n3 = np.eye(3)
    good = (x1, n1, x2, n2, x3, n3)
    # vertices 2 and 3 coincide: only the late u = 1 cross arc fails
    late = (x1, n1, x2, n2, x2, n2)
    # vertex 1's normal along the 1-2 chord: the first arc fails
    early = (x1, (x2 - x1) / np.sqrt(2.0), x2, n2, x3, n3)
    for batch, cause in (
        ((good, late, early), "coincide"),
        ((good, early, late), "parallel"),
    ):
        args = [np.stack(column) for column in zip(*batch)]
        with pytest.raises(DegenerateArcError, match=cause) as info:
            nodes_from_vertex_data(*args)
        assert info.value.index == (1,)


def test_curved_element_rejects_non_unit_normals():
    nodes = np.tile(np.arange(10, dtype=float)[:, None], (1, 3))
    normals = np.zeros((10, 3))
    normals[:, 2] = 2.0
    with pytest.raises(ValueError, match="unit"):
        CurvedElement(nodes=nodes, node_normals=normals, vertex_ids=(0, 1, 2))


# ---------------------------------------------------------------------------
# frames


def test_element_frame_flat_jacobian():
    x1 = np.array([0.0, 0.0, 0.0])
    x2 = np.array([2.0, 0.0, 0.0])
    x3 = np.array([0.0, 1.0, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    nodes, normals = nodes_from_vertex_data(x1, up, x2, up, x3, up)
    elem = CurvedElement(nodes=nodes, node_normals=normals, vertex_ids=(0, 1, 2))
    frame = element_frame(elem, 0.2, 0.3)
    assert frame.jacobian == pytest.approx(2.0, rel=1e-10)  # 2 x triangle area
    assert np.abs(frame.normal - up).max() <= 1e-12


def test_element_frame_at_origin_is_first_node(tetrahedron_mesh):
    elem = build_curved_element(tetrahedron_mesh, 0)
    frame = element_frame(elem, 0.0, 0.0)
    assert np.abs(frame.position - elem.nodes[0]).max() <= 1e-13


def test_element_frame_normals_near_radial_on_sphere():
    mesh = icosahedral_sphere(2)
    rng = np.random.default_rng(3)
    worst = 0.0
    for f in rng.choice(mesh.n_faces, size=40, replace=False):
        elem = build_curved_element(mesh, int(f))
        for r, s in [(0.2, 0.3), (0.05, 0.05), (0.6, 0.3), (1 / 3, 1 / 3)]:
            frame = element_frame(elem, r, s)
            radial = frame.position / np.linalg.norm(frame.position)
            angle = np.arccos(np.clip(np.dot(frame.normal, radial), -1.0, 1.0))
            worst = max(worst, float(angle))
    assert worst <= 1e-2  # radians


def test_element_frame_degenerate_collinear():
    x1 = np.array([0.0, 0.0, 0.0])
    x2 = np.array([1.0, 0.0, 0.0])
    x3 = np.array([2.0, 1e-18, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    nodes, normals = nodes_from_vertex_data(x1, up, x2, up, x3, up)
    elem = CurvedElement(nodes=nodes, node_normals=normals, vertex_ids=(0, 1, 2))
    with pytest.raises(DegenerateElementError):
        element_frame(elem, 0.3, 0.3)


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
    mesh = icosahedral_sphere(0)
    elems = [build_curved_element(mesh, f) for f in range(3)]
    node_pos = np.stack([e.nodes for e in elems])
    node_nrm = np.stack([e.node_normals for e in elems])
    node_pos[1] = node_pos[1, 0]
    node_pos[2] = node_pos[2, 0]
    with pytest.raises(DegenerateElementError, match="^element 1: "):
        frames_at(node_pos, node_nrm, np.array([(0.2, 0.3)]))


def test_frames_at_matches_element_frame():
    mesh = icosahedral_sphere(1)
    elems = [build_curved_element(mesh, f) for f in (0, 17, 53)]
    node_pos = np.stack([e.nodes for e in elems])
    node_nrm = np.stack([e.node_normals for e in elems])
    pts = np.array([(0.1, 0.2), (0.5, 0.25), (1 / 3, 1 / 3), (0.05, 0.9)])
    pos, nrm, jac = frames_at(node_pos, node_nrm, pts)
    for i, e in enumerate(elems):
        for m, (r, s) in enumerate(pts):
            frame = element_frame(e, r, s)
            assert np.abs(pos[i, m] - frame.position).max() <= 1e-13
            assert np.abs(nrm[i, m] - frame.normal).max() <= 1e-12
            assert abs(jac[i, m] - frame.jacobian) <= 1e-12 * frame.jacobian


# ---------------------------------------------------------------------------
# curved vs flat area convergence on the unit sphere


def sphere_area_error(level, curved):
    mesh = icosahedral_sphere(level)
    rule = gauss_radau_rule()
    total = 0.0
    for f in range(mesh.n_faces):
        if curved:
            elem = build_curved_element(mesh, f)
        else:
            a, b, c = mesh.faces[f]
            up = np.cross(
                mesh.vertices[b] - mesh.vertices[a],
                mesh.vertices[c] - mesh.vertices[a],
            )
            up = up / np.linalg.norm(up)
            nodes, normals = nodes_from_vertex_data(
                mesh.vertices[a], up, mesh.vertices[b], up, mesh.vertices[c], up
            )
            elem = CurvedElement(nodes=nodes, node_normals=normals, vertex_ids=(a, b, c))
        total += integrate_element(elem, lambda frame: 1.0, rule)
    return abs(total - 4.0 * np.pi)


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
