import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import flat_area, subdivide

from pbbem.mesh import (
    ChargeSystem,
    FlatMesh,
    MeshFormatError,
    MeshValidationError,
    _icosahedron,
    _subdivide,
    icosahedral_sphere,
    parse_charges,
    parse_msms,
    write_msms,
)

MSMS_VERT_HEADER = (
    "# MSMS solvent excluded surface vertices\n"
    "#faces  #sphere density probe_r\n"
)
MSMS_FACE_HEADER = "# MSMS solvent excluded surface faces\n"


def msms_texts(mesh):
    """Render with MSMS-style two-line headers on top of write_msms output."""
    vert_text, face_text = write_msms(mesh)
    vert = MSMS_VERT_HEADER + f"{mesh.n_vertices} 1 1.50 1.40\n" + vert_text
    face = MSMS_FACE_HEADER + f"{mesh.n_faces} 1 1.50 1.40\n" + face_text
    return vert, face


def test_tetrahedron_round_trip(tetrahedron_mesh):
    vert, face = msms_texts(tetrahedron_mesh)
    mesh = parse_msms(vert, face)
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 4
    assert np.array_equal(mesh.vertices, tetrahedron_mesh.vertices)
    assert np.array_equal(mesh.faces, tetrahedron_mesh.faces)
    mesh.validate()  # closed-mesh check passes


# Regular tetrahedron with 3-digit normals, the precision MSMS itself emits.
TETRA_VERT_3DIGIT = (
    "0.577 0.577 0.577 0.577 0.577 0.577\n"
    "0.577 -0.577 -0.577 0.577 -0.577 -0.577\n"
    "-0.577 0.577 -0.577 -0.577 0.577 -0.577\n"
    "-0.577 -0.577 0.577 -0.577 -0.577 0.577\n"
)
TETRA_FACE = "1 2 3\n1 4 2\n1 3 4\n2 4 3\n"


def test_normals_renormalized():
    mesh = parse_msms(TETRA_VERT_3DIGIT, TETRA_FACE)
    assert np.linalg.norm(mesh.normals, axis=1) == pytest.approx(1.0, abs=1e-12)


def test_face_indices_one_based():
    mesh = parse_msms(TETRA_VERT_3DIGIT, TETRA_FACE)
    assert tuple(mesh.faces[0]) == (0, 1, 2)


def test_malformed_vert_line_reports_line_number():
    vert = "1.0 0.0 0.0 0.6 0.6 0.6\n2.0 nope 0.0 0.6 0.6 0.6\n"
    with pytest.raises(MeshFormatError, match="line 2"):
        parse_msms(vert, "1 1 1\n")


def test_zero_based_face_index_rejected():
    vert = "1.0 0.0 0.0 0.6 0.6 0.6\n" * 3
    with pytest.raises(MeshFormatError, match="1-based"):
        parse_msms(vert, "0 1 2\n")


def test_face_index_out_of_range(tetrahedron_mesh):
    vert, _ = write_msms(tetrahedron_mesh)
    with pytest.raises((MeshValidationError, IndexError)):
        parse_msms(vert, "1 2 9\n1 3 2\n2 3 4\n1 4 3\n")


def test_stray_vertex_rejected():
    """A vertex no face references would solve as a decoupled unknown."""
    mesh = icosahedral_sphere(1, radius=2.0)
    stray = FlatMesh(
        vertices=np.vstack([mesh.vertices, [0.3, 0.1, 0.2]]),
        normals=np.vstack([mesh.normals, [0.0, 0.0, 1.0]]),
        faces=mesh.faces,
    )
    with pytest.raises(MeshValidationError, match="^vertex 42 belongs to no face$"):
        stray.validate()


def test_stray_vert_record_rejected(tetrahedron_mesh):
    vert_text, face_text = write_msms(tetrahedron_mesh)
    with pytest.raises(MeshValidationError, match="^vertex 4 belongs to no face$"):
        parse_msms(vert_text + "0.3 0.1 0.2 0.0 0.0 1.0\n", face_text)


def test_open_mesh_names_offending_edge(tetrahedron_mesh):
    open_mesh = FlatMesh(
        vertices=tetrahedron_mesh.vertices,
        normals=tetrahedron_mesh.normals,
        faces=tetrahedron_mesh.faces[:3],
    )
    with pytest.raises(MeshValidationError, match=r"edge \(\d+, \d+\)"):
        open_mesh.validate()


def test_dropped_face_names_first_open_edge():
    """Dropping face 0 of a level-1 icosphere opens its three edges; the
    error names the lowest (i, j) and its face count."""
    mesh = icosahedral_sphere(1)
    holed = FlatMesh(vertices=mesh.vertices, normals=mesh.normals, faces=mesh.faces[1:])
    with pytest.raises(
        MeshValidationError,
        match=r"^mesh is not closed: edge \(0, 12\) belongs to 1 face\(s\), expected 2$",
    ):
        holed.validate()


def test_inconsistent_orientation_rejected(tetrahedron_mesh):
    faces = tetrahedron_mesh.faces.copy()
    faces[0] = faces[0][::-1]
    flipped = FlatMesh(
        vertices=tetrahedron_mesh.vertices,
        normals=tetrahedron_mesh.normals,
        faces=faces,
    )
    with pytest.raises(MeshValidationError):
        flipped.validate()


def test_non_unit_normal_rejected(tetrahedron_mesh):
    with pytest.raises(MeshValidationError):
        FlatMesh(
            vertices=tetrahedron_mesh.vertices,
            normals=tetrahedron_mesh.normals * 1.5,
            faces=tetrahedron_mesh.faces,
        ).validate()


@pytest.mark.parametrize(
    "array,name", [("vertices", "position"), ("normals", "normal")]
)
def test_non_finite_vertex_data_rejected(tetrahedron_mesh, array, name):
    data = {
        "vertices": tetrahedron_mesh.vertices.copy(),
        "normals": tetrahedron_mesh.normals.copy(),
    }
    data[array][3, 0] = np.inf
    data[array][2, 1] = np.nan
    mesh = FlatMesh(faces=tetrahedron_mesh.faces, **data)
    with pytest.raises(MeshValidationError, match=f"vertex 2 has a non-finite {name}"):
        mesh.validate()


@pytest.mark.parametrize("t", [0.5, 0.0], ids=["edge-midpoint", "repeated-vertex"])
def test_zero_area_face_rejected(t):
    """Face 0's third vertex moved onto its first edge: a sliver, or a point pair."""
    mesh = icosahedral_sphere(1, radius=2.0)
    a, b, c = mesh.faces[0]
    vertices = mesh.vertices.copy()
    vertices[c] = (1.0 - t) * vertices[a] + t * vertices[b]
    bad = FlatMesh(vertices=vertices, normals=mesh.normals, faces=mesh.faces)
    with pytest.raises(MeshValidationError, match="^face 0 has zero area$"):
        bad.validate()


@pytest.mark.parametrize("column,name", [(1, "position"), (4, "normal")])
def test_nan_in_vert_file_rejected(tetrahedron_mesh, column, name):
    vert_text, face_text = write_msms(tetrahedron_mesh)
    lines = vert_text.splitlines()
    tokens = lines[3].split()  # two header lines, then vertex 0, vertex 1
    tokens[column] = "nan"
    lines[3] = " ".join(tokens)
    with pytest.raises(MeshValidationError, match=f"vertex 1 has a non-finite {name}"):
        parse_msms("\n".join(lines) + "\n", face_text)


def test_zero_normal_in_vert_file():
    vert = "1.0 0.0 0.0 0.0 0.0 0.0\n" * 4
    with pytest.raises(MeshFormatError, match="normal"):
        parse_msms(vert, "1 2 3\n1 4 2\n2 4 3\n3 4 1\n")


@pytest.mark.parametrize(
    "level,n_faces,n_vertices", [(0, 20, 12), (1, 80, 42), (2, 320, 162)]
)
def test_icosphere_counts(level, n_faces, n_vertices):
    mesh = icosahedral_sphere(level)
    assert mesh.n_faces == n_faces
    assert mesh.n_vertices == n_vertices
    assert n_vertices == n_faces // 2 + 2  # Euler: V = F/2 + 2


def test_icosphere_vertices_on_sphere():
    center = np.array([1.0, -2.0, 0.5])
    mesh = icosahedral_sphere(2, radius=1.0, center=center)
    radii = np.linalg.norm(mesh.vertices - center, axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-14
    # normals are exact radial directions
    radial = (mesh.vertices - center) / radii[:, None]
    assert np.abs(mesh.normals - radial).max() <= 1e-14


@pytest.mark.parametrize("level", [-1, 8])
def test_icosphere_level_guard(level):
    with pytest.raises(ValueError):
        icosahedral_sphere(level)


@pytest.mark.parametrize(
    "radius, center, name",
    [(np.nan, (0.0, 0.0, 0.0), "radius"), (np.inf, (0.0, 0.0, 0.0), "radius"),
     (-1.0, (0.0, 0.0, 0.0), "radius"), (1.0, (0.0, np.nan, 0.0), "center"),
     (1.0, (np.inf, 0.0, 0.0), "center"), (1.0, (0.0, 0.0), "center")],
)
def test_icosphere_rejects_a_bad_radius_or_center_by_name(radius, center, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        icosahedral_sphere(1, radius=radius, center=center)


def test_icosphere_valences_level1():
    mesh = icosahedral_sphere(1)
    valence = np.bincount(mesh.faces.reshape(-1))
    counts = dict(zip(*np.unique(valence, return_counts=True)))
    assert counts == {5: 12, 6: 30}


def test_flat_area_below_sphere_area_and_converging():
    exact = 4.0 * np.pi
    areas = [flat_area(icosahedral_sphere(level)) for level in range(4)]
    assert all(a < exact for a in areas)
    assert all(b > a for a, b in zip(areas, areas[1:]))
    assert exact - areas[3] < 0.01 * exact


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_generated_meshes_validate(level):
    icosahedral_sphere(level, radius=2.0).validate()


def test_parse_charges_examples():
    cs = parse_charges("0 0 0 1\n")
    assert len(cs) == 1
    assert cs.positions[0] == pytest.approx([0.0, 0.0, 0.0])
    assert cs.charges[0] == 1.0

    assert len(parse_charges("")) == 0
    assert len(parse_charges("# only a comment\n\n")) == 0

    cs = parse_charges("0.9 0 0 1.0 1.5\n")  # pqr-style radius column ignored
    assert cs.positions[0] == pytest.approx([0.9, 0.0, 0.0])
    assert cs.charges[0] == 1.0


def test_parse_charges_errors():
    with pytest.raises(MeshFormatError, match="line 1"):
        parse_charges("0 0 0\n")
    with pytest.raises(MeshFormatError, match="line 2"):
        parse_charges("0 0 0 1\n0 zero 0 1\n")


def test_charge_system_length_mismatch():
    with pytest.raises(ValueError):
        ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0, 2.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_charge_system_rejects_non_finite_values(value):
    """A non-finite position or charge fails at construction and names the
    first bad charge, instead of surfacing later as a GMRES breakdown."""
    positions = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"^charge 1: non-finite position"):
        ChargeSystem(positions=[positions[0], [0.1, value, 0.0], [value] * 3],
                     charges=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"^charge 2: non-finite charge"):
        ChargeSystem(positions=positions, charges=[1.0, -1.0, value])
    with pytest.raises(ValueError, match=r"^charge 0: non-finite position"):
        ChargeSystem(positions=[[value, 0.0, 0.0], *positions[1:]],
                     charges=[value, 1.0, 1.0])


def test_write_msms_reparses_cleanly(tetrahedron_mesh):
    mesh = parse_msms(*write_msms(tetrahedron_mesh))
    assert np.array_equal(mesh.vertices, tetrahedron_mesh.vertices)
    assert np.array_equal(mesh.faces, tetrahedron_mesh.faces)
    assert np.abs(mesh.normals - tetrahedron_mesh.normals).max() <= 1e-15


@settings(max_examples=15, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=2),
    radius=st.floats(min_value=0.5, max_value=5.0),
    cx=st.floats(min_value=-3.0, max_value=3.0),
)
def test_icosphere_property(level, radius, cx):
    center = (cx, 0.25, -0.5)
    mesh = icosahedral_sphere(level, radius=radius, center=center)
    mesh.validate()
    assert mesh.n_faces == 20 * 4**level
    radii = np.linalg.norm(mesh.vertices - np.asarray(center), axis=1)
    assert np.abs(radii - radius).max() <= 1e-13 * max(1.0, radius)
    edges = set()
    for a, b, c in mesh.faces:
        for e in ((a, b), (b, c), (c, a)):
            edges.add((min(e), max(e)))
    assert mesh.n_vertices - len(edges) + mesh.n_faces == 2  # Euler characteristic


@settings(max_examples=10, deadline=None)
@given(
    radius=st.floats(min_value=0.25, max_value=8.0),
    level=st.integers(min_value=0, max_value=1),
)
def test_msms_round_trip_property(radius, level):
    mesh = icosahedral_sphere(level, radius=radius, center=(0.1, -0.2, 0.3))
    back = parse_msms(*write_msms(mesh))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)
    assert np.abs(back.normals - mesh.normals).max() <= 1e-15


def test_mesh_arrays_are_immutable(tetrahedron_mesh):
    with pytest.raises((ValueError, RuntimeError)):
        tetrahedron_mesh.vertices[0, 0] = 99.0


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_subdivide_equals_face_loop(level):
    """The array-built split numbers the midpoints as the face-by-face
    loop does and reprojects them to the same bits: faces and vertices
    are bitwise equal at every level."""
    verts, faces = ref_verts, ref_faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
        ref_verts, ref_faces = subdivide(ref_verts, ref_faces)
    assert np.array_equal(faces, ref_faces)
    assert np.array_equal(verts.view(np.int64), ref_verts.view(np.int64))
