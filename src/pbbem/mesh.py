"""Surface meshes and point charges: file ingest and sphere generation.

Meshes arrive either from an external triangulation tool in the MSMS
.vert/.face text convention or from the built-in icosahedral sphere
generator. All internal indices are 0-based; vertex normals are unit length
and outward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshFormatError(ValueError):
    """A mesh or charge file could not be parsed."""


class MeshValidationError(ValueError):
    """A parsed mesh violates a structural invariant (open edge, bad index...)."""


@dataclass(frozen=True, eq=False)
class FlatMesh:
    """Triangulated closed surface with per-vertex outward unit normals."""

    vertices: np.ndarray  # (n_v, 3) positions in Angstrom
    normals: np.ndarray  # (n_v, 3) unit vectors
    faces: np.ndarray  # (n_f, 3) 0-based vertex indices, outward orientation
    _valid: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        n = np.array(self.normals, dtype=float)
        f = np.array(self.faces, dtype=np.int64)
        for a in (v, n, f):
            a.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def validate(self) -> None:
        """Check finite data, unit normals, indices, that every vertex is
        used, area, orientation, closedness: once, the arrays are read-only."""
        if self._valid:
            return
        for name, data in (("position", self.vertices), ("normal", self.normals)):
            bad = np.nonzero(~np.isfinite(data).all(axis=1))[0]
            if bad.size:
                raise MeshValidationError(f"vertex {bad[0]} has a non-finite {name}")
        lengths = np.linalg.norm(self.normals, axis=1)
        bad = np.nonzero(np.abs(lengths - 1.0) > 1e-12)[0]
        if bad.size:
            raise MeshValidationError(
                f"normal {bad[0]} has length {lengths[bad[0]]!r}, expected 1"
            )
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= self.n_vertices
        ):
            j = np.nonzero((self.faces < 0) | (self.faces >= self.n_vertices))[0][0]
            raise MeshValidationError(
                f"face {j} references a vertex outside [0, {self.n_vertices})"
            )
        # a vertex no face holds would be a decoupled unknown of the solve
        used = np.bincount(self.faces.ravel(), minlength=self.n_vertices)
        stray = np.nonzero(used == 0)[0]
        if stray.size:
            raise MeshValidationError(f"vertex {stray[0]} belongs to no face")
        a, b, c = (self.vertices[self.faces[:, k]] for k in range(3))
        geo = np.cross(b - a, c - a)
        # a sliver's normal is rounding noise, so area is checked first
        squares = [np.einsum("ij,ij->i", e, e) for e in (b - a, c - b, a - c)]
        flat = np.nonzero(np.linalg.norm(geo, axis=1) <= 1e-12 * np.max(squares, 0))[0]
        if flat.size:
            raise MeshValidationError(f"face {flat[0]} has zero area")
        # orientation: geometric normal must agree with the vertex normals
        mean_n = self.normals[self.faces].mean(axis=1)
        dots = np.einsum("ij,ij->i", geo, mean_n)
        flipped = np.nonzero(dots <= 0.0)[0]
        if flipped.size:
            raise MeshValidationError(
                f"face {flipped[0]} is oriented against its vertex normals"
            )
        _check_closed(self.faces)
        object.__setattr__(self, "_valid", True)


def half_edges(faces: np.ndarray):
    """(ends, keys, n): each face's half-edges ab, bc, ca as ends (2, N_f, 3),
    start and end vertex, and their undirected keys min * n + max, where n is
    the largest vertex index plus one, so the keys sort edges by (low, high)."""
    n = int(faces.max(initial=0)) + 1
    ends = np.stack([faces, np.roll(faces, -1, axis=1)])
    return ends, ends.min(axis=0) * n + ends.max(axis=0), n


def _check_closed(faces: np.ndarray) -> None:
    """Every undirected edge must be shared by exactly two faces."""
    _, keys, n = half_edges(faces)
    keys, counts = np.unique(keys, return_counts=True)
    bad = np.nonzero(counts != 2)[0]
    if bad.size:
        i, j = divmod(int(keys[bad[0]]), n)
        raise MeshValidationError(
            f"mesh is not closed: edge ({i}, {j}) belongs to {counts[bad[0]]} "
            f"face(s), expected 2"
        )


@dataclass(frozen=True, eq=False)
class ChargeSystem:
    """Point charges: positions in Angstrom, charges in elementary-charge units."""

    positions: np.ndarray  # (n_c, 3)
    charges: np.ndarray  # (n_c,)

    def __post_init__(self):
        p = np.array(self.positions, dtype=float).reshape(-1, 3)
        q = np.array(self.charges, dtype=float).reshape(-1)
        if p.shape[0] != q.shape[0]:
            raise ValueError(f"{p.shape[0]} positions but {q.shape[0]} charges")
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            i = int(np.argmin(np.isfinite(p).all(axis=1) & np.isfinite(q)))
            what = "position" if not np.isfinite(p[i]).all() else "charge"
            raise ValueError(f"charge {i}: non-finite {what} (position {p[i].tolist()}, "
                             f"charge {q[i]})")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "charges", q)

    def __len__(self) -> int:
        return self.charges.size


# ---------------------------------------------------------------------------
# MSMS-style .vert / .face text


def _data_lines(text: str):
    """Yield (1-based line number, tokens) for non-blank, non-comment lines."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def _is_real(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True


def parse_msms(vert_text: str, face_text: str) -> FlatMesh:
    """Parse MSMS .vert/.face contents into a validated FlatMesh.

    Header lines are skipped by shape rather than by position: a .vert record
    needs at least six reals (x y z nx ny nz), a .face record at least three
    integers (1-based vertex indices). Anything else is treated as a header,
    which survives MSMS version drift. A line that starts like a record but
    breaks midway is an error, reported with its line number. Normals are
    renormalized because MSMS writes them with 3-digit precision.
    """
    verts = []
    for ln, tok in _data_lines(vert_text):
        if len(tok) < 6 or not _is_real(tok[0]):
            continue  # header / comment
        try:
            verts.append([float(t) for t in tok[:6]])
        except ValueError as exc:
            raise MeshFormatError(f".vert line {ln}: {exc}") from None
    faces = []
    for ln, tok in _data_lines(face_text):
        if len(tok) < 3 or not all(_is_int(t) for t in tok[:3]):
            continue  # header / comment (count lines carry a real-valued density)
        i, j, k = (int(t) for t in tok[:3])
        if min(i, j, k) < 1:
            raise MeshFormatError(
                f".face line {ln}: vertex indices are 1-based, got {(i, j, k)}"
            )
        faces.append((i - 1, j - 1, k - 1))
    if not verts:
        raise MeshFormatError("no vertex records found in .vert text")
    if not faces:
        raise MeshFormatError("no face records found in .face text")
    data = np.asarray(verts, dtype=float)
    normals = data[:, 3:6]
    lengths = np.linalg.norm(normals, axis=1)
    zero = np.nonzero(lengths < 1e-300)[0]
    if zero.size:
        raise MeshFormatError(f"vertex {zero[0]} has a zero normal")
    mesh = FlatMesh(
        vertices=data[:, 0:3],
        normals=normals / lengths[:, None],
        faces=np.asarray(faces, dtype=np.int64),
    )
    mesh.validate()
    return mesh


def write_msms(mesh: FlatMesh) -> tuple[str, str]:
    """Render a mesh back to MSMS-style (vert_text, face_text).

    The emitted headers are plain comments so parse_msms(*write_msms(m))
    round-trips. Coordinates keep full precision: the round-trip is exact.
    """
    vlines = [
        "# vertices: x y z nx ny nz",
        f"{mesh.n_vertices} 1 1.0 1.0",
    ]
    for p, n in zip(mesh.vertices, mesh.normals):
        cols = [repr(float(v)) for v in (*p, *n)]
        vlines.append(" ".join(cols) + " 0 0 0")
    flines = [
        "# faces: i j k (1-based)",
        f"{mesh.n_faces} 1",
    ]
    for f in mesh.faces:
        flines.append(f"{f[0] + 1} {f[1] + 1} {f[2] + 1} 1 1")
    return "\n".join(vlines) + "\n", "\n".join(flines) + "\n"


def parse_charges(text: str) -> ChargeSystem:
    """Parse a charge file: one 'x y z q' record per line.

    A fifth column (atom radius in pqr-like files) is ignored. '#' starts a
    comment; blank lines are skipped.
    """
    rows = []
    for ln, tok in _data_lines(text):
        if len(tok) < 4:
            raise MeshFormatError(
                f"charge line {ln}: need at least 'x y z q', got {tok!r}"
            )
        try:
            rows.append([float(t) for t in tok[:4]])
        except ValueError as exc:
            raise MeshFormatError(f"charge line {ln}: {exc}") from None
    data = np.asarray(rows, dtype=float).reshape(-1, 4)
    return ChargeSystem(positions=data[:, 0:3], charges=data[:, 3])


# ---------------------------------------------------------------------------
# icosahedral spheres


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """Unit icosahedron: 12 vertices, 20 outward-oriented faces."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
            (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
            (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def icosahedral_sphere(
    level: int,
    radius: float = 1.0,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> FlatMesh:
    """Subdivided icosahedron projected onto a sphere.

    Level 0 is the icosahedron itself (20 faces, 12 vertices); each level
    quadruples the face count by edge-midpoint splitting followed by radial
    projection. Normals are exact: radial from the center.
    """
    if not 0 <= level <= 7:
        raise ValueError(f"refinement level must be in [0, 7], got {level}")
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    c = np.asarray(center, dtype=float)
    if c.shape != (3,) or not np.isfinite(c).all():
        raise ValueError(f"center must be 3 finite coordinates, got {center}")
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    # verts stay on the unit sphere throughout; scale and shift once
    return FlatMesh(vertices=c + radius * verts, normals=verts.copy(), faces=faces)


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    """One 4-to-1 split with unit-sphere reprojection of the new midpoints,
    numbered as their edges first appear: face by face, ab, bc, ca."""
    n = len(verts)
    a, b, c = faces.T
    ends, keys, _ = half_edges(faces)
    _, first, inverse = np.unique(keys.reshape(-1), return_index=True, return_inverse=True)
    ab, bc, ca = (n + np.argsort(np.argsort(first)))[inverse].reshape(-1, 3).T
    mid = verts[ends.reshape(2, -1)[:, np.sort(first)]].sum(axis=0)
    # the length as np.linalg.norm forms it for one vector, a dot product,
    # so the midpoints keep the bits of a vertex-by-vertex reprojection
    mid /= np.sqrt(mid[:, None, :] @ mid[:, :, None])[:, 0]
    new_faces = np.array([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.concatenate([verts, mid]), new_faces.transpose(2, 0, 1).reshape(-1, 3)

