"""Curved cubic surface elements built from flat triangles with vertex normals.

Each flat triangle is upgraded to a 10-node cubic element: a Hermite-like
arc is fitted along each edge from its two vertex normals, and a cross arc
between edges 1-2 and 1-3 carries the interior node. Node layout on the
reference triangle (r, s >= 0, r + s <= 1), numbered 1..10 and stored
0-based in that order:

    1 = (0, 0)    2 = (1/3, 0)    3 = (0, 1/3)    4 = (1, 0)    5 = (2/3, 0)
    6 = (0, 2/3)  7 = (2/3, 1/3)  8 = (1/3, 2/3)  9 = (0, 1)   10 = (1/3, 1/3)

Vertices are nodes 1, 4, 9; node 10 is interior. Positions anywhere on an
element come from the cubic Lagrange basis on these nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateArcError(ValueError):
    """An edge arc could not be fitted; `index` locates it in a batch."""

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        super().__init__(message)
        self.index = index


class DegenerateElementError(ValueError):
    """An element's surface Jacobian vanished; `index` locates it in a batch
    and `point` is the reference point (r, s)."""

    def __init__(self, message: str, index: tuple[int, ...] = (), point=None):
        super().__init__(message)
        self.index = index
        self.point = point


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, summed in a fixed order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _check(failures, pending: list | None) -> None:
    """Queue (mask, cause) failures on `pending`, or raise now if it is None.

    A batch raises as its first failing member would alone: the first
    leading index where any mask is set, with the first cause set there.
    """
    if pending is not None:
        pending.extend(failures)
        return
    bad = np.stack(np.broadcast_arrays(*(mask for mask, _ in failures)))
    hit = bad.reshape(len(failures), -1)
    if hit.any():
        first = int(np.argmax(hit.any(axis=0)))
        cause = failures[int(np.argmax(hit[:, first]))][1]
        index = tuple(int(i) for i in np.unravel_index(first, bad.shape[1:]))
        raise DegenerateArcError(cause, index)


# ---------------------------------------------------------------------------
# edge arcs; every helper broadcasts over leading axes of (..., 3) inputs


@dataclass(frozen=True)
class CubicArc:
    """Space curve x(t) = c0 + c1 t + c2 t^2 + c3 t^3, t in [0, 1]."""

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray


def fit_arc(p0, n0, p1, n1, pending: list | None = None) -> CubicArc:
    """Fit a cubic arc between two surface points with outward unit normals.

    Endpoint tangents are the chord projected orthogonally to each endpoint
    normal. Their magnitude is 2|c|/(1 + cos(theta)), theta being half the
    turning angle between the projected directions; this reproduces straight
    segments exactly (theta = 0 gives chord length) and keeps circular arcs
    accurate to fourth order, where plain chord-length tangents would leave
    an O(theta^2) bulge error. Degenerate arcs raise DegenerateArcError, or
    are queued on `pending` (see `_check`) and their coefficients are void.
    """
    p0, n0, p1, n1 = (np.asarray(x, dtype=float) for x in (p0, n0, p1, n1))
    chord = p1 - p0
    clen = np.sqrt(_dot(chord, chord))
    t0 = chord - _dot(chord, n0)[..., None] * n0
    t1 = chord - _dot(chord, n1)[..., None] * n1
    l0 = np.sqrt(_dot(t0, t0))
    l1 = np.sqrt(_dot(t1, t1))
    coincide = clen < 1e-300
    parallel = (l0 < 1e-12 * clen) | (l1 < 1e-12 * clen)
    _check([(coincide, "arc endpoints coincide"),
            (parallel, "endpoint normal is nearly parallel to the chord")], pending)
    bad = coincide | parallel
    t0 = t0 / np.where(bad, 1.0, l0)[..., None]
    t1 = t1 / np.where(bad, 1.0, l1)[..., None]
    cos2t = np.clip(_dot(t0, t1), -1.0, 1.0)
    cost = np.sqrt(0.5 * (1.0 + cos2t))
    mag = (2.0 * clen / (1.0 + cost))[..., None]
    m0 = mag * t0
    m1 = mag * t1
    return CubicArc(
        c0=p0,
        c1=m0,
        c2=-3.0 * p0 + 3.0 * p1 - 2.0 * m0 - m1,
        c3=2.0 * p0 - 2.0 * p1 + m0 + m1,
    )


def arc_point(arc: CubicArc, t: float) -> np.ndarray:
    return arc.c0 + t * (arc.c1 + t * (arc.c2 + t * arc.c3))


def arc_velocity(arc: CubicArc, t: float) -> np.ndarray:
    return arc.c1 + t * (2.0 * arc.c2 + t * (3.0 * arc.c3))


def arc_acceleration(arc: CubicArc, t: float) -> np.ndarray:
    return 2.0 * arc.c2 + 6.0 * t * arc.c3


def arc_normal(arc: CubicArc, t: float, reference) -> tuple[np.ndarray, np.ndarray]:
    """Unit surface normal along an arc, from the curvature direction.

    The curvature vector is the acceleration with its tangential component
    removed, scaled by 1/|velocity|; only its direction matters here. The
    sign is fixed to give a positive dot product with `reference`. Where the
    arc is locally straight (|curvature| < 1e-12) the reference itself is
    returned and the second element of the result is True there.
    """
    reference = np.asarray(reference, dtype=float)
    v = arc_velocity(arc, t)
    a = arc_acceleration(arc, t)
    v2 = _dot(v, v)
    moving = v2 >= 1e-300
    v2 = np.where(moving, v2, 1.0)
    kappa = (a - (_dot(v, a) / v2)[..., None] * v) / np.sqrt(v2)[..., None]
    klen = np.sqrt(_dot(kappa, kappa))
    straight = ~moving | (klen < 1e-12)
    n = kappa / np.where(straight, 1.0, klen)[..., None]
    n = np.where((_dot(n, reference) < 0.0)[..., None], -n, n)
    return np.where(straight[..., None], reference, n), straight


# ---------------------------------------------------------------------------
# reference-triangle layout and the cubic Lagrange basis

REFERENCE_NODES = np.array(
    [
        (0.0, 0.0),
        (1.0 / 3.0, 0.0),
        (0.0, 1.0 / 3.0),
        (1.0, 0.0),
        (2.0 / 3.0, 0.0),
        (0.0, 2.0 / 3.0),
        (2.0 / 3.0, 1.0 / 3.0),
        (1.0 / 3.0, 2.0 / 3.0),
        (0.0, 1.0),
        (1.0 / 3.0, 1.0 / 3.0),
    ]
)

_MONO_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                (3, 0), (2, 1), (1, 2), (0, 3))


def _monomials(pts: np.ndarray) -> np.ndarray:
    r = pts[..., 0]
    s = pts[..., 1]
    return np.stack([r**i * s**j for i, j in _MONO_POWERS], axis=-1)


def _monomial_gradients(pts: np.ndarray):
    r = pts[..., 0]
    s = pts[..., 1]
    zero = np.zeros_like(r)
    dr = np.stack(
        [i * r ** (i - 1) * s**j if i else zero for i, j in _MONO_POWERS],
        axis=-1,
    )
    ds = np.stack(
        [j * r**i * s ** (j - 1) if j else zero for i, j in _MONO_POWERS],
        axis=-1,
    )
    return dr, ds


def _basis_coefficients() -> np.ndarray:
    """Invert the generalized Vandermonde of cubic monomials at the nodes."""
    vand = _monomials(REFERENCE_NODES)
    coef = np.linalg.inv(vand)
    check = vand @ coef - np.eye(10)
    if np.abs(check).max() > 1e-13:
        raise RuntimeError("cubic Lagrange basis failed its Kronecker check")
    probe = np.array([(0.2, 0.3), (0.05, 0.9), (1.0 / 3.0, 1.0 / 3.0)])
    sums = _monomials(probe) @ coef
    if np.abs(sums.sum(axis=1) - 1.0).max() > 1e-13:
        raise RuntimeError("cubic Lagrange basis failed partition of unity")
    return coef


_BASIS_COEF = _basis_coefficients()


def shape_matrix(pts: np.ndarray) -> np.ndarray:
    """Basis values at many points: (m, 2) -> (m, 10)."""
    return _monomials(np.asarray(pts, dtype=float)) @ _BASIS_COEF


def shape_gradient_matrices(pts: np.ndarray):
    """Basis gradients at many points: (m, 2) -> pair of (m, 10)."""
    dr, ds = _monomial_gradients(np.asarray(pts, dtype=float))
    return dr @ _BASIS_COEF, ds @ _BASIS_COEF


# ---------------------------------------------------------------------------
# curved elements


def _blend_reference(n0, n1, t: float, pending: list | None = None) -> np.ndarray:
    """Unit interpolant of two endpoint normals, used as a sign reference."""
    ref = (1.0 - t) * np.asarray(n0, dtype=float) + t * np.asarray(n1, dtype=float)
    length = np.sqrt(_dot(ref, ref))
    antiparallel = length < 1e-12
    _check([(antiparallel, "endpoint normals are antiparallel")], pending)
    return ref / np.where(antiparallel, 1.0, length)[..., None]


def nodes_from_vertex_data(x1, n1, x2, n2, x3, n3):
    """Build the 10 node positions and normals from three vertices.

    Each edge is an arc fitted from its two vertices and their normals
    alone, as in curved PN triangles (Vlachos et al., I3D 2001), so the
    two faces that share an edge put the same nodes on it and the curved
    surface is watertight. The interior node sits at the parameter midpoint
    of a cross arc through edge nodes 5 and 6. Vertex nodes keep the input
    positions and normals bitwise. Inputs are (..., 3) and the result is a
    pair of (..., 10, 3) arrays; a degenerate member raises
    DegenerateArcError carrying its leading index.
    """
    x1, n1, x2, n2, x3, n3 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (x1, n1, x2, n2, x3, n3))
    )
    nodes = np.empty(x1.shape[:-1] + (10, 3))
    normals = np.empty_like(nodes)
    nodes[..., 0, :], normals[..., 0, :] = x1, n1
    nodes[..., 3, :], normals[..., 3, :] = x2, n2
    nodes[..., 8, :], normals[..., 8, :] = x3, n3

    # checks queue in the order a lone element would meet them
    pending = []
    arc12 = fit_arc(x1, n1, x2, n2, pending)
    arc13 = fit_arc(x1, n1, x3, n3, pending)
    third = 1.0 / 3.0
    for arc, n_end, edge in ((arc12, n2, (1, 4)), (arc13, n3, (2, 5))):
        for local, u in zip(edge, (third, 2 * third)):
            nodes[..., local, :] = arc_point(arc, u)
            normals[..., local, :], _ = arc_normal(
                arc, u, _blend_reference(n1, n_end, u, pending)
            )

    # edge between vertices 2 and 3: nodes 7 and 8
    arc23 = fit_arc(x2, n2, x3, n3, pending)
    for local, v in ((6, third), (7, 2 * third)):
        nodes[..., local, :] = arc_point(arc23, v)
        normals[..., local, :], _ = arc_normal(
            arc23, v, _blend_reference(n2, n3, v, pending)
        )

    # cross arc at u = 2/3 through edge nodes 5 and 6: interior node 10
    e5, e6 = nodes[..., 4, :], nodes[..., 5, :]
    m5, m6 = normals[..., 4, :], normals[..., 5, :]
    cross = fit_arc(e5, m5, e6, m6, pending)
    nodes[..., 9, :] = arc_point(cross, 0.5)
    normals[..., 9, :], _ = arc_normal(
        cross, 0.5, _blend_reference(m5, m6, 0.5, pending)
    )
    _check(pending, None)
    return nodes, normals


def frames_at(node_pos: np.ndarray, node_nrm: np.ndarray, pts: np.ndarray):
    """Vectorized frames for many elements at the same reference points.

    node_pos, node_nrm: (n_e, 10, 3). pts: (m, 2).
    Returns positions (n_e, m, 3), oriented unit normals (n_e, m, 3), and
    Jacobians (n_e, m). A vanishing Jacobian raises DegenerateElementError
    for the first such element and point.
    """
    basis = shape_matrix(pts)  # (m, 10)
    g_r, g_s = shape_gradient_matrices(pts)
    pos = np.einsum("mk,eki->emi", basis, node_pos)
    xr = np.einsum("mk,eki->emi", g_r, node_pos)
    xs = np.einsum("mk,eki->emi", g_s, node_pos)
    cr = np.cross(xr, xs)
    jac = np.linalg.norm(cr, axis=-1)
    bad = np.argwhere(jac < 1e-14)
    if bad.size:
        e, m = (int(i) for i in bad[0])
        r, s = (float(c) for c in pts[m])
        raise DegenerateElementError(
            f"element {e}: vanishing Jacobian at (r, s) = ({r}, {s})", (e,), (r, s)
        )
    nrm = cr / jac[..., None]
    hint = np.einsum("mk,eki->emi", basis, node_nrm)
    sign = np.where(np.einsum("emi,emi->em", nrm, hint) < 0.0, -1.0, 1.0)
    return pos, nrm * sign[..., None], jac
