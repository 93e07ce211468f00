"""Matrix-free boundary-integral solver for the linearized PB equation.

The phi and the dphi/dn equation of the second-kind system (Juffer et al.,
J. Comput. Phys. 97, 1991) are each divided by their jump coefficient,
alpha1 = (1 + er)/2 and alpha2 = (1 + 1/er)/2 with er = eps2/eps1, so the
operator is the identity minus the kernel sums and its spectrum clusters
at 1 instead of at two values ~er apart. The unknowns stay the physical
(phi, dphi/dn). GMRES stops on the larger of the two equations' relative
residuals, which this row scaling does not change. It runs one Arnoldi
process of at most GMRES_STEPS steps on one Hessenberg matrix and stops
at the first step whose residual, from its Arnoldi relation and no
matvec, meets that test.

Two discretizations of the same well-conditioned second-kind system:

* higher-order (scheme "hobi"): unknowns at the N_v mesh vertices, geometry
  from curved cubic elements, fields interpolated linearly from the three
  triangle vertices, singular integrals regularized by a Duffy-mapped
  product rule on elements rotated so the target vertex sits at (r,s)=(0,0);
* low-order (scheme "lobi"): unknowns at the N_f flat centroids, one-point
  quadrature, the self term dropped.

One call runs the pipeline: ``problem = discretize(mesh, params, charges,
config)`` builds the quadrature caches, then ``solve(problem, config)``
assembles the right-hand side, opens the (optionally pooled) operator, runs
GMRES on it and closes the pool before returning the surface
traces. ``assemble_rhs``, ``make_operator`` and ``gmres_solve`` stay public
for callers that time or wrap the steps one by one.

Nothing is ever assembled into a matrix. Both schemes store a regular
rule on every element and each collocation row's near elements. One tiled
sweep (_apply_chunks) is the matvec of both: the (T, N) pairs of rows and
regular-rule sources are cut into tiles of at most TILE x TILE pairs
(_tile_layout), each evaluated as one block, each row skipping its near
elements' sources, and its row sums go to its rows. Every tile is products
of kernel factors with source moments about the problem's origin
(kernels.kernel_sums); the moments carry the kernels' 1/(4 pi), so the
factors' g is 1/r^3. hobi sweeps every tile of the rectangle, and the
operator then adds each row's near values from the table of _near_table.
lobi's sources are its collocation points, one per element, and a row
skips only its own (_self_sourced), so pair
(i, j) and its swap share every kernel factor: lobi sweeps the tiles
(I, J >= I) of the square, and an off-diagonal tile also sends the swapped
pairs' sums, square products of the factors' transposes, to its columns.

All of this but the moments is fixed by the geometry, so it is built once
into a sweep plan (_sweep_plan): the layout, the rows' and columns'
factors and weights, every tile's views and near-pair mask, and the
scratch. A serial operator builds its plan at its first matvec and a
pool's workers each build their own as they start, never the parent; a
matvec task then forms only u's moments (_sweep_moments) and sweeps
(_apply_chunks).

The tiles form STRIP_CHUNKS chunks, the matvec's fixed work list; each
chunk sums from zero in tile order and the chunks are added over a fixed
binary tree. Matrix products round by their sizes, so every matvec's bits
follow the tile layout, a function of T and N alone, never of the worker
count. The solvation energy (the charges over the regular rule's
sources, kernels.reaction_terms_at) and the right-hand side (the rows
over the charges, kernels.source_terms_at) are each one kernels call
over tiles of the same layout, each row adding its tiles in order, so
every regular sum rounds by _tile_layout alone.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .geometry import DegenerateElementError, curved_nodes, frames_at
from .kernels import (
    FOUR_PI,
    KCAL_MOL_PER_E2_ANG,
    PAGE_DOUBLES,
    PhysicalParams,
    kernel_scratch,
    kernel_sums,
    kernel_values_d,
    reaction_terms_at,
    source_moments,
    source_terms_at,
    square_factors,
    sweep_buffers,
    target_factors,
)
from .mesh import ChargeSystem, FlatMesh
from .quadrature import TriangleRule, duffy_rule, gauss_radau_rule

SCHEMES = ("hobi", "lobi")

# The kernel sweep's layout, a function of the number of rows T and of
# sources N alone (N = T if self-sourced): tiles of at most TILE x TILE
# pairs, whose six scratch blocks (1.8 MB) stay in a 2 MB L2 cache and
# whose kernel work outweighs a tile's fixed interpreter cost (30-45 us at
# kappa > 0 on a 2-CPU Xeon host), in STRIP_CHUNKS chunks of near-equal
# pair count.
TILE = 192
STRIP_CHUNKS = 16
# GMRES's step budget: its basis holds at most GMRES_STEPS + 1 vectors. The
# second-kind system converges in a few steps (3 to 6 on the benchmark's
# spheres, at most 36 on a Gaussian molecular surface), so one Arnoldi
# process without restarts suffices
GMRES_STEPS = 100
# rotated elements per chunk of _near_table's Duffy frames: a level-3 hobi
# discretize traces a 4.7 MB peak at 512, 6.0 MB at 1024, 11.7 MB unchunked
NEAR_CHUNK = 512

# hobi's two rules, the paper's: the 4-point rule on every element, and
# the 16-point Duffy-mapped product rule on each vertex's incident ones;
# each built and verified once, at import
REGULAR_RULE = gauss_radau_rule()
DUFFY_RULE = duffy_rule(4)
# the mask of every plan tile without near pairs, most of a large mesh's
# tiles: one shared pair of empty indices instead of two views a tile
_NO_PAIRS = (np.empty(0, np.intp),) * 2


class GmresNonConvergence(RuntimeError):
    """GMRES took GMRES_STEPS steps short of the tolerance; carries the best
    residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class GmresBreakdown(GmresNonConvergence):
    """GMRES met a non-finite residual, or a rank-deficient Hessenberg matrix
    short of the tolerance, from which no later step could recover."""


class WorkerDied(RuntimeError):
    """A matvec worker process ended before it returned its part."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs, plain values that compare and hash by value; defaults
    reproduce the reference setup. hobi's rules are no knobs (REGULAR_RULE,
    DUFFY_RULE)."""

    scheme: str = "hobi"
    tolerance: float = 1e-6
    workers: int | None = None  # None: every CPU this process may run on

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")
        w = self.workers  # NumPy ints pass, bools fail
        if w is not None and (isinstance(w, bool) or not isinstance(w, (int, np.integer))
                              or w < 1):
            raise ValueError(f"workers must be an int >= 1, got {w!r}")

    def worker_count(self) -> int:
        """The matvec workers that run: workers, or every CPU this process
        may run on, at most STRIP_CHUNKS, past which a worker holds no chunk."""
        count = self.workers
        if count is None:
            affinity = getattr(os, "sched_getaffinity", None)
            count = len(affinity(0)) if affinity else os.cpu_count() or 1
        return min(count, STRIP_CHUNKS)


@dataclass(frozen=True, eq=False)
class SurfaceSolution:
    """Solved surface traces plus solve diagnostics.

    matvecs counts the operator applications; solve() sets it, and it is
    None where gmres_solve ran on a caller's own operator.
    """

    phi: np.ndarray
    dphi_dn: np.ndarray
    iterations: int
    residual: float
    matvecs: int | None = None

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.phi, self.dphi_dn])


@dataclass(frozen=True, eq=False)
class DiscretizedProblem:
    """Immutable quadrature caches shared (read-only) by all matvec workers.

    Collocation points are mesh vertices for hobi and flat centroids for
    lobi. The regular rule on face f reads its traces from unknowns
    reg_nodes[f] (hobi: the 4-point rule, K = 3 vertices; lobi: Q = K = 1,
    the centroid). Row t's near faces, pair_face[pair_starts[t]:
    pair_starts[t+1]], are sorted by face, so each row accumulates in face
    order no matter which worker owns it: lobi's own face, or hobi's
    incident faces. hobi's near table (_near_table) holds their Duffy
    integrals as compressed rows: row t's entries i in [near_starts[t],
    near_starts[t+1]) are vertices near_cols[i], ascending, with K1..K4
    coefficients near_coef[:, i]. duf_w[3 f + k] is the Duffy rule's weight
    x Jacobian on face f rotated so that its local vertex k is node 1.
    """

    mesh: FlatMesh
    params: PhysicalParams
    charges: ChargeSystem
    scheme: str
    colloc_pos: np.ndarray  # (T, 3)
    colloc_nrm: np.ndarray  # (T, 3)
    reg_pos: np.ndarray  # (N_f, Q, 3)
    reg_nrm: np.ndarray  # (N_f, Q, 3)
    reg_w: np.ndarray  # (N_f, Q) rule weight x Jacobian
    reg_bary: np.ndarray  # (Q, K)
    reg_nodes: np.ndarray  # (N_f, K) unknowns each face's trace is read from
    pair_face: np.ndarray  # (P,) near faces, row by row
    pair_starts: np.ndarray  # (T + 1,)
    origin: np.ndarray  # (3,) vertex centroid; moment sums lose digits like |x - origin| / r
    # hobi near table, about 7 entries per row
    near_starts: np.ndarray | None = None  # (T + 1,)
    near_cols: np.ndarray | None = None  # (nnz,)
    near_coef: np.ndarray | None = None  # (4, nnz)
    duf_w: np.ndarray | None = None  # (3 N_f, D)

    @property
    def n_collocation(self) -> int:
        return self.colloc_pos.shape[0]

    @property
    def n_unknowns(self) -> int:
        return 2 * self.n_collocation


def _barycentric(points: np.ndarray) -> np.ndarray:
    """(m, 3) linear vertex weights (1-r-s, r, s) at reference points."""
    r = points[:, 0]
    s = points[:, 1]
    return np.stack([1.0 - r - s, r, s], axis=1)


def _face_frames(node_pos, node_nrm, rule: TriangleRule, per_face: int, first=0):
    """(positions, normals, rule weight x Jacobian): frames_at at the rule's
    points on elements numbered from first, per_face a face; errors name it."""
    try:
        pos, nrm, jac = frames_at(node_pos, node_nrm, rule.points)
    except DegenerateElementError as exc:
        r, s, face = *exc.point, (first + exc.index[0]) // per_face
        raise DegenerateElementError(
            f"face {face}: vanishing Jacobian at (r, s) = ({r}, {s})"
        ) from None
    return pos, nrm, rule.weights * jac


def _near_table(mesh: FlatMesh, params: PhysicalParams, rotations, node_pos, node_nrm):
    """The near table's fields of DiscretizedProblem, built once since the near
    values are linear in the vertex traces (Canino et al., J. Comput. Phys. 146,
    1998). Element e (face e // 3, vertex x = rotations[e, 0] at node 1) gets
    sum_d K(x, y_d) w_d bary_dj over DUFFY_RULE's points d per kernel K1..K4
    and node j; entry (x, rotations[e, j]) adds these in element (face) order."""
    n = len(node_pos)
    bary = _barycentric(DUFFY_RULE.points)
    duf_w = np.empty((n, len(DUFFY_RULE)))
    coef = np.empty((4, n, 3))
    x, nx = (a[rotations[:, 0], None] for a in (mesh.vertices, mesh.normals))
    for s in range(0, n, NEAR_CHUNK):
        e = min(s + NEAR_CHUNK, n)
        pos, nrm, duf_w[s:e] = _face_frames(node_pos[s:e], node_nrm[s:e], DUFFY_RULE, 3, s)
        for part, k in enumerate(kernel_values_d(x[s:e] - pos, nx[s:e], nrm, params)):
            k *= duf_w[s:e]
            coef[part, s:e] = k @ bary
    # entry keys t N_v + v, in element order; bincount sums in that order
    nv = mesh.n_vertices
    keys, entry = np.unique((rotations[:, :1] * nv + rotations).reshape(-1),
                            return_inverse=True)
    near_coef = np.stack([np.bincount(entry, c.reshape(-1)) for c in coef])
    return dict(near_starts=np.searchsorted(keys // nv, np.arange(nv + 1)),
                near_cols=keys % nv, near_coef=near_coef, duf_w=duf_w)


def discretize(
    mesh: FlatMesh,
    params: PhysicalParams,
    charges: ChargeSystem,
    config: SolverConfig,
) -> DiscretizedProblem:
    """Build every geometric and quadrature cache a matvec will read."""
    mesh.validate()
    origin = mesh.vertices.mean(axis=0)
    if config.scheme == "lobi":
        corners = mesh.vertices[mesh.faces]  # (N_f, 3, 3)
        cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        two_area = np.linalg.norm(cross, axis=1)
        centroids = corners.mean(axis=1)
        normals = cross / two_area[:, None]
        rows = np.arange(mesh.n_faces + 1, dtype=np.int64)
        return DiscretizedProblem(
            mesh=mesh,
            params=params,
            charges=charges,
            scheme="lobi",
            colloc_pos=centroids,
            colloc_nrm=normals,
            reg_pos=centroids[:, None],
            reg_nrm=normals[:, None],
            reg_w=(0.5 * two_area)[:, None],
            reg_bary=np.ones((1, 1)),
            reg_nodes=rows[:-1, None],
            pair_face=rows[:-1],
            pair_starts=rows,
            origin=origin,
        )

    faces = mesh.faces

    # rotation k of face f, row 3 f + k, puts local vertex k at reference node 1
    rotations = np.stack([np.roll(faces, -k, axis=1) for k in range(3)], 1).reshape(-1, 3)
    node_pos, node_nrm = curved_nodes(mesh.vertices, mesh.normals, faces)

    reg_pos, reg_nrm, reg_w = _face_frames(node_pos[:, 0], node_nrm[:, 0], REGULAR_RULE, 1)
    near = _near_table(mesh, params, rotations,
                       *(a.reshape(-1, 10, 3) for a in (node_pos, node_nrm)))

    # a stable sort by vertex keeps each row's faces ascending
    order = np.argsort(rotations[:, 0], kind="stable")
    pair_starts = np.searchsorted(rotations[order, 0], np.arange(mesh.n_vertices + 1))

    return DiscretizedProblem(
        mesh=mesh,
        params=params,
        charges=charges,
        scheme="hobi",
        colloc_pos=mesh.vertices,
        colloc_nrm=mesh.normals,
        reg_pos=reg_pos,
        reg_nrm=reg_nrm,
        reg_w=reg_w,
        reg_bary=_barycentric(REGULAR_RULE.points),
        reg_nodes=faces,
        pair_face=order // 3,
        pair_starts=pair_starts,
        origin=origin,
        **near,
    )


def _interp(values: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """(..., K) node values x (m, K) weights -> (..., m), summed in node order."""
    out = values[..., 0, None] * bary[:, 0]
    for k in range(1, bary.shape[1]):
        out += values[..., k, None] * bary[:, k]
    return out


def _weights(problem: DiscretizedProblem, phi: np.ndarray, dphi: np.ndarray):
    """(wphi, wdphi): the traces at the regular rule's points times its
    weights, over the flat source axis."""
    w, nodes, bary = problem.reg_w, problem.reg_nodes, problem.reg_bary
    return tuple((w * _interp(v[nodes], bary)).reshape(-1) for v in (phi, dphi))


def _add_near(problem: DiscretizedProblem, phi, dphi, acc):
    """Add every row's near values from the hobi near table to the (2, T)
    sums acc, each row's K1 dphi + K2 phi and K3 dphi + K4 phi summed in
    table order (bincount adds in input order)."""
    t = problem.n_collocation
    rows = np.repeat(np.arange(t), np.diff(problem.near_starts))
    c1, c2, c3, c4 = problem.near_coef
    p, dp = phi[problem.near_cols], dphi[problem.near_cols]
    acc[0] += np.bincount(rows, c1 * dp + c2 * p, minlength=t)
    acc[1] += np.bincount(rows, c3 * dp + c4 * p, minlength=t)


def _self_sourced(problem: DiscretizedProblem) -> bool:
    """Whether the regular rule's sources are the collocation points, one
    per element, each row skipping only its own (lobi). Pair (i, j) and its
    swap (j, i) then share every factor, and the sweep need only read the
    tiles on and above the diagonal."""
    return problem.scheme == "lobi"


def _tile_layout(t: int, n: int | None = None):
    """(tiles, pairs, chunks): the tiled sweep of t rows over n sources,
    or over the rows themselves if n is None (self-sourced). The matvec,
    the solvation energy (charges over sources) and the right-hand side
    (rows over charges) take their blocks from here.

    Row tile I is rows [I h, (I + 1) h), h = min(TILE, t), and column tile
    J columns [J w, (J + 1) w), the last of each fewer: w = h if
    self-sourced, else TILE^2 // h, so a short row axis gets wide tiles,
    and a column axis shorter than TILE tall ones (w = n, h = TILE^2 // n);
    no tile holds more than TILE^2 pairs. Tile k, tiles[k] = (s, e, c, d),
    is rows [s, e) against columns [c, d), pairs[k] = (e - s) (d - c)
    values; tiles run row tile by row tile, columns ascending. If
    self-sourced, only the tiles J >= I are listed: a diagonal tile
    evaluates each orientation of its pairs as a row entry of its own, and
    an off-diagonal tile's pair (i, j) also serves (j, i). Chunk c is tiles
    [chunks[c], chunks[c+1]): a tile goes to the chunk in which the middle
    of its pairs falls when the running pair count is cut into
    STRIP_CHUNKS equal parts. Nothing here reads a worker count.
    """
    h = max(min(TILE, t), 1)
    m = t if n is None else n
    w = h if n is None else TILE * TILE // h
    if 0 < m < TILE:
        w, h = m, TILE * TILE // m
    rows, cols = np.arange(0, t, h), np.arange(0, m, w)
    i, j = (a.reshape(-1) for a in np.meshgrid(rows, cols, indexing="ij"))
    if n is None:
        i, j = i[j >= i], j[j >= i]
    tiles = np.column_stack([i, np.minimum(i + h, t), j, np.minimum(j + w, m)])
    pairs = (tiles[:, 1] - tiles[:, 0]) * (tiles[:, 3] - tiles[:, 2])
    middles = np.cumsum(pairs) - pairs / 2
    cuts = np.arange(STRIP_CHUNKS + 1) * (pairs.sum() / STRIP_CHUNKS)
    return tiles, pairs, np.searchsorted(middles, cuts)


def _tile_masks(tiles, rows, cols):
    """For the tiles (s, e, c, d) of one row tile, c ascending, and the
    entries (rows[i], cols[i]) in its rows, each inside one of the tiles:
    per tile, the index pair (rows - s, cols - c) of its entries, in entry
    order."""
    key = np.searchsorted(tiles[:, 2], cols, "right") - 1
    order = np.argsort(key, kind="stable")
    key = key[order]
    ends = np.searchsorted(key, np.arange(len(tiles) + 1))
    r, c = rows[order] - tiles[0, 0], cols[order] - tiles[key, 2]
    return [(r[a:b], c[a:b]) for a, b in zip(ends[:-1], ends[1:])]


@dataclass(frozen=True, eq=False)
class _SweepPlan:
    """Everything the tiled sweep reads that does not depend on u, built
    once by _sweep_plan in the process that sweeps.

    tiles[k], tile k (s, e, c, d) of _tile_layout, is (rows, columns,
    mask). rows, shared by its row tile, is (s, e, (square_factors rows,
    target_factors rows and (8, rows) weights)); columns,
    shared by its column tile, (c, d, square_factors' columns, and if
    self-sourced the columns' weights, else None); mask the (rows, cols)
    index pair of its near pairs (_tile_masks). The arrays are views.
    Chunk c is tiles [chunks[c], chunks[c + 1]).
    """

    problem: DiscretizedProblem
    cols: np.ndarray  # square_factors' (5, N) columns, positions about the origin
    tiles: tuple
    chunks: tuple
    scratch: np.ndarray  # kernel_scratch: sweep_buffers blocks of the largest tile


def _sweep_plan(problem: DiscretizedProblem) -> _SweepPlan:
    """The plan of problem's sweep under the TILE and STRIP_CHUNKS of the
    moment it is built. Each row tile indexes its rows' near sources once
    and groups them by column tile (_tile_masks), so a tile pays no search."""
    T = problem.n_collocation
    own = _self_sourced(problem)
    pos = problem.reg_pos.reshape(-1, 3).T
    layout, pairs, chunks = _tile_layout(T, None if own else pos.shape[1])
    xrows, ycols = square_factors(problem.colloc_pos.T, pos, problem.origin)
    nrows, weights = target_factors(xrows, problem.colloc_nrm.T)
    bounds = layout.tolist()  # Python ints slice faster
    columns = {c: (c, d, ycols[:, c:d], weights[:, c:d] if own else None)
               for _, _, c, d in bounds}
    # the first tile of each row tile, and the end of the last
    firsts = np.flatnonzero(np.diff(layout[:, 0], prepend=-1)).tolist() + [len(bounds)]
    starts, q = problem.pair_starts, problem.reg_w.shape[1]
    tiles = []
    for first, end in zip(firsts[:-1], firsts[1:]):
        s, e = bounds[first][:2]
        # (row, column) in the (T, N) pair array of every Q point of every
        # near face of rows [s, e)
        rows = np.repeat(np.arange(s, e), q * np.diff(starts[s : e + 1]))
        near = (problem.pair_face[starts[s] : starts[e], None] * q + np.arange(q)).reshape(-1)
        row_tile = (s, e, (xrows[s:e], nrows[s:e], weights[:, s:e]))
        masks = _tile_masks(layout[first:end], rows, near)
        for (_, _, c, _), mask in zip(bounds[first:end], masks):
            tiles.append((row_tile, columns[c], mask if len(mask[0]) else _NO_PAIRS))
    scratch = kernel_scratch(int(pairs.max(initial=0)), sweep_buffers(problem.params))
    return _SweepPlan(problem, ycols, tuple(tiles), tuple(chunks.tolist()), scratch)


def _sweep_moments(plan: _SweepPlan, u: np.ndarray) -> list:
    """The sources' moments of u (kernels.source_moments), the one part of
    a matvec's sweep that reads u."""
    problem = plan.problem
    T = problem.n_collocation
    wphi, wdphi = _weights(problem, u[:T], u[T:])
    nrm = problem.reg_nrm.reshape(-1, 3).T
    return source_moments(plan.cols, nrm, wphi, wdphi, problem.params)


def _tree_nodes(a: int, b: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """The largest nodes of the chunk tree below node [a, b) that lie in
    [lo, hi), in order. Node [a, b) splits at m = (a + b) // 2 into [a, m)
    and [m, b); a leaf is one chunk. The nodes tile [lo, hi)."""
    if lo <= a and b <= hi:
        return [(a, b)]
    if b <= lo or hi <= a:
        return []
    m = (a + b) // 2
    return _tree_nodes(a, m, lo, hi) + _tree_nodes(m, b, lo, hi)


def _tree_sum(a: int, b: int, known):
    """The sums of node [a, b): known(a, b), or else its halves' sums added."""
    sums = known(a, b)
    if sums is None:
        m = (a + b) // 2
        sums = _tree_sum(a, m, known) + _tree_sum(m, b, known)
    return sums


def _apply_chunks(plan: _SweepPlan, moments: list, lo: int, hi: int):
    """Chunks [lo, hi) of the tiled sweep of plan over the sources'
    moments (_sweep_moments) as [(a, b, sums)] over the largest chunk-tree
    nodes in [lo, hi); sums is (2, T) kernel sums.

    Each chunk sums from zero, tile by tile in order: tile (s, e, c, d)
    adds its row sums, each row skipping its near sources, to rows [s, e);
    if self-sourced and off the diagonal, its swapped pairs' sums to rows
    [c, d). Nodes add their halves, so the root, however the chunks were
    split, holds the same sums in one fixed association.
    """
    T, params = plan.problem.n_collocation, plan.problem.params

    def chunk(a, b):
        if b - a > 1:
            return None
        acc = np.zeros((2, T))
        for (s, e, targets), (c, d, cols, col_weights), mask in plan.tiles[
            plan.chunks[a] : plan.chunks[b]
        ]:
            swap = col_weights is not None and c != s  # self-sourced, off the diagonal
            rows, col_sums = kernel_sums(
                plan.scratch,
                targets,
                (cols, [m[c:d] for m in moments]),
                params,
                mask=mask,
                swapped=([m[s:e] for m in moments], col_weights) if swap else None,
            )
            acc[:, s:e] += rows
            if col_sums is not None:
                acc[:, c:d] += col_sums
        return acc

    return [(a, b, _tree_sum(a, b, chunk)) for a, b in _tree_nodes(0, STRIP_CHUNKS, lo, hi)]


def workspace_doubles(problem: DiscretizedProblem) -> int:
    """float64 values (int64 indices count as one each) a serial operator
    holds for its matvecs.

    Persistent, in the plan it builds once (_sweep_plan): per source 5 r^2
    columns (square_factors); per target 5 r^2 rows, 8 weights and 4 d.nx
    rows (target_factors); two mask indices per near source (_tile_masks);
    and sweep_buffers blocks of the largest tile (TILE^2 pairs at most, so
    this term does not grow with the mesh) and a page of alignment slack.
    Per call: per source its weights (_weights, 2 values) and its
    source_moments (8, or 21 at kappa > 0); 16 values for each row of a
    tile and, if self-sourced, each of its columns (a product with
    moments, its contraction and the sums); the (2, T) sums the chunk tree
    holds at once, one per level and two at the leaves; and for hobi's
    near table 6 values an entry (_add_near's gathers and products). The
    plan's build briefly holds one row tile's near entries twice more,
    counted with the per-call part."""
    n, t, params = problem.reg_w.size, problem.n_collocation, problem.params
    own = _self_sourced(problem)
    tiles, pairs, _ = _tile_layout(t, None if own else n)
    starts = problem.pair_starts * problem.reg_w.shape[1]
    scratch = sweep_buffers(params) * int(pairs.max(initial=0)) + PAGE_DOUBLES
    plan = 5 * n + 17 * t + 2 * int(starts[-1]) + scratch
    reach = tiles[:, 1] - tiles[:, 0] + (tiles[:, 3] - tiles[:, 2] if own else 0)
    row_tile = starts[tiles[:, 1]] - starts[tiles[:, 0]]
    held = (STRIP_CHUNKS - 1).bit_length() + 2
    table = 0 if problem.near_cols is None else 6 * problem.near_cols.size
    per_call = ((10 if params.kappa == 0.0 else 23) * n + 16 * int(reach.max(initial=0))
                + 2 * int(row_tile.max(initial=0)) + held * 2 * t + table)
    return plan + per_call


def matvec_hobi(problem: DiscretizedProblem, u: np.ndarray) -> np.ndarray:
    """Apply the vertex-collocated curved-element operator to u."""
    if problem.scheme != "hobi":
        raise ValueError(f"problem was discretized for scheme {problem.scheme!r}")
    return _Operator(problem, 1)(u)


def matvec_lobi(problem: DiscretizedProblem, u: np.ndarray) -> np.ndarray:
    """Apply the centroid-collocated flat-element operator to u."""
    if problem.scheme != "lobi":
        raise ValueError(f"problem was discretized for scheme {problem.scheme!r}")
    return _Operator(problem, 1)(u)


def _jump_coefficients(params: PhysicalParams) -> tuple[float, float]:
    """(alpha1, alpha2) = ((1 + er)/2, (1 + 1/er)/2), er = eps2/eps1: the
    factors the phi and the dphi/dn equation are divided by."""
    er = params.eps2 / params.eps1
    return 0.5 * (1.0 + er), 0.5 * (1.0 + 1.0 / er)


def assemble_rhs(problem: DiscretizedProblem) -> np.ndarray:
    """Source vector (S1/alpha1, S2/alpha2)/eps1 at the collocation points.

    The 1/eps1 scaling pairs with the exterior-to-interior kernel ratio so
    the solve returns the physical surface traces directly; each equation
    is divided by its jump coefficient, as in the operator. The sums are
    products over the tiles of _tile_layout (points over charges), positions
    about the problem's origin (kernels.source_terms_at).
    """
    charges = problem.charges
    tiles, _, _ = _tile_layout(problem.n_collocation, len(charges))
    s1, s2 = source_terms_at(
        problem.colloc_pos, problem.colloc_nrm, charges, problem.origin, tiles
    )
    alpha1, alpha2 = _jump_coefficients(problem.params)
    eps1 = problem.params.eps1
    return np.concatenate([s1 / (eps1 * alpha1), s2 / (eps1 * alpha2)])


# ---------------------------------------------------------------------------
# parallel operator: fork workers inherit the problem, write disjoint rows


def _partition(n: int, parts: int) -> list[tuple[int, int]]:
    """[0, n) cut into parts contiguous ranges, sizes within 1, larger first."""
    base, extra = divmod(n, parts)
    bounds = [k * base + min(k, extra) for k in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _worker_part(plan: _SweepPlan, u: np.ndarray, lo: int, hi: int):
    """A pool worker's reply to u: the chunk-tree nodes of chunks [lo, hi)."""
    return _apply_chunks(plan, _sweep_moments(plan, u), lo, hi)


def _serve(problem: DiscretizedProblem, lo: int, hi: int, requests: int, replies: int):
    """A forked worker's life; it never returns. It closes every descriptor
    it inherited but stdio and its own two pipe ends: a sibling or a later
    operator's worker holding a parent's write end would keep its reader
    from ever seeing EOF. Then it builds its own plan and answers each
    request u, 2T raw float64 values, with a 0 byte and the raw (2, T) sums
    of the chunk-tree nodes of chunks [lo, hi), in order, or with a 1 byte
    and the pickled exception _worker_part raised, until its requests
    reach EOF."""
    code = 1
    try:
        keep = sorted({0, 1, 2, requests, replies})
        for a, b in zip(keep, keep[1:] + [os.sysconf("SC_OPEN_MAX")]):
            os.closerange(a + 1, b)
        plan = _sweep_plan(problem)
        inbox, outbox = open(requests, "rb"), open(replies, "wb")
        u = np.empty(problem.n_unknowns)
        while inbox.readinto(u) == u.nbytes:
            try:
                reply = [b"\0"] + [sums for _, _, sums in _worker_part(plan, u, lo, hi)]
            except Exception as exc:  # the parent raises it again
                reply = [b"\1", pickle.dumps(exc)]
            outbox.writelines(reply)
            outbox.flush()
        code = 0
    finally:
        os._exit(code)


class _Operator:
    """Callable matvec, optionally fanned out over forked workers.

    The STRIP_CHUNKS chunks of the tiled sweep are split into one
    contiguous range per worker (_partition), of at most
    STRIP_CHUNKS workers (SolverConfig.worker_count). Their sums are added
    over the fixed chunk tree, each worker returning the largest nodes
    inside its range, so no bit depends on the worker count. hobi's near
    values are added to the summed tree's root, after each row's regular
    sum, in the parent. matvecs counts the applications. A serial operator
    builds its sweep plan at its first call and keeps it.

    A pooled operator forks its workers at its first call (os.fork, so
    each inherits the problem unpickled) and builds no plan itself. Each
    worker has two pipes (_serve): the parent writes u to one as 2T raw
    float64 values and reads the worker's reply from the other, and the
    worker leaves at EOF on its requests. An exception raised in a worker
    is raised again in the parent, with its type and message, once every
    worker has replied. A worker that ends without a reply raises
    WorkerDied naming its exit status or signal, and so does every later
    call until close(). A call interrupted mid-exchange ends the workers,
    and the next call forks new ones. close() ends and reaps every worker;
    a closed operator answers serially.
    """

    def __init__(self, problem: DiscretizedProblem, workers: int):
        self._problem = problem
        self._plan = None
        self._ranges = [(0, STRIP_CHUNKS)]
        self._pooled = workers > 1 and hasattr(os, "fork") and problem.n_collocation > 0
        self._workers = []  # (pid, request pipe, reply pipe), once forked
        self._failure = None  # the WorkerDied message, once a worker died
        self.matvecs = 0
        if self._pooled:
            self._ranges = _partition(STRIP_CHUNKS, workers)

    def _start(self):
        try:
            for lo, hi in self._ranges:
                requests, to_worker = os.pipe()
                from_worker, replies = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(self._problem, lo, hi, requests, replies)
                os.close(requests)
                os.close(replies)
                self._workers.append(
                    (pid, open(to_worker, "wb", buffering=0), open(from_worker, "rb"))
                )
        except OSError:
            self._stop()
            raise

    def _stop(self) -> list[int]:
        """Close every worker's pipes, so that it leaves, and reap it; the
        wait statuses in worker order."""
        workers, self._workers = self._workers, []
        for _, to_worker, from_worker in workers:
            to_worker.close()
            from_worker.close()
        return [os.waitpid(pid, 0)[1] for pid, _, _ in workers]

    def _died(self, index: int) -> WorkerDied:
        code = os.waitstatus_to_exitcode(self._stop()[index])
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        self._failure = f"matvec worker died: worker {index} {how}"
        return WorkerDied(self._failure)

    def _exchange(self, u: np.ndarray) -> tuple[list, list]:
        """Send u to every worker, then read every reply: (parts, the
        exceptions the workers raised)."""
        data = memoryview(np.ascontiguousarray(u)).cast("B")
        for index, (_, to_worker, _) in enumerate(self._workers):
            try:
                sent = 0
                while sent < len(data):
                    sent += to_worker.write(data[sent:])
            except BrokenPipeError:
                raise self._died(index) from None
        parts, errors = [], []
        for index, ((lo, hi), (_, _, from_worker)) in enumerate(zip(self._ranges, self._workers)):
            nodes = _tree_nodes(0, STRIP_CHUNKS, lo, hi)
            sums = np.empty((len(nodes), 2, self._problem.n_collocation))
            tag = from_worker.read(1)
            if tag == b"\0" and from_worker.readinto(sums) == sums.nbytes:
                parts.append([(a, b, s) for (a, b), s in zip(nodes, sums)])
            elif tag == b"\1":
                errors.append(pickle.load(from_worker))
            else:
                raise self._died(index)
        return parts, errors

    def _parts(self, u: np.ndarray) -> list:
        if self._failure is not None:
            raise WorkerDied(self._failure)
        if not self._pooled:
            if self._plan is None:
                self._plan = _sweep_plan(self._problem)
            moments = _sweep_moments(self._plan, u)
            return [_apply_chunks(self._plan, moments, lo, hi) for lo, hi in self._ranges]
        if not self._workers:
            self._start()
        try:
            parts, errors = self._exchange(u)
        except BaseException:  # replies left unread would answer the next call
            self._stop()
            raise
        if errors:
            raise errors[0]
        return parts

    def __call__(self, u: np.ndarray) -> np.ndarray:
        problem = self._problem
        T = problem.n_collocation
        u = np.asarray(u, dtype=float)
        if u.shape != (2 * T,):
            raise ValueError(f"expected vector of length {2 * T}, got shape {u.shape}")
        self.matvecs += 1
        nodes = {(a, b): sums for part in self._parts(u) for a, b, sums in part}
        acc = _tree_sum(0, STRIP_CHUNKS, lambda a, b: nodes.get((a, b)))
        if problem.near_coef is not None:
            _add_near(problem, u[:T], u[T:], acc)
        alpha1, alpha2 = _jump_coefficients(problem.params)
        out1 = u[:T] - acc[0] / alpha1
        out2 = u[T:] - acc[1] / alpha2
        return np.concatenate([out1, out2])

    def close(self):
        self._stop()
        self._pooled = False
        self._failure = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def make_operator(problem: DiscretizedProblem, config: SolverConfig) -> _Operator:
    """Matvec closure honoring config.workers; close() releases the pool."""
    return _Operator(problem, config.worker_count())


# ---------------------------------------------------------------------------
# GMRES


def gmres_solve(apply, b: np.ndarray, config: SolverConfig) -> SurfaceSolution:
    """GMRES with a per-equation residual stopping test, one Arnoldi
    process of at most GMRES_STEPS steps.

    Arnoldi with modified Gram-Schmidt; x starts at 0, so its residual b
    costs no matvec and a solve costs `iterations` matvecs, one a step.
    Reads only tolerance from config.

    The residual is per equation: max_k ||r_k|| / ||b_k|| over the two
    halves (phi, dphi/dn), a zero b_k measured against ||b|| instead. It
    does not change when either half of the system is scaled, and where
    neither b_k is zero it is never below ||r|| / ||b||. Step j solves
    min ||beta e1 - Hbar y|| on the (j+1) x j Hessenberg matrix Hbar; the
    Arnoldi relation A V_j = V_{j+1} Hbar (kept to rounding by modified
    Gram-Schmidt) makes b - V_{j+1} Hbar y the residual b - A x of x =
    V_j y with no matvec. The solve returns at the first step where that
    residual is within the tolerance. Raises GmresNonConvergence with the
    best residual after GMRES_STEPS steps short of it, and its subclass
    GmresBreakdown at the first non-finite residual, or when lstsq finds
    Hbar rank-deficient short of the tolerance (it returns no residual;
    A V_j = 0, say), which no later step could mend.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    if n % 2:
        raise ValueError("vector length must be even: (phi, dphi/dn) halves")
    half = n // 2
    halves = (slice(0, half), slice(half, n))
    norm_b = float(np.linalg.norm(b))
    scales = [float(np.linalg.norm(b[h])) or norm_b for h in halves]
    tol = config.tolerance

    def _relative(r: np.ndarray) -> float:
        # np.max, unlike max(), returns a NaN in either half
        parts = [float(np.linalg.norm(r[h])) / s for h, s in zip(halves, scales)]
        return float(np.max(parts))

    def _failure(error: type[GmresNonConvergence], reason: str):
        return error(
            f"{reason} (matvecs: {j}, best residual {best:.3e}, tolerance {tol:.3e})",
            best_residual=best,
        )

    if norm_b == 0.0:
        return SurfaceSolution(np.zeros(half), np.zeros(half), 0, 0.0)

    j = 0  # steps taken, one matvec each
    best = _relative(b)  # 1 unless b is not finite
    if not np.isfinite(best):
        raise _failure(GmresBreakdown, "non-finite residual")
    beta_e1 = norm_b * np.eye(1, GMRES_STEPS + 1)[0]
    basis = np.zeros((GMRES_STEPS + 1, n))
    hess = np.zeros((GMRES_STEPS + 1, GMRES_STEPS))
    basis[0] = b / norm_b
    for j in range(1, GMRES_STEPS + 1):
        w = apply(basis[j - 1])
        # NaN/inf in w reach hess[j, j - 1], checked before lstsq, which rejects them
        with np.errstate(invalid="ignore", over="ignore"):
            for i in range(j):
                hess[i, j - 1] = float(basis[i] @ w)
                w = w - hess[i, j - 1] * basis[i]
            hess[j, j - 1] = float(np.linalg.norm(w))
            if hess[j, j - 1] > 1e-300:
                basis[j] = w / hess[j, j - 1]
        if not np.isfinite(hess[: j + 1, j - 1]).all():
            raise _failure(GmresBreakdown, "non-finite residual")
        y, res = np.linalg.lstsq(hess[: j + 1, :j], beta_e1[: j + 1])[:2]
        rel = _relative(b - basis[: j + 1].T @ (hess[: j + 1, :j] @ y))
        best = min(best, rel)
        if rel <= tol:
            x = basis[:j].T @ y
            return SurfaceSolution(x[:half], x[half:], j, rel)
        if not res.size:
            raise _failure(GmresBreakdown, "rank-deficient Hessenberg matrix")
    raise _failure(GmresNonConvergence, "no convergence")


def solve(problem: DiscretizedProblem, config: SolverConfig) -> SurfaceSolution:
    """Surface traces of a discretized problem: RHS, operator, GMRES.

    The operator's worker pool (config.workers) is closed before returning,
    also when GMRES raises. config.scheme is not read: the problem already
    carries its scheme.
    """
    b = assemble_rhs(problem)
    with make_operator(problem, config) as op:
        solution = gmres_solve(op, b, config)
    return replace(solution, matvecs=op.matvecs)


# ---------------------------------------------------------------------------
# outputs


def solvation_energy(
    problem: DiscretizedProblem, solution: SurfaceSolution
) -> float:
    """Reaction-field energy in kcal/mol from the solved surface traces.

    E = (1/2) sum_k q_k * Int_Gamma [K1(x_k, y) dphi/dn + K2(x_k, y) phi] dS,
    integrated with the regular rule on every element, the charges as
    targets; charges are strictly interior so no pair is singular. Each
    charge's integral is its row of kernels.reaction_terms_at over the
    tiles of _tile_layout (charges over sources), positions taken about
    the problem's origin, so its bits follow the tile layout, a function
    of the charge count and N alone; the charges' q times their rows are
    added in charge order. Raises ValueError unless both traces have one
    value per collocation point: another problem's solution would index
    the wrong unknowns.
    """
    t = problem.n_collocation
    shapes = (np.shape(solution.phi), np.shape(solution.dphi_dn))
    if shapes != ((t,), (t,)):
        raise ValueError(f"expected traces of length {t}, got phi of shape {shapes[0]}"
                         f" and dphi_dn of shape {shapes[1]}")
    charges = problem.charges
    tiles, _, _ = _tile_layout(len(charges), problem.reg_w.size)
    # the rule's points are read in place: copies of them, 6 values a
    # source, would outweigh a one-charge energy's 5-block scratch
    rows = reaction_terms_at(
        charges.positions,
        problem.reg_pos.reshape(-1, 3).T,
        problem.reg_nrm.reshape(-1, 3).T,
        *_weights(problem, solution.phi, solution.dphi_dn),
        problem.origin,
        problem.params,
        tiles,
    )
    total = 0.0
    for q, row in zip(charges.charges, rows):
        total += q * row
    return 0.5 * FOUR_PI * KCAL_MOL_PER_E2_ANG * total


def surface_potential_error(numerical: np.ndarray, exact: np.ndarray) -> float:
    """max_i |num_i - exact_i| / max_i |exact_i|."""
    numerical = np.asarray(numerical, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if numerical.shape != exact.shape:
        raise ValueError(
            f"shape mismatch: {numerical.shape} vs {exact.shape}"
        )
    scale = float(np.abs(exact).max())
    if scale == 0.0:
        raise ZeroDivisionError("exact vector is identically zero")
    return float(np.abs(numerical - exact).max()) / scale


def convergence_order(
    coarse_mesh: float,
    fine_mesh: float,
    coarse_error: float,
    fine_error: float,
) -> float:
    """Observed order log(e_c/e_f) / |log(m_c/m_f)|.

    The mesh parameter may be a density (increasing under refinement) or a
    spacing (decreasing); the absolute value makes both orientations yield
    the conventional positive order for decreasing errors.
    """
    for name, value in (
        ("coarse_mesh", coarse_mesh),
        ("fine_mesh", fine_mesh),
        ("coarse_error", coarse_error),
        ("fine_error", fine_error),
    ):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    if coarse_mesh == fine_mesh:
        raise ValueError("mesh parameters must differ")
    return float(
        np.log(coarse_error / fine_error) / abs(np.log(coarse_mesh / fine_mesh))
    )
