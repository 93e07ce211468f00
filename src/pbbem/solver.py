"""Matrix-free boundary-integral solver for the linearized PB equation.

The phi and the dphi/dn equation of the second-kind system (Juffer et al.,
J. Comput. Phys. 97, 1991) are each divided by their jump coefficient,
alpha1 = (1 + er)/2 and alpha2 = (1 + 1/er)/2 with er = eps2/eps1, so the
operator is the identity minus the kernel sums and its spectrum clusters
at 1 instead of at two values ~er apart. The unknowns stay the physical
(phi, dphi/dn). GMRES stops on the larger of the two equations' relative
residuals, which this row scaling does not change. Each restart cycle
ends on the residual its Arnoldi relation gives, so a solve spends one
matvec per iteration.

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
restarted GMRES on it and closes the pool before returning the surface
traces. ``assemble_rhs``, ``make_operator`` and ``gmres_solve`` stay public
for callers that time or wrap the steps one by one.

Nothing is ever assembled into a matrix. Both schemes store a regular
rule on every element and each collocation row's near elements. One strip
sweep (_apply_chunks) is the matvec of both: strip [s, e) of rows is one
block against source columns [c, N), each row skipping its near elements'
sources, and its row sums go to rows [s, e). hobi's strips read the whole
flat regular-rule axis (c = 0), and each task then adds its rows'
Duffy-regularized near values. lobi's sources are its collocation points,
one per element, and a row skips only its own (_self_sourced reads this
from the tables), so pair (i, j) and its swap share every kernel factor:
its strips read columns [s, T) and also send the swapped pairs' column
sums to rows [e, T), evaluating each pair once for both orientations.

The strips form STRIP_CHUNKS chunks, the matvec's fixed work list; each
chunk sums from zero in strip order and the chunks are added over a fixed
binary tree. A hobi row sums over the full source axis in element order,
so hobi's bits follow no layout (STRIP_ROWS, STRIP_CHUNKS). lobi's bits
follow the strip layout, a function of T alone. Neither depends on the
worker count. The solvation energy sums the regular rule over every
element with the charges as targets, and the right-hand side the charges
at every collocation point; _strip_layout also cuts both into blocks.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    DegenerateArcError,
    DegenerateElementError,
    frames_at,
    nodes_from_vertex_data,
)
from .kernels import (
    FOUR_PI,
    KCAL_MOL_PER_E2_ANG,
    KERNEL_BUFFERS,
    PAGE_DOUBLES,
    PhysicalParams,
    kernel_scratch,
    kernel_sums,
    source_terms_at,
)
from .mesh import ChargeSystem, FlatMesh
from .quadrature import TriangleRule, duffy_rule, gauss_radau_rule

SCHEMES = ("hobi", "lobi")

# The strip sweep's layout, a function of the number of rows T and of
# sources N alone (N = T if self-sourced): a strip has at least STRIP_ROWS
# rows and at most max(STRIP_ROWS * N, STRIP_MIN_PAIRS) pairs, and the
# strips form STRIP_CHUNKS chunks of near-equal pair count. The floor keeps
# small meshes' strips large enough that the fixed interpreter cost of a
# block (~100 us on a 2-CPU Xeon host) does not outweigh its kernel work;
# from N = 512 on it is inactive.
STRIP_ROWS = 8
STRIP_MIN_PAIRS = 1 << 12
STRIP_CHUNKS = 16


class GmresNonConvergence(RuntimeError):
    """GMRES hit its iteration budget; carries the best residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class GmresBreakdown(GmresNonConvergence):
    """GMRES met a non-finite residual (NaN/inf in b or in the operator)."""


class WorkerDied(RuntimeError):
    """A matvec worker process ended before it returned its part."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs. Defaults reproduce the reference setup everywhere."""

    scheme: str = "hobi"
    tolerance: float = 1e-6
    restart: int = 100
    max_iterations: int = 1000
    workers: int | None = None  # None: every CPU this process may run on
    regular_rule: TriangleRule = field(default_factory=gauss_radau_rule)
    duffy_points: int = 4

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def worker_count(self) -> int:
        if self.workers is not None:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DiscretizedProblem:
    """Immutable quadrature caches shared (read-only) by all matvec workers.

    Collocation points are mesh vertices for hobi and flat centroids for
    lobi. The regular rule on face f reads its traces from unknowns
    reg_nodes[f] (hobi: the 4-point rule, K = 3 vertices; lobi: Q = K = 1,
    the centroid). Row t's near faces, pair_face[pair_starts[t]:
    pair_starts[t+1]], are sorted by face, so each row accumulates in face
    order no matter which worker owns it: lobi's own face, or hobi's
    incident faces. hobi pair p also carries a Duffy rule on face
    pair_face[p] rotated so that vertex pair_gverts[p, 0] is local node 1;
    pair_gverts[p] is the rotated global vertex order.
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
    # hobi Duffy caches, one entry per near pair
    pair_gverts: np.ndarray | None = None  # (P, 3)
    duf_pos: np.ndarray | None = None  # (P, D, 3)
    duf_nrm: np.ndarray | None = None  # (P, D, 3)
    duf_w: np.ndarray | None = None  # (P, D)
    duf_bary: np.ndarray | None = None  # (D, 3)

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


def _face_frames(node_pos, node_nrm, pts, per_face: int):
    """frames_at on per_face consecutive elements per face; errors name the face."""
    try:
        return frames_at(node_pos, node_nrm, pts)
    except DegenerateElementError as exc:
        r, s = exc.point
        raise DegenerateElementError(
            f"face {exc.index[0] // per_face}: vanishing Jacobian at (r, s) = ({r}, {s})"
        ) from None


def discretize(
    mesh: FlatMesh,
    params: PhysicalParams,
    charges: ChargeSystem,
    config: SolverConfig,
) -> DiscretizedProblem:
    """Build every geometric and quadrature cache a matvec will read."""
    mesh.validate()
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
        )

    nf = mesh.n_faces
    faces = mesh.faces

    # curved nodes for all three vertex rotations of every face; rotation k
    # puts local vertex k of the face at reference node 1
    rotations = np.stack(
        [faces, np.roll(faces, -1, axis=1), np.roll(faces, -2, axis=1)], axis=1
    )  # (N_f, 3, 3)
    x, n = mesh.vertices[rotations], mesh.normals[rotations]
    try:
        node_pos, node_nrm = nodes_from_vertex_data(
            x[..., 0, :], n[..., 0, :], x[..., 1, :], n[..., 1, :],
            x[..., 2, :], n[..., 2, :],
        )
    except DegenerateArcError as exc:
        raise DegenerateArcError(f"face {exc.index[0]}: {exc}") from None

    rule = config.regular_rule
    reg_pos, reg_nrm, reg_jac = _face_frames(
        node_pos[:, 0], node_nrm[:, 0], rule.points, 1
    )
    reg_w = rule.weights[None, :] * reg_jac

    duffy = duffy_rule(config.duffy_points)
    duf_pos, duf_nrm, duf_jac = _face_frames(
        node_pos.reshape(3 * nf, 10, 3),
        node_nrm.reshape(3 * nf, 10, 3),
        duffy.points,
        3,
    )
    duf_w = duffy.weights[None, :] * duf_jac

    # pair p = (face f, rotation k) couples vertex faces[f, k] with face f
    pair_face = np.repeat(np.arange(nf, dtype=np.int64), 3)
    pair_gverts = rotations.reshape(3 * nf, 3)

    order = np.lexsort((pair_face, pair_gverts[:, 0]))
    pair_face = pair_face[order]
    pair_gverts = pair_gverts[order]
    duf_pos = duf_pos[order]
    duf_nrm = duf_nrm[order]
    duf_w = duf_w[order]
    pair_starts = np.searchsorted(
        pair_gverts[:, 0], np.arange(mesh.n_vertices + 1)
    )

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
        reg_bary=_barycentric(rule.points),
        reg_nodes=faces,
        pair_face=pair_face,
        pair_gverts=pair_gverts,
        pair_starts=pair_starts,
        duf_pos=duf_pos,
        duf_nrm=duf_nrm,
        duf_w=duf_w,
        duf_bary=_barycentric(duffy.points),
    )


def _interp(values: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """(..., K) node values x (m, K) weights -> (..., m), summed in node order."""
    out = values[..., 0, None] * bary[:, 0]
    for k in range(1, bary.shape[1]):
        out += values[..., k, None] * bary[:, k]
    return out


def _sources(problem: DiscretizedProblem, phi: np.ndarray, dphi: np.ndarray):
    """(pos, nrm, wphi, wdphi): the regular rule's flat source axis.

    pos and nrm are (3, N) coordinate rows, contiguous per coordinate.
    """
    w, nodes, bary = problem.reg_w, problem.reg_nodes, problem.reg_bary
    return (
        np.ascontiguousarray(problem.reg_pos.reshape(-1, 3).T),
        np.ascontiguousarray(problem.reg_nrm.reshape(-1, 3).T),
        (w * _interp(phi[nodes], bary)).reshape(-1),
        (w * _interp(dphi[nodes], bary)).reshape(-1),
    )


def _add_duffy(problem: DiscretizedProblem, phi, dphi, lo, hi, scratch, acc):
    """Add the hobi near faces' Duffy-regularized values to acc[:, lo:hi].

    The near pairs go through the scratch buffers in chunks of whole rows,
    each holding no more values than one regular row (n_sources) unless a
    single row has more. A row's pairs are summed in pair order within one
    chunk, so the chunking changes no bit of the result.
    """
    starts = problem.pair_starts
    step = max(problem.reg_w.size // problem.duf_w.shape[1], 1)
    s = lo
    while s < hi:
        last = np.searchsorted(starts, starts[s] + step, side="right") - 1
        e = min(max(int(last), s + 1), hi)
        p0, p1 = starts[s], starts[e]
        gv = problem.pair_gverts[p0:p1]
        pv = gv[:, 0]
        w = problem.duf_w[p0:p1]
        rows = kernel_sums(
            scratch,
            (problem.colloc_pos[pv].T[:, :, None], problem.colloc_nrm[pv].T[:, :, None]),
            (
                np.moveaxis(problem.duf_pos[p0:p1], -1, 0),
                np.moveaxis(problem.duf_nrm[p0:p1], -1, 0),
            ),
            w * _interp(phi[gv], problem.duf_bary),
            w * _interp(dphi[gv], problem.duf_bary),
            problem.params,
        )
        for sums, row in zip(acc, rows):
            sums[s:e] += np.bincount(pv - s, weights=row, minlength=e - s)
        s = e


def _self_sourced(problem: DiscretizedProblem) -> bool:
    """Whether the regular rule's sources are the collocation points, one
    per element, each row skipping only its own (lobi). Pair (i, j) and its
    swap (j, i) then share every factor, and a strip need only read the
    columns from its own first row on."""
    T = problem.n_collocation
    own = np.arange(T + 1)
    return (
        problem.reg_w.shape == (T, 1)
        and np.array_equal(problem.reg_pos[:, 0], problem.colloc_pos)
        and np.array_equal(problem.reg_nrm[:, 0], problem.colloc_nrm)
        and np.array_equal(problem.pair_starts, own)
        and np.array_equal(problem.pair_face, own[:-1])
    )


def _strip_layout(t: int, n: int | None = None):
    """(bounds, pairs, chunks): the strip sweep of t rows over n sources,
    or over the rows themselves if n is None (self-sourced). Every blocked
    kernel sum takes its row blocks from here: the matvec, the solvation
    energy (charges over sources) and the right-hand side (points over
    charges; with n = 0 all rows form one strip).

    Strip k is rows [bounds[k], bounds[k+1]), as many as the pair budget
    allows, evaluated as one block of pairs[k] values against columns
    [c, n), where c = 0, or c = bounds[k] and n = t if self-sourced. Then
    inside the block's leading square each orientation is a row entry of
    its own; past it, pair (i, j) is evaluated once and also serves (j, i).
    Chunk c is strips [chunks[c], chunks[c+1]): a strip goes to the chunk
    in which the middle of its pairs falls when the running pair count is
    cut into STRIP_CHUNKS equal parts. Nothing here reads a worker count.
    """
    budget = max(STRIP_ROWS * (t if n is None else n), STRIP_MIN_PAIRS)
    bounds = [0]
    while bounds[-1] < t:
        cols = t - bounds[-1] if n is None else n
        rows = budget // cols if cols else t
        bounds.append(bounds[-1] + min(t - bounds[-1], rows))
    bounds = np.array(bounds)
    pairs = np.diff(bounds) * (t - bounds[:-1] if n is None else n)
    middles = np.cumsum(pairs) - pairs / 2
    cuts = np.arange(STRIP_CHUNKS + 1) * (pairs.sum() / STRIP_CHUNKS)
    return bounds, pairs, np.searchsorted(middles, cuts)


def _scratch_size(problem: DiscretizedProblem, pairs) -> int:
    """Values in the largest block a task evaluates: a strip (pairs from
    _strip_layout), or a chunk of Duffy pairs (no larger than one source
    row, or than one row's)."""
    size = int(pairs.max(initial=0))
    if problem.duf_w is not None:
        near = np.diff(problem.pair_starts).max(initial=0)
        size = max(size, int(near) * problem.duf_w.shape[1])
    return size


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


def _apply_chunks(problem: DiscretizedProblem, u: np.ndarray, lo: int, hi: int):
    """Chunks [lo, hi) of the strip sweep as [(a, b, sums)] over the
    largest chunk-tree nodes in [lo, hi); sums is (2, T) kernel sums.

    Each chunk sums from zero, strip by strip in order: strip [s, e) adds
    its row sums, each row skipping its near sources, to rows [s, e); if
    self-sourced, its swapped pairs' column sums to rows [e, T). Nodes add
    their halves, so the root, however the chunks were split, holds the
    same sums in one fixed association. hobi's nodes then add their rows'
    Duffy values, after all strips so that the Duffy chunks run back to
    back in warm buffers; a row's regular sum meets only zeros in the tree.
    """
    T = problem.n_collocation
    phi, dphi = u[:T], u[T:]
    pos, nrm, wphi, wdphi = _sources(problem, phi, dphi)
    own = _self_sourced(problem)
    bounds, pairs, chunks = _strip_layout(T, None if own else wphi.size)
    # self-sourced targets are the sources, whose coordinate rows are contiguous
    xt, nt = (pos, nrm) if own else (problem.colloc_pos.T, problem.colloc_nrm.T)
    scratch = kernel_scratch(_scratch_size(problem, pairs))
    # (row, column) of every Q point of every near face in the full (T, N)
    # pair array; strip [s, e) holds entries [q starts[s], q starts[e]) of
    # it, shifted into its block by (s, c)
    starts, q = problem.pair_starts, problem.reg_w.shape[1]
    near_rows = np.repeat(np.arange(T), q * np.diff(starts))
    near_cols = (problem.pair_face[:, None] * q + np.arange(q)).reshape(-1)

    def chunk(a, b):
        if b - a > 1:
            return None
        acc = np.zeros((2, T))
        for k in range(chunks[a], chunks[b]):
            s, e = bounds[k], bounds[k + 1]
            c = s if own else 0
            near = slice(q * starts[s], q * starts[e])
            row1, row2, *cols = kernel_sums(
                scratch,
                (xt[:, s:e, None], nt[:, s:e, None]),
                (pos[:, None, c:], nrm[:, None, c:]),
                wphi[c:],
                wdphi[c:],
                problem.params,
                mask=(near_rows[near] - s, near_cols[near] - c),
                own=(wphi[s:e, None], wdphi[s:e, None]) if own else None,
            )
            acc[0, s:e] += row1
            acc[1, s:e] += row2
            for sums, col in zip(acc, cols):
                sums[e:] += col[e - s :]
        return acc

    # NumPy's iterator would otherwise buffer several rows of a block with
    # fewer than ~4096 columns at once, which makes every broadcast
    # operation of a late, short-rowed strip ~3x slower. Elementwise
    # results and contiguous sums do not depend on the buffer size.
    bufsize = np.setbufsize(16)
    try:
        nodes = [
            (a, b, _tree_sum(a, b, chunk))
            for a, b in _tree_nodes(0, STRIP_CHUNKS, lo, hi)
        ]
    finally:
        np.setbufsize(bufsize)
    if problem.duf_w is not None:
        for a, b, sums in nodes:
            rows = bounds[chunks[a]], bounds[chunks[b]]
            _add_duffy(problem, phi, dphi, *rows, scratch, sums)
    return nodes


def workspace_doubles(problem: DiscretizedProblem) -> int:
    """float64 values (int64 indices count as one each) a serial matvec
    allocates: the flat source axis (_sources: positions, normals and two
    weighted traces, 8 values per source), KERNEL_BUFFERS blocks of its
    largest strip or Duffy chunk plus a page of alignment slack, the near
    index (two indices per near source), and the (2, T) sums the chunk
    tree holds at once, one per level and two at the leaves."""
    n = problem.reg_w.size
    own = _self_sourced(problem)
    pairs = _strip_layout(problem.n_collocation, None if own else n)[1]
    scratch = KERNEL_BUFFERS * _scratch_size(problem, pairs) + PAGE_DOUBLES
    near = problem.pair_face.size * problem.reg_w.shape[1]
    held = (STRIP_CHUNKS - 1).bit_length() + 2
    return 8 * n + scratch + 2 * near + held * 2 * problem.n_collocation


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
    is divided by its jump coefficient, as in the operator.
    """
    bounds = _strip_layout(problem.n_collocation, len(problem.charges))[0]
    s1, s2 = source_terms_at(
        problem.colloc_pos, problem.colloc_nrm, problem.charges, bounds
    )
    alpha1, alpha2 = _jump_coefficients(problem.params)
    eps1 = problem.params.eps1
    return np.concatenate([s1 / (eps1 * alpha1), s2 / (eps1 * alpha2)])


def partition_targets(n_targets: int, n_workers: int) -> list[tuple[int, int]]:
    """Split [0, n_targets) into n_workers contiguous ranges, sizes within 1."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_targets < 0:
        raise ValueError(f"n_targets must be >= 0, got {n_targets}")
    base, extra = divmod(n_targets, n_workers)
    ranges = []
    start = 0
    for w in range(n_workers):
        size = base + (1 if w < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


# ---------------------------------------------------------------------------
# parallel operator: fork workers inherit the problem, write disjoint rows

_worker_problem: DiscretizedProblem | None = None


def _adopt(problem: DiscretizedProblem):
    """Pool initializer: a fork child inherits its argument unpickled."""
    global _worker_problem
    _worker_problem = problem


def _worker_part(u: np.ndarray, lo: int, hi: int):
    return _apply_chunks(_worker_problem, u, lo, hi)


class _Operator:
    """Callable matvec, optionally fanned out over a fork pool.

    The STRIP_CHUNKS chunks of the strip sweep are split into one
    contiguous range per worker (partition_targets). Their sums are added
    over the fixed chunk tree, each worker returning the largest nodes
    inside its range, so no bit depends on the worker count. A worker that
    dies raises WorkerDied. matvecs counts the applications.
    """

    def __init__(self, problem: DiscretizedProblem, workers: int):
        self._problem = problem
        self._ranges = [(0, STRIP_CHUNKS)]
        self._pool = None
        self.matvecs = 0
        can_fork = "fork" in multiprocessing.get_all_start_methods()
        if workers > 1 and can_fork and problem.n_collocation > 0:
            # imported here: the module costs a serial solve ~1.3 MB of RSS
            from concurrent.futures import ProcessPoolExecutor

            self._ranges = partition_targets(STRIP_CHUNKS, workers)
            self._pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt,
                initargs=(problem,),
            )

    def _parts(self, u: np.ndarray) -> list:
        if self._pool is None:
            return [_apply_chunks(self._problem, u, lo, hi) for lo, hi in self._ranges]
        futures = [self._pool.submit(_worker_part, u, lo, hi) for lo, hi in self._ranges]
        from concurrent.futures.process import BrokenProcessPool

        try:
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            raise WorkerDied(f"matvec worker died: {exc}") from exc

    def __call__(self, u: np.ndarray) -> np.ndarray:
        problem = self._problem
        T = problem.n_collocation
        u = np.asarray(u, dtype=float)
        if u.shape != (2 * T,):
            raise ValueError(f"expected vector of length {2 * T}, got shape {u.shape}")
        self.matvecs += 1
        nodes = {(a, b): sums for part in self._parts(u) for a, b, sums in part}
        acc = _tree_sum(0, STRIP_CHUNKS, lambda a, b: nodes.get((a, b)))
        alpha1, alpha2 = _jump_coefficients(problem.params)
        out1 = u[:T] - acc[0] / alpha1
        out2 = u[T:] - acc[1] / alpha2
        return np.concatenate([out1, out2])

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

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
    """Restarted GMRES with a per-equation residual stopping test.

    Arnoldi with modified Gram-Schmidt and Givens rotations; iteration count
    is the total number of inner steps; x starts at 0, so r = b costs no
    matvec and a solve costs `iterations` matvecs. Reads only tolerance,
    restart and max_iterations from config.

    The residual is per equation: max_k ||r_k|| / ||b_k|| over the two
    halves (phi, dphi/dn), a zero b_k measured against ||b|| instead. It
    does not change when either half of the system is scaled, and where
    neither b_k is zero it is never below ||r|| / ||b||. A cycle ends once
    the Arnoldi estimate ||r|| <= tolerance * min_k ||b_k||, which bounds
    every half. Each cycle closes on r - V_{j+1} Hbar y, with Hbar the
    (j+1) x j Hessenberg matrix before its rotations: the Arnoldi relation
    A V_j = V_{j+1} Hbar, which modified Gram-Schmidt keeps to rounding,
    makes this b - A x without another matvec, and the per-equation test
    of that vector decides. Raises GmresNonConvergence with the best
    residual if max_iterations is exhausted, and its subclass
    GmresBreakdown at the first non-finite residual.
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

    def _solution(x: np.ndarray, its: int, rel: float) -> SurfaceSolution:
        return SurfaceSolution(
            phi=x[:half], dphi_dn=x[half:], iterations=its, residual=rel
        )

    def _breakdown(matvecs: int) -> GmresBreakdown:
        return GmresBreakdown(
            f"non-finite residual (matvecs: {matvecs}, "
            f"best residual {best:.3e}, tolerance {tol:.3e})",
            best_residual=best,
        )

    if norm_b == 0.0:
        return _solution(np.zeros(n), 0, 0.0)

    x = np.zeros(n)
    r = b  # b - A x with x = 0, without spending a matvec on A 0
    total = 0
    best = np.inf
    m = config.restart
    estimate_tol = tol * min(scales)
    while True:
        rel = _relative(r)
        if not np.isfinite(rel):
            raise _breakdown(total)
        best = min(best, rel)
        if rel <= tol:
            return _solution(x, total, rel)
        if total >= config.max_iterations:
            raise GmresNonConvergence(
                f"no convergence in {total} iterations "
                f"(best residual {best:.3e}, tolerance {tol:.3e})",
                best_residual=best,
            )
        beta = float(np.linalg.norm(r))
        basis = np.zeros((m + 1, n))
        hess = np.zeros((m + 1, m))
        arnoldi = np.zeros((m + 1, m))  # hess before the rotations
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        basis[0] = r / beta
        g[0] = beta
        j = 0
        while j < m and total < config.max_iterations:
            w = apply(basis[j])
            for i in range(j + 1):
                hess[i, j] = float(basis[i] @ w)
                w = w - hess[i, j] * basis[i]
            hess[j + 1, j] = float(np.linalg.norm(w))
            if hess[j + 1, j] > 1e-300:
                basis[j + 1] = w / hess[j + 1, j]
            arnoldi[: j + 2, j] = hess[: j + 2, j]
            for i in range(j):
                tmp = cs[i] * hess[i, j] + sn[i] * hess[i + 1, j]
                hess[i + 1, j] = -sn[i] * hess[i, j] + cs[i] * hess[i + 1, j]
                hess[i, j] = tmp
            denom = float(np.hypot(hess[j, j], hess[j + 1, j]))
            cs[j] = hess[j, j] / denom
            sn[j] = hess[j + 1, j] / denom
            hess[j, j] = denom
            hess[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            j += 1
            if not np.isfinite(g[j]):
                raise _breakdown(total)
            if abs(g[j]) <= estimate_tol:
                break
        y = np.linalg.solve(np.triu(hess[:j, :j]), g[:j]) if j else np.zeros(0)
        x = x + basis[:j].T @ y
        r = r - basis[: j + 1].T @ (arnoldi[: j + 1, :j] @ y)


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
    targets; charges are strictly interior so no pair is singular. The
    charges go through one set of kernel buffers in the blocks of
    _strip_layout, each summing over the whole fixed source axis, so no
    bit depends on the blocking. K1 and K2 do not read a target normal.
    """
    charges = problem.charges
    pos, nrm, wphi, wdphi = _sources(problem, solution.phi, solution.dphi_dn)
    xt = charges.positions
    bounds, pairs, _ = _strip_layout(len(xt), wphi.size)
    scratch = kernel_scratch(int(pairs.max(initial=0)))
    rows = np.empty(len(xt))
    for s, e in zip(bounds[:-1], bounds[1:]):
        rows[s:e], _ = kernel_sums(
            scratch,
            (xt[s:e].T[:, :, None], None),
            (pos[:, None], nrm[:, None]),
            wphi,
            wdphi,
            problem.params,
            second=False,
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
