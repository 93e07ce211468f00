"""Matrix-free boundary-integral solver for the linearized PB equation.

The phi and the dphi/dn equation of the second-kind system (Juffer et al.,
J. Comput. Phys. 97, 1991) are each divided by their jump coefficient,
alpha1 = (1 + er)/2 and alpha2 = (1 + 1/er)/2 with er = eps2/eps1, so the
operator is the identity minus the kernel sums and its spectrum clusters
at 1 instead of at two values ~er apart. The unknowns stay the physical
(phi, dphi/dn). GMRES stops on the larger of the two equations' relative
residuals, which this row scaling does not change. Each restart cycle
keeps one Hessenberg matrix and stops at the first inner step whose
residual, from its Arnoldi relation and no matvec, meets that test.

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
sources, and its row sums go to rows [s, e). Every block is products of
kernel factors with source moments about the problem's origin
(kernels.kernel_sums). hobi's strips read the whole flat regular-rule axis
(c = 0), and each task then adds its rows' near values from the table of
_near_table. lobi's sources are its collocation points, one per element,
and a row skips only its own (_self_sourced reads this from the tables),
so pair (i, j) and its swap share every kernel factor: its strips read
columns [s, T) and also send the swapped pairs' sums to rows [e, T).

The strips form STRIP_CHUNKS chunks, the matvec's fixed work list; each
chunk sums from zero in strip order and the chunks are added over a fixed
binary tree. Matrix products round by their row count, so every matvec's
bits follow the strip layout, a function of T and N alone, never of the
worker count. The solvation energy sums the regular rule over every
element with the charges as targets, in blocks from _strip_layout that are
products too (kernels.energy_sums), so its bits follow that layout; each
right-hand side row sums the full charge axis, so its bits follow none.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace

import numpy as np

from .geometry import DegenerateElementError, curved_nodes, frames_at
from .kernels import (
    ENERGY_BUFFERS,
    FOUR_PI,
    KCAL_MOL_PER_E2_ANG,
    PAGE_DOUBLES,
    PhysicalParams,
    energy_factors,
    energy_sums,
    kernel_scratch,
    kernel_sums,
    kernel_values_d,
    short_buffers,
    source_moments,
    source_terms_at,
    sweep_buffers,
    target_factors,
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
# rotated elements per chunk of _near_table's Duffy frames: a level-3 hobi
# discretize traces a 4.7 MB peak at 512, 6.0 MB at 1024, 11.7 MB unchunked
NEAR_CHUNK = 512

# every config's default regular rule: one instance, verified once
_REGULAR_RULE = gauss_radau_rule()


class GmresNonConvergence(RuntimeError):
    """GMRES hit its iteration budget; carries the best residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class GmresBreakdown(GmresNonConvergence):
    """GMRES met a non-finite residual or a restart cycle that left it as it was."""


class WorkerDied(RuntimeError):
    """A matvec worker process ended before it returned its part."""


def _check_int(name: str, value, high: int | None = None):
    """Raise a ValueError naming the field unless value is an int (NumPy
    ints pass, bools fail) in [1, high], or at least 1 if high is None."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1 or (high is not None and value > high)):
        bound = ">= 1" if high is None else f"in [1, {high}]"
        raise ValueError(f"{name} must be an int {bound}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs. Defaults reproduce the reference setup everywhere."""

    scheme: str = "hobi"
    tolerance: float = 1e-6
    restart: int = 100
    max_iterations: int = 1000
    workers: int | None = None  # None: every CPU this process may run on
    regular_rule: TriangleRule = _REGULAR_RULE
    duffy_points: int = 4

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")
        _check_int("restart", self.restart)
        _check_int("max_iterations", self.max_iterations)
        if self.workers is not None:
            _check_int("workers", self.workers)
        if not isinstance(rule := self.regular_rule, TriangleRule):
            raise ValueError(f"regular_rule must be a TriangleRule, got {rule!r}")
        _check_int("duffy_points", self.duffy_points, 32)

    def worker_count(self) -> int:
        if self.workers is not None:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


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


def _near_table(mesh: FlatMesh, params: PhysicalParams, rotations,
                duffy: TriangleRule, node_pos, node_nrm):
    """The near table's fields of DiscretizedProblem, built once since the near
    values are linear in the vertex traces (Canino et al., J. Comput. Phys. 146,
    1998). Element e (face e // 3, vertex x = rotations[e, 0] at node 1) gets
    sum_d K(x, y_d) w_d bary_dj per kernel K1..K4 and node j; entry
    (x, rotations[e, j]) adds these in element (face) order."""
    n = len(node_pos)
    bary = _barycentric(duffy.points)
    duf_w = np.empty((n, len(duffy)))
    coef = np.empty((4, n, 3))
    x, nx = (a[rotations[:, 0], None] for a in (mesh.vertices, mesh.normals))
    for s in range(0, n, NEAR_CHUNK):
        e = min(s + NEAR_CHUNK, n)
        pos, nrm, duf_w[s:e] = _face_frames(node_pos[s:e], node_nrm[s:e], duffy, 3, s)
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

    rule = config.regular_rule
    reg_pos, reg_nrm, reg_w = _face_frames(node_pos[:, 0], node_nrm[:, 0], rule, 1)
    near = _near_table(mesh, params, rotations, duffy_rule(config.duffy_points),
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
        reg_bary=_barycentric(rule.points),
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


def _sources(problem: DiscretizedProblem, phi: np.ndarray, dphi: np.ndarray):
    """(pos, nrm, wphi, wdphi): the regular rule's flat source axis.

    pos and nrm are (3, N) coordinate rows, contiguous per coordinate.
    """
    return (
        np.ascontiguousarray(problem.reg_pos.reshape(-1, 3).T),
        np.ascontiguousarray(problem.reg_nrm.reshape(-1, 3).T),
        *_weights(problem, phi, dphi),
    )


def _add_near(problem: DiscretizedProblem, phi, dphi, lo, hi, acc):
    """Add rows [lo, hi)'s near values from the hobi near table to acc[:, lo:hi],
    each row's K1 dphi + K2 phi and K3 dphi + K4 phi summed in table order
    (bincount adds in input order), so no bit depends on a task's rows."""
    starts = problem.near_starts[lo : hi + 1]
    rows = np.repeat(np.arange(hi - lo), np.diff(starts))
    cols = problem.near_cols[starts[0] : starts[-1]]
    c1, c2, c3, c4 = problem.near_coef[:, starts[0] : starts[-1]]
    p, dp = phi[cols], dphi[cols]
    acc[0, lo:hi] += np.bincount(rows, c1 * dp + c2 * p, minlength=hi - lo)
    acc[1, lo:hi] += np.bincount(rows, c3 * dp + c4 * p, minlength=hi - lo)


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
    near values from the near table (_add_near); a row's regular sum meets
    only zeros in the tree.
    """
    T, params = problem.n_collocation, problem.params
    phi, dphi = u[:T], u[T:]
    pos, nrm, wphi, wdphi = _sources(problem, phi, dphi)
    own = _self_sourced(problem)
    bounds, pairs, chunks = _strip_layout(T, None if own else wphi.size)
    # self-sourced targets are the sources, whose coordinate rows are contiguous
    xt, nt = (pos, nrm) if own else (problem.colloc_pos.T, problem.colloc_nrm.T)
    o = problem.origin[:, None]
    moments = source_moments(pos - o, nrm, wphi, wdphi, params)
    weights = target_factors(xt - o, nt)
    scratch = kernel_scratch(int(pairs.max(initial=0)), sweep_buffers(params))
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
                (xt[:, s:e, None], weights[:, s:e]),
                (pos[:, None, c:], [m[c:] for m in moments]),
                params,
                mask=(near_rows[near] - s, near_cols[near] - c),
                swapped=(e - s, [m[s:e] for m in moments], weights[:, e:]) if own else None,
            )
            acc[0, s:e] += row1
            acc[1, s:e] += row2
            for sums, col in zip(acc, cols):
                sums[e:] += col
        return acc

    with short_buffers():
        nodes = [
            (a, b, _tree_sum(a, b, chunk))
            for a, b in _tree_nodes(0, STRIP_CHUNKS, lo, hi)
        ]
    if problem.near_coef is not None:
        for a, b, sums in nodes:
            _add_near(problem, phi, dphi, bounds[chunks[a]], bounds[chunks[b]], sums)
    return nodes


def workspace_doubles(problem: DiscretizedProblem) -> int:
    """float64 values (int64 indices count as one each) a serial matvec
    allocates: per source the flat source axis (_sources, 8 values) and
    its source_moments (8, or 20 at kappa > 0); per target 8 weights;
    sweep_buffers blocks of the largest strip and a page of alignment
    slack; 16 values for each row of a strip and each column its swapped
    pairs reach (a product with moments, its contraction and the sums);
    two indices per near source; the (2, T) sums the chunk tree holds at
    once, one per level and two at the leaves; and for hobi's near table
    6 values an entry (_add_near's gathers and products)."""
    n, t, params = problem.reg_w.size, problem.n_collocation, problem.params
    own = _self_sourced(problem)
    bounds, pairs, _ = _strip_layout(t, None if own else n)
    scratch = sweep_buffers(params) * int(pairs.max(initial=0)) + PAGE_DOUBLES
    reach = t - bounds[:-1] if own else np.diff(bounds)
    moments = (8 if params.kappa == 0.0 else 20) * n + 8 * t + 16 * int(reach.max(initial=0))
    near = problem.pair_face.size * problem.reg_w.shape[1]
    held = (STRIP_CHUNKS - 1).bit_length() + 2
    table = 0 if problem.near_cols is None else 6 * problem.near_cols.size
    return 8 * n + moments + scratch + 2 * near + table + held * 2 * t


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
    contiguous range per worker, of at most STRIP_CHUNKS workers
    (partition_targets). Their sums are added over the fixed chunk tree,
    each worker returning the largest nodes inside its range, so no bit
    depends on the worker count. A dead worker raises WorkerDied, and
    matvecs counts the applications.
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

            self._ranges = partition_targets(STRIP_CHUNKS, min(workers, STRIP_CHUNKS))
            self._pool = ProcessPoolExecutor(
                len(self._ranges),
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

    Arnoldi with modified Gram-Schmidt; iteration count is the total number
    of inner steps; x starts at 0, so r = b costs no matvec and a solve
    costs `iterations` matvecs. Reads only tolerance, restart and
    max_iterations from config.

    The residual is per equation: max_k ||r_k|| / ||b_k|| over the two
    halves (phi, dphi/dn), a zero b_k measured against ||b|| instead. It
    does not change when either half of the system is scaled, and where
    neither b_k is zero it is never below ||r|| / ||b||. Each inner step
    solves min ||beta e1 - Hbar y|| on the (j+1) x j Hessenberg matrix
    Hbar; the Arnoldi relation A V_j = V_{j+1} Hbar (kept to rounding by
    modified Gram-Schmidt) makes r - V_{j+1} Hbar y the new b - A x with
    no matvec. A cycle ends at the first step where that vector's
    per-equation residual is within the tolerance, when lstsq finds Hbar
    rank-deficient (it returns no residual), at the restart length or at
    the budget, and the next starts from that vector. Raises
    GmresNonConvergence with the best residual if max_iterations is
    exhausted, and its subclass GmresBreakdown at the first non-finite
    residual or after a cycle that left the residual unchanged, which
    every later cycle would repeat (A r = 0, say).
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
            f"{reason} (matvecs: {total}, best residual {best:.3e}, tolerance {tol:.3e})",
            best_residual=best,
        )

    if norm_b == 0.0:
        return SurfaceSolution(np.zeros(half), np.zeros(half), 0, 0.0)

    x = np.zeros(n)
    r = b  # b - A x with x = 0, without spending a matvec on A 0
    rel = _relative(r)
    total = 0
    best = np.inf
    m = config.restart
    while True:
        if not np.isfinite(rel):
            raise _failure(GmresBreakdown, "non-finite residual")
        best = min(best, rel)
        if rel <= tol:
            return SurfaceSolution(x[:half], x[half:], total, rel)
        if total >= config.max_iterations:
            raise _failure(GmresNonConvergence, "no convergence")
        beta_e1 = float(np.linalg.norm(r)) * np.eye(1, m + 1)[0]
        basis = np.zeros((m + 1, n))
        hess = np.zeros((m + 1, m))
        basis[0] = r / beta_e1[0]
        j = 0
        while True:
            w = apply(basis[j])
            # NaN/inf in w reach hess[j + 1, j], checked before lstsq, which rejects them
            with np.errstate(invalid="ignore", over="ignore"):
                for i in range(j + 1):
                    hess[i, j] = float(basis[i] @ w)
                    w = w - hess[i, j] * basis[i]
                hess[j + 1, j] = float(np.linalg.norm(w))
                if hess[j + 1, j] > 1e-300:
                    basis[j + 1] = w / hess[j + 1, j]
            total += 1
            j += 1
            if not np.isfinite(hess[: j + 1, j - 1]).all():
                raise _failure(GmresBreakdown, "non-finite residual")
            y, res = np.linalg.lstsq(hess[: j + 1, :j], beta_e1[: j + 1])[:2]
            r_j = r - basis[: j + 1].T @ (hess[: j + 1, :j] @ y)
            rel = _relative(r_j)
            if rel <= tol or not res.size or j == m or total >= config.max_iterations:
                break
        if np.array_equal(r_j, r):  # every later cycle would repeat this one
            raise _failure(GmresBreakdown, "no progress in a cycle")
        x = x + basis[:j].T @ y
        r = r_j


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
    block of charges from _strip_layout is a few elementwise passes over
    functions of r and small matrix products with the sources' factors,
    built once per call (energy_factors, energy_sums), positions taken
    about the problem's origin. The products round by their row count, so
    the bits follow the strip layout, a function of the charge count and N
    alone. K1 and K2 do not read a target normal.
    """
    charges = problem.charges
    # the rule's points are read in place: copies of them, 6 values a
    # source, would outweigh a one-charge energy's 4-block scratch
    targets, sources = energy_factors(
        charges.positions,
        problem.reg_pos.reshape(-1, 3).T,
        problem.reg_nrm.reshape(-1, 3).T,
        *_weights(problem, solution.phi, solution.dphi_dn),
        problem.origin,
        problem.params,
    )
    bounds, pairs, _ = _strip_layout(len(charges), problem.reg_w.size)
    scratch = kernel_scratch(int(pairs.max(initial=0)), ENERGY_BUFFERS)
    rows = np.empty(len(charges))
    for s, e in zip(bounds[:-1], bounds[1:]):
        rows[s:e] = energy_sums(scratch, targets[s:e], sources, problem.params)
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
