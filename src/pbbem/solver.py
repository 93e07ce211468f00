"""Matrix-free boundary-integral solver for the linearized PB equation.

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
rule on every element and each collocation row's near elements. One
blocked sweep (_sweep) sums the regular rule over every element; the
matvecs skip each row's near elements (lobi: its own face, dropped; hobi:
the incident faces, whose Duffy-regularized values are then added), the
solvation energy skips none. The summation order inside a row is fixed by
element index and never depends on how target rows are blocked or
partitioned across workers, which is what makes the parallel matvec
reproduce the serial one bitwise.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import DegenerateArcError, frames_at, nodes_from_vertex_data
from .kernels import (
    FOUR_PI,
    KCAL_MOL_PER_E2_ANG,
    TARGET_BLOCK,
    PhysicalParams,
    kernel_values_d,
    source_terms_at,
)
from .mesh import ChargeSystem, FlatMesh
from .quadrature import TriangleRule, duffy_rule, gauss_radau_rule

SCHEMES = ("hobi", "lobi")


class GmresNonConvergence(RuntimeError):
    """GMRES hit its iteration budget; carries the best residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class GmresBreakdown(GmresNonConvergence):
    """GMRES met a non-finite residual (NaN/inf in b or in the operator)."""


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
    """Solved surface traces plus solve diagnostics."""

    phi: np.ndarray
    dphi_dn: np.ndarray
    iterations: int
    residual: float

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

    def singular_faces(self, row: int) -> np.ndarray:
        """Indices of the near elements of collocation row `row`."""
        lo, hi = self.pair_starts[row], self.pair_starts[row + 1]
        return self.pair_face[lo:hi]


def _barycentric(points: np.ndarray) -> np.ndarray:
    """(m, 3) linear vertex weights (1-r-s, r, s) at reference points."""
    r = points[:, 0]
    s = points[:, 1]
    return np.stack([1.0 - r - s, r, s], axis=1)


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
    reg_pos, reg_nrm, reg_jac = frames_at(node_pos[:, 0], node_nrm[:, 0], rule.points)
    reg_w = rule.weights[None, :] * reg_jac

    duffy = duffy_rule(config.duffy_points)
    duf_pos, duf_nrm, duf_jac = frames_at(
        node_pos.reshape(3 * nf, 10, 3),
        node_nrm.reshape(3 * nf, 10, 3),
        duffy.points,
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
    """(src, snrm, wphi, wdphi): the regular rule's flat source axis."""
    w, nodes, bary = problem.reg_w, problem.reg_nodes, problem.reg_bary
    return (
        problem.reg_pos.reshape(-1, 3),
        problem.reg_nrm.reshape(-1, 3),
        (w * _interp(phi[nodes], bary)).reshape(-1),
        (w * _interp(dphi[nodes], bary)).reshape(-1),
    )


def _sweep(xt, nt, sources, params: PhysicalParams, skip=None):
    """Row sums (K1 wdphi + K2 wphi, K3 wdphi + K4 wphi) at targets (xt, nt).

    Targets go TARGET_BLOCK rows at a time, but each row sums over the whole
    fixed source axis, so no result depends on the blocking. skip, if given,
    is a per-row list (starts, cols): row i masks the sources
    cols[starts[i]:starts[i+1]].
    """
    src, snrm, wphi, wdphi = sources
    t = xt.shape[0]
    acc1, acc2 = np.empty(t), np.empty(t)
    for s in range(0, t, TARGET_BLOCK):
        e = min(s + TARGET_BLOCK, t)
        d = xt[s:e, None, :] - src[None, :, :]
        if skip is not None:
            starts, cols = skip
            rows = np.repeat(np.arange(e - s), np.diff(starts[s : e + 1]))
            pair = (rows, cols[starts[s] : starts[e]])
            d[pair] = (1.0, 0.0, 0.0)
        k1, k2, k3, k4 = kernel_values_d(d, nt[s:e, None, :], snrm[None], params)
        if skip is not None:
            for k in (k1, k2, k3, k4):
                k[pair] = 0.0
        acc1[s:e] = (k1 * wdphi + k2 * wphi).sum(axis=1)
        acc2[s:e] = (k3 * wdphi + k4 * wphi).sum(axis=1)
    return acc1, acc2


def _apply_range(problem: DiscretizedProblem, u: np.ndarray, lo: int, hi: int):
    """Rows [lo, hi) of both equation blocks: the deterministic core.

    Returns (phi_rows, dphi_rows), each of length hi - lo. All sums run over
    a fixed full source axis or over near-list slices sorted by (row, face),
    so the result is independent of how [0, T) was split into ranges.
    """
    T = problem.n_collocation
    params = problem.params
    er = params.eps2 / params.eps1
    phi, dphi = u[:T], u[T:]
    sources = _sources(problem, phi, dphi)
    xt = problem.colloc_pos[lo:hi]
    nt = problem.colloc_nrm[lo:hi]

    # the regular rule skips each row's near faces, all Q points of each
    p0 = int(problem.pair_starts[lo])
    p1 = int(problem.pair_starts[hi])
    q = problem.reg_w.shape[1]
    near = problem.pair_face[p0:p1, None] * q + np.arange(q)
    skip = ((problem.pair_starts[lo : hi + 1] - p0) * q, near.reshape(-1))
    acc1, acc2 = _sweep(xt, nt, sources, params, skip=skip)

    if problem.duf_w is not None and p1 > p0:
        # hobi: the near faces' Duffy-regularized values
        gv = problem.pair_gverts[p0:p1]
        pv = gv[:, 0]
        k1, k2, k3, k4 = kernel_values_d(
            problem.colloc_pos[pv][:, None, :] - problem.duf_pos[p0:p1],
            problem.colloc_nrm[pv][:, None, :],
            problem.duf_nrm[p0:p1],
            params,
        )
        wp = problem.duf_w[p0:p1] * _interp(phi[gv], problem.duf_bary)
        wd = problem.duf_w[p0:p1] * _interp(dphi[gv], problem.duf_bary)
        duf1 = (k1 * wd + k2 * wp).sum(axis=1)
        duf2 = (k3 * wd + k4 * wp).sum(axis=1)
        acc1 += np.bincount(pv - lo, weights=duf1, minlength=hi - lo)
        acc2 += np.bincount(pv - lo, weights=duf2, minlength=hi - lo)

    out1 = 0.5 * (1.0 + er) * phi[lo:hi] - acc1
    out2 = 0.5 * (1.0 + 1.0 / er) * dphi[lo:hi] - acc2
    return out1, out2


def _full_matvec(problem: DiscretizedProblem, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    T = problem.n_collocation
    if u.shape != (2 * T,):
        raise ValueError(f"expected vector of length {2 * T}, got shape {u.shape}")
    out1, out2 = _apply_range(problem, u, 0, T)
    return np.concatenate([out1, out2])


def matvec_hobi(problem: DiscretizedProblem, u: np.ndarray) -> np.ndarray:
    """Apply the vertex-collocated curved-element operator to u."""
    if problem.scheme != "hobi":
        raise ValueError(f"problem was discretized for scheme {problem.scheme!r}")
    return _full_matvec(problem, u)


def matvec_lobi(problem: DiscretizedProblem, u: np.ndarray) -> np.ndarray:
    """Apply the centroid-collocated flat-element operator to u."""
    if problem.scheme != "lobi":
        raise ValueError(f"problem was discretized for scheme {problem.scheme!r}")
    return _full_matvec(problem, u)


def assemble_rhs(problem: DiscretizedProblem) -> np.ndarray:
    """Source vector (S1, S2)/eps1 at the collocation points.

    The 1/eps1 scaling pairs with the exterior-to-interior kernel ratio so
    the solve returns the physical surface traces directly.
    """
    s1, s2 = source_terms_at(
        problem.colloc_pos, problem.colloc_nrm, problem.charges
    )
    return np.concatenate([s1, s2]) / problem.params.eps1


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
    # glibc raises its mmap threshold, and its trim threshold to twice that,
    # to the size of any mapped block it frees. Freeing one 16 MB block here
    # keeps a sweep block's few MB of temporaries on the heap; otherwise,
    # depending on what the parent allocated before the fork, every block
    # can map and fault in fresh pages (a 2-worker level-4 lobi solve ran
    # 20-30% slower). Elsewhere this is one unused allocation.
    np.empty(1 << 21)


def _range_task(u: np.ndarray, lo: int, hi: int):
    return _apply_range(_worker_problem, u, lo, hi)


class _Operator:
    """Callable matvec, optionally fanned out over a fork pool."""

    def __init__(self, problem: DiscretizedProblem, workers: int):
        self._problem = problem
        self._pool = None
        self._ranges = None
        can_fork = "fork" in multiprocessing.get_all_start_methods()
        if workers > 1 and can_fork and problem.n_collocation > 0:
            self._ranges = partition_targets(problem.n_collocation, workers)
            self._pool = multiprocessing.get_context("fork").Pool(
                workers, initializer=_adopt, initargs=(problem,)
            )

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self._pool is None:
            return _full_matvec(self._problem, u)
        T = self._problem.n_collocation
        parts = self._pool.starmap(
            _range_task,
            [(u, lo, hi) for lo, hi in self._ranges],
        )
        out = np.empty(2 * T)
        for (lo, hi), (row1, row2) in zip(self._ranges, parts):
            out[lo:hi] = row1
            out[T + lo : T + hi] = row2
        return out

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
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
    """Restarted GMRES with a true-residual stopping test.

    Arnoldi with modified Gram-Schmidt and Givens rotations; iteration count
    is the total number of inner steps; x starts at 0, so r = b costs no
    matvec and c cycles cost iterations + c. Reads only tolerance, restart
    and max_iterations from config. Raises GmresNonConvergence with the best
    relative residual if max_iterations is exhausted, and its subclass
    GmresBreakdown at the first non-finite residual, true or estimated.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    if n % 2:
        raise ValueError("vector length must be even: (phi, dphi/dn) halves")
    norm_b = float(np.linalg.norm(b))
    tol = config.tolerance

    def _solution(x: np.ndarray, its: int, rel: float) -> SurfaceSolution:
        half = n // 2
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
    cycles = 0  # true-residual matvecs, one per completed cycle
    best = np.inf
    m = config.restart
    while True:
        rel = float(np.linalg.norm(r)) / norm_b
        if not np.isfinite(rel):
            raise _breakdown(total + cycles)
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
                raise _breakdown(total + cycles)
            if abs(g[j]) / norm_b <= tol:
                break
        y = np.linalg.solve(np.triu(hess[:j, :j]), g[:j]) if j else np.zeros(0)
        x = x + basis[:j].T @ y
        r = b - apply(x)
        cycles += 1


def solve(problem: DiscretizedProblem, config: SolverConfig) -> SurfaceSolution:
    """Surface traces of a discretized problem: RHS, operator, GMRES.

    The operator's worker pool (config.workers) is closed before returning,
    also when GMRES raises. config.scheme is not read: the problem already
    carries its scheme.
    """
    b = assemble_rhs(problem)
    with make_operator(problem, config) as op:
        return gmres_solve(op, b, config)


# ---------------------------------------------------------------------------
# outputs


def solvation_energy(
    problem: DiscretizedProblem, solution: SurfaceSolution
) -> float:
    """Reaction-field energy in kcal/mol from the solved surface traces.

    E = (1/2) sum_k q_k * Int_Gamma [K1(x_k, y) dphi/dn + K2(x_k, y) phi] dS,
    integrated with the matvec's regular sweep, the charges as targets;
    charges are strictly interior so no pair is singular.
    """
    charges = problem.charges
    sources = _sources(problem, solution.phi, solution.dphi_dn)
    # K1 and K2 ignore the target normal, so any finite normals will do
    rows, _ = _sweep(
        charges.positions, np.zeros_like(charges.positions), sources, problem.params
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
