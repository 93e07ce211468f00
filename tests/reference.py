"""Scalar oracles, independent of the vectorized code they check.

g0 and g_kappa evaluate one point pair in plain scalar arithmetic. The
finite-difference kernel tests and the acceptance gate difference them to
check K1..K4, so they share no code with kernels.kernel_values_d.
modified_spherical_kn is the upward Bessel recurrence that
kirkwood.bessel_log_derivative's ratio recurrence is checked against.
subdivide is the face-by-face loop that mesh._subdivide replaces with
array code. nodes_from_vertex_data is the per-rotation curved-node fit that
geometry.curved_nodes replaces with one arc per mesh edge, and flat_area
the area of the flat triangles. gmres_givens is GMRES on a Givens-rotated Hessenberg matrix, solved by back substitution where solver.gmres_solve runs a
least-squares solve on the unrotated one; both stop on the same test.
duffy_pairs rebuilds hobi's Duffy frames pair by pair, which the solver
folds into its near table, and duffy_near_sums sums them pair by pair.
"""

import numpy as np

from pbbem.geometry import (
    _blend_reference,
    arc_normal,
    arc_point,
    curved_nodes,
    fit_arc,
    frames_at,
)
from pbbem.kernels import FOUR_PI, SingularityError, kernel_values_d
from pbbem.solver import (
    DUFFY_RULE,
    GMRES_STEPS,
    GmresBreakdown,
    GmresNonConvergence,
    SolverConfig,
    SurfaceSolution,
)


def g0(x, y) -> float:
    """Free-space Coulomb potential 1/(4 pi |x-y|)."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = float(np.sqrt(np.dot(d, d)))
    if r < 1e-300:
        raise SingularityError("g0 evaluated at coincident points")
    return 1.0 / (FOUR_PI * r)


def g_kappa(x, y, kappa: float) -> float:
    """Screened Coulomb potential exp(-kappa |x-y|)/(4 pi |x-y|)."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = float(np.sqrt(np.dot(d, d)))
    if r < 1e-300:
        raise SingularityError("g_kappa evaluated at coincident points")
    return float(np.exp(-kappa * r)) / (FOUR_PI * r)


def modified_spherical_kn(nmax: int, x: float) -> np.ndarray:
    """k_0..k_nmax at x > 0, normalized so k_0(x) = exp(-x)/x.

    Upward recurrence k_{n+1} = k_{n-1} + ((2n+1)/x) k_n, which is stable in
    this direction because k_n grows with n. Only ratios of these enter the
    log derivative, so the omitted pi/2 prefactor is irrelevant.
    """
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    k = np.empty(nmax + 1)
    k[0] = np.exp(-x) / x
    if nmax >= 1:
        k[1] = k[0] * (1.0 + 1.0 / x)
    for n in range(1, nmax):
        k[n + 1] = k[n - 1] + ((2 * n + 1) / x) * k[n]
    return k


def subdivide(verts: np.ndarray, faces: np.ndarray):
    """One 4-to-1 split with unit-sphere reprojection, one face at a time."""
    cache: dict[tuple[int, int], int] = {}
    out = [v for v in verts]

    def midpoint(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            m = out[i] + out[j]
            out.append(m / np.linalg.norm(m))
            cache[key] = len(out) - 1
        return cache[key]

    new_faces = np.empty((4 * faces.shape[0], 3), dtype=np.int64)
    for k, (a, b, c) in enumerate(faces):
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces[4 * k : 4 * k + 4] = [
            (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca),
        ]
    return np.asarray(out), new_faces


def nodes_from_vertex_data(x1, n1, x2, n2, x3, n3):
    """One element's 10 node positions and normals from its three vertices,
    each (..., 3): arcs 1-2, 1-3 and 2-3 fitted in that direction, and the
    interior node at the midpoint of the cross arc through nodes 5 and 6."""
    x1, n1, x2, n2, x3, n3 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (x1, n1, x2, n2, x3, n3))
    )
    nodes = np.empty(x1.shape[:-1] + (10, 3))
    normals = np.empty_like(nodes)
    nodes[..., 0, :], normals[..., 0, :] = x1, n1
    nodes[..., 3, :], normals[..., 3, :] = x2, n2
    nodes[..., 8, :], normals[..., 8, :] = x3, n3
    third = 1.0 / 3.0
    for (p, m, q, k), edge in (
        ((x1, n1, x2, n2), (1, 4)), ((x1, n1, x3, n3), (2, 5)), ((x2, n2, x3, n3), (6, 7))
    ):
        arc = fit_arc(p, m, q, k)
        for local, u in zip(edge, (third, 2 * third)):
            nodes[..., local, :] = arc_point(arc, u)
            normals[..., local, :] = arc_normal(arc, u, _blend_reference(m, k, u))[0]
    m5, m6 = normals[..., 4, :], normals[..., 5, :]
    cross = fit_arc(nodes[..., 4, :], m5, nodes[..., 5, :], m6)
    nodes[..., 9, :] = arc_point(cross, 0.5)
    normals[..., 9, :] = arc_normal(cross, 0.5, _blend_reference(m5, m6, 0.5))[0]
    return nodes, normals


def flat_area(mesh) -> float:
    """Total area of the flat (rectilinear) triangles."""
    x = mesh.vertices[mesh.faces]
    cr = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
    return 0.5 * float(np.linalg.norm(cr, axis=1).sum())


def gmres_givens(apply, b: np.ndarray, config: SolverConfig) -> SurfaceSolution:
    """GMRES with a per-equation residual stopping test, one Arnoldi
    process of at most GMRES_STEPS steps.

    Arnoldi with modified Gram-Schmidt and Givens rotations; x starts at 0,
    so its residual b costs no matvec and a solve costs `iterations`
    matvecs. Reads only tolerance from config.

    The residual is per equation: max_k ||r_k|| / ||b_k|| over the two
    halves (phi, dphi/dn), a zero b_k measured against ||b|| instead. It
    does not change when either half of the system is scaled, and where
    neither b_k is zero it is never below ||r|| / ||b||. Each step
    back-substitutes the rotated system for y and forms b - V_{j+1} Hbar
    y, with Hbar the (j+1) x j Hessenberg matrix before its rotations: the
    Arnoldi relation A V_j = V_{j+1} Hbar, which modified Gram-Schmidt
    keeps to rounding, makes this b - A x without another matvec. The
    solve returns at the first step where that vector's per-equation
    residual is within the tolerance. Raises GmresNonConvergence with the
    best residual after GMRES_STEPS steps short of it, and its subclass
    GmresBreakdown at the first non-finite residual or a zero rotated
    diagonal entry (Hbar rank-deficient).
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
    m = GMRES_STEPS

    def _relative(r: np.ndarray) -> float:
        # np.max, unlike max(), returns a NaN in either half
        parts = [float(np.linalg.norm(r[h])) / s for h, s in zip(halves, scales)]
        return float(np.max(parts))

    def _failure(error, reason: str, matvecs: int):
        return error(
            f"{reason} (matvecs: {matvecs}, best residual {best:.3e}, tolerance {tol:.3e})",
            best_residual=best,
        )

    if norm_b == 0.0:
        return SurfaceSolution(np.zeros(half), np.zeros(half), 0, 0.0)

    best = _relative(b)
    if not np.isfinite(best):
        raise _failure(GmresBreakdown, "non-finite residual", 0)
    basis = np.zeros((m + 1, n))
    hess = np.zeros((m + 1, m))
    arnoldi = np.zeros((m + 1, m))  # hess before the rotations
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    basis[0] = b / norm_b
    g[0] = norm_b
    for j in range(m):
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
        if not np.isfinite(denom):
            raise _failure(GmresBreakdown, "non-finite residual", j + 1)
        if denom == 0.0:
            raise _failure(GmresBreakdown, "rank-deficient Hessenberg matrix", j + 1)
        cs[j] = hess[j, j] / denom
        sn[j] = hess[j + 1, j] / denom
        hess[j, j] = denom
        hess[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        y = np.linalg.solve(np.triu(hess[: j + 1, : j + 1]), g[: j + 1])
        rel = _relative(b - basis[: j + 2].T @ (arnoldi[: j + 2, : j + 1] @ y))
        best = min(best, rel)
        if rel <= tol:
            x = basis[: j + 1].T @ y
            return SurfaceSolution(x[:half], x[half:], j + 1, rel)
    raise _failure(GmresNonConvergence, "no convergence", m)


def duffy_pairs(problem):
    """hobi's near pairs with their Duffy frames, in row order: (gverts,
    pos, nrm, w, bary). Pair p couples vertex gverts[p, 0] with the face
    rotated so that it is local node 1, gverts[p] its rotated vertex order;
    each row's pairs ascend by face. pos and nrm are (P, D, 3), w the
    (P, D) weight x Jacobian and bary the (D, 3) linear vertex weights of
    the solver's DUFFY_RULE, D points."""
    mesh = problem.mesh
    rule = DUFFY_RULE
    node_pos, node_nrm = curved_nodes(mesh.vertices, mesh.normals, mesh.faces)
    n = 3 * mesh.n_faces
    pos, nrm, jac = frames_at(node_pos.reshape(3, n, 10), node_nrm.reshape(3, n, 10),
                              rule.points)
    pos, nrm = (a.transpose(1, 2, 0) for a in (pos, nrm))
    gverts = np.stack([np.roll(mesh.faces, -k, axis=1) for k in range(3)], axis=1)
    gverts = gverts.reshape(-1, 3)
    order = np.argsort(gverts[:, 0], kind="stable")
    r, s = rule.points.T
    bary = np.stack([1.0 - r - s, r, s], axis=1)
    return gverts[order], pos[order], nrm[order], (rule.weights * jac)[order], bary


def _node_sum(values, bary):
    """(..., 3) node values x (m, 3) weights -> (..., m), in node order."""
    return values[..., 0, None] * bary[:, 0] + values[..., 1, None] * bary[:, 1] + (
        values[..., 2, None] * bary[:, 2]
    )


def duffy_near_sums(problem, phi, dphi):
    """(2, T) near values of hobi's rows, pair by pair: each pair's K1 dphi
    + K2 phi and K3 dphi + K4 phi summed over its Duffy points, then each
    row's pairs added in order, with every kernel from kernel_values_d."""
    gv, pos, nrm, w, bary = duffy_pairs(problem)
    pv = gv[:, 0]
    k1, k2, k3, k4 = kernel_values_d(
        problem.colloc_pos[pv][:, None, :] - pos,
        problem.colloc_nrm[pv][:, None, :],
        nrm,
        problem.params,
    )
    wp, wd = w * _node_sum(phi[gv], bary), w * _node_sum(dphi[gv], bary)
    t = problem.n_collocation
    return np.stack([
        np.bincount(pv, weights=(k1 * wd + k2 * wp).sum(axis=1), minlength=t),
        np.bincount(pv, weights=(k3 * wd + k4 * wp).sum(axis=1), minlength=t),
    ])
