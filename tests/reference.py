"""Scalar oracles, independent of the vectorized code they check.

g0 and g_kappa evaluate one point pair in plain scalar arithmetic. The
finite-difference kernel tests and the acceptance gate difference them to
check K1..K4, so they share no code with kernels.pair_kernels.
subdivide is the face-by-face loop that mesh._subdivide replaces with
array code.
"""

import numpy as np

from pbbem.kernels import FOUR_PI, SingularityError


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
