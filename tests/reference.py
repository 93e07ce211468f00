"""Scalar fundamental solutions, independent of the vectorized kernels.

g0 and g_kappa evaluate one point pair in plain scalar arithmetic. The
finite-difference kernel tests and the acceptance gate difference them to
check K1..K4, so they share no code with kernels.pair_kernels.
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
