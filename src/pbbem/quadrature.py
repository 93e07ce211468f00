"""Quadrature rules on the reference triangle.

The reference triangle is {(r, s) : r >= 0, s >= 0, r + s <= 1}, area 1/2.
Every rule verifies its claimed polynomial exactness degree at construction
against the analytic monomial integrals int r^a s^b dA = a! b! / (a+b+2)!,
because rule tables are a classic transcription-error site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def monomial_integral(a: int, b: int) -> float:
    """Exact integral of r^a s^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@dataclass(frozen=True)
class TriangleRule:
    """A fixed quadrature rule on the reference triangle.

    ``degree`` is the polynomial exactness verified when the rule was built,
    recorded so downstream reports can state which rule produced a number.
    """

    points: np.ndarray  # (m, 2) pairs (r, s)
    weights: np.ndarray  # (m,)
    name: str
    degree: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if pts.ndim != 2 or pts.shape[1] != 2 or wts.shape != (pts.shape[0],):
            raise ValueError("rule arrays must be (m, 2) points and (m,) weights")
        if abs(wts.sum() - 0.5) > 1e-14:
            raise ValueError(f"rule '{self.name}': weights sum to {wts.sum()!r}, not 1/2")
        r, s = pts[:, 0], pts[:, 1]
        if (r < -1e-14).any() or (s < -1e-14).any() or (r + s > 1 + 1e-14).any():
            raise ValueError(f"rule '{self.name}': points outside the reference triangle")
        _verify_exactness(pts, wts, self.degree, self.name)

    def __len__(self) -> int:
        return self.weights.size


def _verify_exactness(points, weights, degree, name):
    r, s = points[:, 0], points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = monomial_integral(a, b)
            got = float(np.dot(weights, r**a * s**b))
            if abs(got - exact) > 1e-13 * max(1.0, abs(exact)):
                raise ValueError(
                    f"rule '{name}' fails exactness at r^{a} s^{b}: "
                    f"{got!r} vs {exact!r}"
                )


def gauss_radau_rule() -> TriangleRule:
    """The default 4-point regular rule (conical product, degree 3).

    Radial direction: 2-point Gauss-Jacobi rule for the weight (1 - r) on
    [0, 1], nodes (4 -+ sqrt(6))/10 with weights (9 +- sqrt(6))/36. Transverse
    direction: 2-point Gauss-Legendre on [0, 1]. The triangle points are
    (r_i, (1 - r_i) t_j) with weights a_i w_j; all weights positive.
    """
    sq6 = math.sqrt(6.0)
    r_nodes = [(4.0 - sq6) / 10.0, (4.0 + sq6) / 10.0]
    r_weights = [(9.0 + sq6) / 36.0, (9.0 - sq6) / 36.0]
    sq3 = math.sqrt(3.0)
    t_nodes = [0.5 - 0.5 / sq3, 0.5 + 0.5 / sq3]
    points = []
    weights = []
    for ri, ai in zip(r_nodes, r_weights):
        for tj in t_nodes:
            points.append((ri, (1.0 - ri) * tj))
            weights.append(0.5 * ai)
    return TriangleRule(np.array(points), np.array(weights), "conical-radau-4", degree=3)


def gauss_legendre_1d(n: int):
    """Classical n-point Gauss-Legendre rule mapped to [0, 1].

    Exact for polynomials of degree <= 2n - 1.
    """
    if not 1 <= n <= 32:
        raise ValueError(f"gauss_legendre_1d: n must be in [1, 32], got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def duffy_rule(n: int) -> TriangleRule:
    """n x n tensor Gauss-Legendre rule pushed through r=(1-y)x, s=yx.

    The map's Jacobian x is folded into the weights; it cancels a 1/R vertex
    singularity at (r, s) = (0, 0), which is where the points cluster. Exact
    for polynomials of total degree <= 2n - 2: the pullback of r^a s^b is
    x^(a+b+1) (1-y)^a y^b, integrated exactly when a + b + 1 <= 2n - 1.
    """
    x, wx = gauss_legendre_1d(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    WX, WY = np.meshgrid(wx, wx, indexing="ij")
    r = (1.0 - Y) * X
    s = Y * X
    w = WX * WY * X
    points = np.stack([r.ravel(), s.ravel()], axis=1)
    return TriangleRule(points, w.ravel(), f"duffy-gl{n}", degree=max(2 * n - 2, 0))

