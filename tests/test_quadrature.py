import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import curved_nodes
from reference import flat_area

import pbbem
from pbbem.geometry import frames_at
from pbbem.mesh import icosahedral_sphere
from pbbem.quadrature import (
    TriangleRule,
    duffy_rule,
    gauss_legendre_1d,
    gauss_radau_rule,
    monomial_integral,
)


def rule_integral(rule, f):
    return float(sum(w * f(r, s) for (r, s), w in zip(rule.points, rule.weights)))


def element_integrals(mesh, integrand, rule):
    """Per-face integrals of integrand(positions) over the curved elements,
    with the frames and weights (rule weight x Jacobian) discretize caches."""
    pos, _, jac = frames_at(*curved_nodes(mesh), rule.points)
    return (integrand(pos.transpose(1, 2, 0)) * rule.weights * jac).sum(axis=1)


def test_monomial_integral_values():
    assert monomial_integral(0, 0) == pytest.approx(0.5, abs=1e-16)
    assert monomial_integral(1, 0) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert monomial_integral(1, 1) == pytest.approx(1.0 / 24.0, abs=1e-16)
    assert monomial_integral(2, 1) == pytest.approx(1.0 / 60.0, abs=1e-16)
    # a! b! / (a+b+2)!
    assert monomial_integral(3, 3) == pytest.approx(36.0 / math.factorial(8), rel=1e-15)


@pytest.mark.parametrize("rule", [gauss_radau_rule(), duffy_rule(4), duffy_rule(8)])
def test_weights_sum_to_triangle_area(rule):
    assert abs(float(np.sum(rule.weights)) - 0.5) <= 1e-14


@pytest.mark.parametrize("rule", [gauss_radau_rule(), duffy_rule(4)])
def test_points_inside_reference_triangle(rule):
    r = rule.points[:, 0]
    s = rule.points[:, 1]
    assert np.all(r >= 0.0) and np.all(s >= 0.0) and np.all(r + s <= 1.0 + 1e-15)


def test_regular_rule_monomials():
    rule = gauss_radau_rule()
    assert rule_integral(rule, lambda r, s: 1.0) == pytest.approx(0.5, abs=1e-14)
    assert rule_integral(rule, lambda r, s: r) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert rule_integral(rule, lambda r, s: r * s) == pytest.approx(
        1.0 / 24.0, abs=1e-14
    )


def test_regular_rule_metadata():
    rule = gauss_radau_rule()
    assert len(rule.weights) == 4
    assert rule.degree >= 2
    assert rule.name


@pytest.mark.parametrize("rule", [gauss_radau_rule(), duffy_rule(4), duffy_rule(6)])
def test_rule_exact_to_declared_degree(rule):
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            got = rule_integral(rule, lambda r, s, a=a, b=b: r**a * s**b)
            assert got == pytest.approx(monomial_integral(a, b), abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.floats(-5, 5), min_size=6, max_size=6))
def test_regular_rule_exact_on_random_quadratics(coeffs):
    c = coeffs

    def poly(r, s):
        return c[0] + c[1] * r + c[2] * s + c[3] * r * r + c[4] * r * s + c[5] * s * s

    exact = (
        c[0] * monomial_integral(0, 0)
        + c[1] * monomial_integral(1, 0)
        + c[2] * monomial_integral(0, 1)
        + c[3] * monomial_integral(2, 0)
        + c[4] * monomial_integral(1, 1)
        + c[5] * monomial_integral(0, 2)
    )
    assert rule_integral(gauss_radau_rule(), poly) == pytest.approx(exact, abs=1e-13)


def test_gauss_legendre_1d_small_orders():
    pts, wts = gauss_legendre_1d(1)
    assert pts == pytest.approx([0.5]) and wts == pytest.approx([1.0])
    pts, wts = gauss_legendre_1d(2)
    lo = 0.5 - 0.5 / np.sqrt(3.0)
    hi = 0.5 + 0.5 / np.sqrt(3.0)
    assert sorted(pts) == pytest.approx([lo, hi], abs=1e-15)
    x, w = gauss_legendre_1d(4)
    assert float(np.sum(w * np.asarray(x) ** 7)) == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("n", [0, 33])
def test_gauss_legendre_1d_bounds(n):
    with pytest.raises(ValueError):
        gauss_legendre_1d(n)


def test_gauss_legendre_1d_matches_leggauss():
    """For n = 1..32: nodes within 1e-15 of numpy's leggauss, weights
    within 1e-14 of its weights relative to their sum (1 on [0, 1]), exact
    for x^k up to k = 2n - 1, and the Duffy rule passes its exactness
    check. The weights are not compared one by one: leggauss's smallest
    weights stray up to 3.0e-13 relative from a 40-digit reference, these
    by up to 3.3e-14."""
    for n in range(1, 33):
        x, w = gauss_legendre_1d(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.abs(x - 0.5 * (ref_x + 1.0)).max() <= 1e-15, n
        assert np.abs(w - 0.5 * ref_w).max() <= 1e-14, n
        for k in range(2 * n):
            assert float(np.dot(w, x**k)) == pytest.approx(1.0 / (k + 1), abs=1e-14)
        duffy_rule(n)  # raises unless exact to degree 2n - 2


def test_duffy_rule_does_not_import_numpy_polynomial():
    """A fresh interpreter builds duffy_rule(4) without loading
    numpy.polynomial, whose import costs milliseconds of every set-up."""
    env = dict(os.environ)
    package_root = str(Path(pbbem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    code = (
        "import sys; from pbbem.quadrature import duffy_rule; duffy_rule(4); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_duffy_smooth_monomial():
    assert rule_integral(duffy_rule(4), lambda r, s: r * r * s) == pytest.approx(
        1.0 / 60.0, abs=1e-12
    )


def test_duffy_weights_positive_finite():
    for n in (1, 4, 8):
        rule = duffy_rule(n)
        assert np.all(np.isfinite(rule.weights))
        assert np.all(rule.weights > 0.0)
        assert len(rule.weights) == n * n


def test_duffy_degree_metadata():
    assert duffy_rule(4).degree == 6
    assert duffy_rule(1).degree == 0


def test_duffy_resolves_vertex_singularity():
    """1/R over the reference triangle: the map removes the singularity.

    The transformed integrand is smooth but not polynomial, so the error is
    set by 1D Gauss accuracy on it: measured 4.9e-4 at n=4, 3.1e-7 at n=8,
    1.7e-13 at n=16. The acceptance gate holds n=4 to 1e-6 (and fails
    honestly); here we pin the true behavior.
    """
    exact = np.sqrt(2.0) * np.log(1.0 + np.sqrt(2.0))
    errs = {}
    for n in (4, 8, 16):
        got = rule_integral(duffy_rule(n), lambda r, s: 1.0 / np.hypot(r, s))
        errs[n] = abs(got - exact)
    assert errs[8] <= 1e-6
    assert errs[16] <= 1e-12
    # invariant: n=4 vs n=16 differ by at least three orders of magnitude
    assert errs[4] / errs[16] >= 1e3
    assert errs[4] <= 1e-3


def test_triangle_rule_rejects_bad_weight_sum():
    pts = np.array([[0.25, 0.25]])
    with pytest.raises(ValueError):
        TriangleRule(points=pts, weights=np.array([0.75]), name="bad", degree=0)


def test_triangle_rule_rejects_outside_points():
    pts = np.array([[0.8, 0.8]])
    with pytest.raises(ValueError):
        TriangleRule(points=pts, weights=np.array([0.5]), name="bad", degree=0)


def test_integrate_element_flat_area(tetrahedron_mesh):
    # a triangle whose vertex normals equal the face normal is affine
    import pbbem.mesh as mesh_mod

    verts = tetrahedron_mesh.vertices
    tri = verts[tetrahedron_mesh.faces[0]]
    geom = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    area = 0.5 * float(np.linalg.norm(geom))
    nrm = geom / (2.0 * area)
    flat = mesh_mod.FlatMesh(
        vertices=verts,
        normals=np.tile(nrm, (4, 1)),
        faces=tetrahedron_mesh.faces[:1],
    )
    (got,) = element_integrals(flat, lambda p: 1.0, gauss_radau_rule())
    assert got == pytest.approx(area, abs=1e-13)


def test_integrate_element_linearity(tetrahedron_mesh):
    rule = gauss_radau_rule()

    def f(pos):
        return pos[..., 0] ** 2 + pos[..., 1]

    def g(pos):
        return np.sin(pos[..., 2])

    left = element_integrals(tetrahedron_mesh, lambda p: 2.0 * f(p) - 3.0 * g(p), rule)
    right = 2.0 * element_integrals(tetrahedron_mesh, f, rule) - 3.0 * element_integrals(
        tetrahedron_mesh, g, rule
    )
    assert np.abs(left - right).max() <= 1e-12


def test_curved_sphere_area_level3():
    mesh = icosahedral_sphere(3, radius=2.0)
    total = element_integrals(mesh, lambda p: 1.0, gauss_radau_rule()).sum()
    exact = 16.0 * np.pi
    assert abs(total - exact) / exact <= 1e-3


def test_flat_area_helper():
    mesh = icosahedral_sphere(0, radius=1.0)
    assert flat_area(mesh) < 4.0 * np.pi
