"""Release gate: ten end-to-end criteria, one summary line each.

Every test here runs its scenario at full fidelity and records a
PASS/FAIL/SKIP line (printed by the conftest terminal-summary hook) carrying
the measured numbers. Criteria the implementation does not meet at the
stated tolerance fail honestly; no bound is loosened. The one skip is the
speedup half of criterion 10: four workers cannot reach its 2.5x bound on
fewer than four usable CPUs, so it is timed only where the host has them,
and its density-property half is asserted everywhere. The expensive solves
are cached at module scope so criteria that share a problem family (Born
sphere, eccentric screened sphere) pay for each discretization and solve
once.
"""

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import pytest
from conftest import record_criterion
from reference import g0, g_kappa

from pbbem.geometry import REFERENCE_NODES, shape_matrix
from pbbem.kernels import PhysicalParams, kernel_values_d
from pbbem.kirkwood import SphereProblem, kirkwood_series
from pbbem.mesh import ChargeSystem, icosahedral_sphere, parse_msms, write_msms
from pbbem.quadrature import duffy_rule, gauss_radau_rule, monomial_integral
from pbbem.solver import (
    SolverConfig,
    convergence_order,
    discretize,
    matvec_hobi,
    matvec_lobi,
    solvation_energy,
    solve,
    surface_potential_error,
)

_BORN_PARAMS = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
_BORN_CHARGES = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
_ECC_PARAMS = PhysicalParams(eps1=1.0, eps2=80.0, kappa=1.0)
_ECC_CHARGES = ChargeSystem(positions=[[0.5, 0.0, 0.0]], charges=[1.0])


@dataclass
class _Run:
    n_faces: int
    energy: float
    e_phi: float
    iterations: int
    seconds: float
    vector: np.ndarray = field(repr=False)


def _solve_run(problem, config, oracle) -> _Run:
    t0 = time.monotonic()
    solution = solve(problem, config)
    seconds = time.monotonic() - t0
    e_phi = surface_potential_error(solution.phi, oracle.phi(problem.colloc_pos))
    return _Run(
        n_faces=problem.mesh.n_faces,
        energy=solvation_energy(problem, solution),
        e_phi=e_phi,
        iterations=solution.iterations,
        seconds=seconds,
        vector=solution.vector,
    )


@lru_cache(maxsize=None)
def born_problem(scheme: str, level: int):
    mesh = icosahedral_sphere(level, radius=2.0)
    config = SolverConfig(scheme=scheme, workers=1)
    return discretize(mesh, _BORN_PARAMS, _BORN_CHARGES, config)


@lru_cache(maxsize=None)
def born_run(scheme: str, level: int) -> _Run:
    problem = born_problem(scheme, level)
    config = SolverConfig(scheme=scheme, workers=1)
    oracle = kirkwood_series(
        SphereProblem(radius=2.0, params=_BORN_PARAMS, charges=_BORN_CHARGES),
        n_terms=40,
    )
    return _solve_run(problem, config, oracle)


@lru_cache(maxsize=None)
def eccentric_run(scheme: str, level: int) -> _Run:
    mesh = icosahedral_sphere(level, radius=1.0)
    config = SolverConfig(scheme=scheme, workers=1)
    problem = discretize(mesh, _ECC_PARAMS, _ECC_CHARGES, config)
    oracle = kirkwood_series(
        SphereProblem(radius=1.0, params=_ECC_PARAMS, charges=_ECC_CHARGES),
        n_terms=40,
    )
    assert oracle.converged
    return _solve_run(problem, config, oracle)


def _criterion(number: int, passed: bool, detail: str,
               skip_reason: str | None = None):
    record_criterion(number, passed, detail, skip_reason)
    assert passed, f"criterion {number}: {detail}"


def _solve_seconds(problem, workers: int) -> float:
    """Wall time of one ``solve`` (RHS, operator, GMRES), as in ``_solve_run``."""
    t0 = time.monotonic()
    solve(problem, SolverConfig(workers=workers))
    return time.monotonic() - t0


def test_criterion_01_born_energy():
    run = born_run("hobi", 3)
    err = abs(run.energy - (-81.98))
    passed = err <= 0.05 and run.seconds < 30.0
    _criterion(
        1,
        passed,
        f"Born sphere (a=2, eps 1/80, kappa 0) hobi level 3: "
        f"E={run.energy:.5f} kcal/mol vs -81.98 +/- 0.05 "
        f"(err {err:.2e}), solve {run.seconds:.1f}s",
    )


def test_criterion_02_surface_potential_accuracy():
    e3 = born_run("hobi", 3).e_phi
    e4 = born_run("hobi", 4).e_phi
    passed = e3 <= 3e-4 and e4 <= 1.2e-4
    _criterion(
        2,
        passed,
        f"Born hobi relative max-norm trace error: level 3 {e3:.3e} (need <=3e-4), "
        f"level 4 {e4:.3e} (need <=1.2e-4)",
    )


def test_criterion_03_convergence_orders():
    runs = {
        (scheme, level): born_run(scheme, level)
        for scheme in ("hobi", "lobi")
        for level in (2, 3, 4)
    }
    orders = {}
    for scheme in ("hobi", "lobi"):
        lo, hi = runs[scheme, 2], runs[scheme, 4]
        orders[scheme] = convergence_order(
            lo.n_faces, hi.n_faces, lo.e_phi, hi.e_phi
        )
    total = sum(run.seconds for run in runs.values())
    hobi_ok = orders["hobi"] >= 1.2
    lobi_ok = 0.35 <= orders["lobi"] <= 0.85
    passed = hobi_ok and lobi_ok and total < 300.0
    _criterion(
        3,
        passed,
        f"observed order levels 2->4: hobi {orders['hobi']:.3f} "
        f"(need >=1.2, {'ok' if hobi_ok else 'FAIL'}), "
        f"lobi {orders['lobi']:.3f} (need 0.35..0.85, "
        f"{'ok' if lobi_ok else 'FAIL'}); sweep solves {total:.0f}s",
    )


def test_criterion_04_eccentric_charge_oracle():
    eh3, eh4 = eccentric_run("hobi", 3), eccentric_run("hobi", 4)
    el3, el4 = eccentric_run("lobi", 3), eccentric_run("lobi", 4)
    ratio_h = eh3.e_phi / eh4.e_phi
    ratio_l = el3.e_phi / el4.e_phi
    passed = eh4.e_phi < el4.e_phi and ratio_h > ratio_l
    _criterion(
        4,
        passed,
        f"eccentric sphere (a=1, kappa=1, q at 0.5): level-4 e_phi "
        f"hobi {eh4.e_phi:.3e} < lobi {el4.e_phi:.3e}; "
        f"error ratio 3/4 hobi {ratio_h:.2f} > lobi {ratio_l:.2f}",
    )


def test_criterion_05_identity_medium_matvec():
    mesh = icosahedral_sphere(2, radius=2.0)
    params = PhysicalParams(eps1=4.0, eps2=4.0, kappa=0.0)
    charges = ChargeSystem(positions=[[0.3, 0.1, -0.2]], charges=[1.0])
    rng = np.random.default_rng(11)
    worst = 0.0
    for scheme, apply_fn in (("hobi", matvec_hobi), ("lobi", matvec_lobi)):
        config = SolverConfig(scheme=scheme, workers=1)
        problem = discretize(mesh, params, charges, config)
        for _ in range(10):
            u = rng.standard_normal(problem.n_unknowns)
            worst = max(worst, float(np.abs(apply_fn(problem, u) - u).max()))
    passed = worst <= 1e-13
    _criterion(
        5,
        passed,
        f"eps1=eps2, kappa=0: max |Au - u| = {worst:.1e} over 10 random u, "
        f"both schemes, level-2 sphere (need <=1e-13)",
    )


def test_criterion_06_duffy_singular_oracle():
    exact = math.sqrt(2.0) * math.log(1.0 + math.sqrt(2.0))

    def err(n: int) -> float:
        rule = duffy_rule(n)
        r, s = rule.points[:, 0], rule.points[:, 1]
        return abs(float(rule.weights @ (1.0 / np.hypot(r, s))) - exact)

    e4, e8, e16 = err(4), err(8), err(16)
    passed = e4 <= 1e-6
    _criterion(
        6,
        passed,
        f"integral of 1/R over reference triangle vs sqrt(2)ln(1+sqrt(2)): "
        f"duffy n=4 err {e4:.2e} (need <=1e-6); n=8 {e8:.2e}, n=16 {e16:.2e}",
    )


def test_criterion_07_quadrature_interpolation_kernels():
    # 4-point regular rule exact on every monomial up to its stated degree
    rule = gauss_radau_rule()
    r, s = rule.points[:, 0], rule.points[:, 1]
    rule_err = max(
        abs(float(rule.weights @ (r**a * s**b)) - monomial_integral(a, b))
        for a in range(rule.degree + 1)
        for b in range(rule.degree + 1 - a)
    )

    # Kronecker property and partition of unity of the cubic shape set
    kron_err = float(np.abs(shape_matrix(REFERENCE_NODES) - np.eye(10)).max())
    rng = np.random.default_rng(7)
    rr = rng.uniform(0.0, 1.0, 200)
    ss = rng.uniform(0.0, 1.0, 200) * (1.0 - rr)
    pou_err = float(
        np.abs(shape_matrix(np.stack([rr, ss], axis=1)).sum(axis=1) - 1.0).max()
    )

    fd_worst = _fd_kernel_deviations(n_configs=100)
    passed = (
        rule_err <= 1e-14
        and kron_err <= 1e-13
        and pou_err <= 1e-13
        and fd_worst.max() <= 1e-6
    )
    _criterion(
        7,
        passed,
        f"rule exactness err {rule_err:.1e}; Kronecker {kron_err:.1e}; "
        f"partition-of-unity {pou_err:.1e}; kernel-vs-FD rel dev "
        f"K2 {fd_worst[0]:.1e} K3 {fd_worst[1]:.1e} K4 {fd_worst[2]:.1e} "
        f"over 100 configs (need <=1e-6)",
    )


def _fd_kernel_deviations(n_configs: int, h: float = 1e-5) -> np.ndarray:
    """Max relative deviation of K2, K3, K4 from finite differences.

    K2 differentiates (er Gk - G0) along n_y, K3 differentiates
    (G0 - Gk/er) along n_x, and K4 differentiates the exact n_y-derivative
    of (Gk - G0) along n_x; each is compared against a second-order central
    difference. Configurations keep both normals at least 0.1 off the
    displacement direction so the references stay away from zero.
    """
    rng = np.random.default_rng(20250814)
    worst = np.zeros(3)
    accepted = 0
    while accepted < n_configs:
        y = rng.uniform(-1.0, 1.0, 3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x = y + rng.uniform(0.6, 2.5) * u
        nx = rng.normal(size=3)
        nx /= np.linalg.norm(nx)
        ny = rng.normal(size=3)
        ny /= np.linalg.norm(ny)
        if abs(u @ nx) < 0.1 or abs(u @ ny) < 0.1:
            continue
        accepted += 1
        params = PhysicalParams(
            eps1=rng.uniform(0.5, 4.0),
            eps2=rng.uniform(2.0, 100.0),
            kappa=rng.uniform(0.0, 2.0),
        )
        er = params.eps2 / params.eps1
        _, k2, k3, k4 = kernel_values_d(x - y, nx, ny, params)

        def pot_ny(t):
            ys = y + t * ny
            return er * g_kappa(x, ys, params.kappa) - g0(x, ys)

        def pot_nx(t):
            xs = x + t * nx
            return g0(xs, y) - g_kappa(xs, y, params.kappa) / er

        def dny_screened_minus_coulomb(xs):
            d = xs - y
            rr = float(np.linalg.norm(d))
            kr = params.kappa * rr
            a = math.expm1(-kr) + kr * math.exp(-kr)
            return float(d @ ny) * a / (4.0 * math.pi * rr**3)

        fd = (
            (pot_ny(h) - pot_ny(-h)) / (2.0 * h),
            (pot_nx(h) - pot_nx(-h)) / (2.0 * h),
            (
                dny_screened_minus_coulomb(x + h * nx)
                - dny_screened_minus_coulomb(x - h * nx)
            )
            / (2.0 * h),
        )
        for slot, (approx, ref) in enumerate(zip(fd, (k2, k3, k4))):
            dev = abs(approx - ref) / max(abs(ref), 1e-4)
            worst[slot] = max(worst[slot], dev)
    return worst


def test_criterion_08_parallel_determinism():
    problem = born_problem("hobi", 3)
    reference = born_run("hobi", 3).vector
    diffs = {}
    for workers in (2, 4, 8):
        solution = solve(problem, SolverConfig(workers=workers))
        diffs[workers] = float(np.abs(solution.vector - reference).max())
    worst = max(diffs.values())
    passed = worst <= 1e-13
    _criterion(
        8,
        passed,
        f"level-3 solve, workers 1/2/4/8: max |x_w - x_1| = {worst:.1e} "
        f"(need <=1e-13)",
    )


def test_criterion_09_gmres_iteration_stability():
    families = {
        "born hobi": [born_run("hobi", level).iterations for level in (2, 3, 4)],
        "born lobi": [born_run("lobi", level).iterations for level in (2, 3, 4)],
        "ecc hobi": [eccentric_run("hobi", level).iterations for level in (3, 4)],
        "ecc lobi": [eccentric_run("lobi", level).iterations for level in (3, 4)],
    }
    all_iters = [it for counts in families.values() for it in counts]
    spread_ok = all(max(c) - min(c) <= 5 for c in families.values())
    passed = max(all_iters) <= 20 and spread_ok
    listing = "; ".join(
        f"{name} {'/'.join(str(i) for i in counts)}"
        for name, counts in families.items()
    )
    _criterion(
        9,
        passed,
        f"GMRES iterations (need all <=20, spread <=5 per family): {listing}",
    )


def test_criterion_10_msms_property_and_speedup():
    # density property on a user-style MSMS mesh: refining hobi moves the
    # energy by less than the coarse-level lobi-vs-hobi discrepancy
    params = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.125)
    charges = ChargeSystem(positions=[[0.7, 0.3, -0.2]], charges=[1.0])
    energies = {}
    for scheme, level in (("hobi", 2), ("hobi", 3), ("lobi", 2)):
        mesh = parse_msms(*write_msms(icosahedral_sphere(level, radius=2.0)))
        config = SolverConfig(scheme=scheme, workers=1)
        problem = discretize(mesh, params, charges, config)
        solution = solve(problem, config)
        energies[scheme, level] = solvation_energy(problem, solution)
    gap_refine = abs(energies["hobi", 3] - energies["hobi", 2])
    gap_scheme = abs(energies["lobi", 2] - energies["hobi", 2])
    property_ok = gap_refine < gap_scheme
    property_detail = (
        f"msms round-trip density property: hobi refine gap {gap_refine:.3f} "
        f"< scheme gap {gap_scheme:.3f} ({'ok' if property_ok else 'FAIL'})"
    )

    # strong-scaling substitute: 4-worker speedup on the level-4 sphere.
    # Four processes cannot beat the serial run by 2.5x on fewer than four
    # CPUs, so elsewhere only the property half is asserted.
    cpus = SolverConfig().worker_count()  # usable CPUs: the affinity mask
    if cpus < 4:
        reason = f"speedup needs >= 4 usable CPUs, host has {cpus}"
        _criterion(10, property_ok, property_detail, skip_reason=reason)
        pytest.skip(reason)

    # Serial and 4-worker solves alternate back to back and each keeps its
    # fastest of two, so a drift in host throughput hits both sides alike.
    problem = born_problem("hobi", 4)
    t1, t4 = math.inf, math.inf
    for _ in range(2):
        t1 = min(t1, _solve_seconds(problem, workers=1))
        t4 = min(t4, _solve_seconds(problem, workers=4))
    speedup = t1 / t4
    speed_ok = speedup >= 2.5

    passed = property_ok and speed_ok
    _criterion(
        10,
        passed,
        f"{property_detail}; level-4 speedup at 4 workers {speedup:.2f}x "
        f"(serial {t1:.1f}s, 4 workers {t4:.1f}s, min of 2 back to back; "
        f"need >=2.5x on {cpus} usable cpu, {'ok' if speed_ok else 'FAIL'})",
    )
