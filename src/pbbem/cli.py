"""Batch front end: solve, convergence sweeps, worker-scaling tables.

Exit codes: 0 success, 1 runtime failure (bad file, solver breakdown),
2 usage error. Runtime failures print one machine-parsable line to stderr:
``error: <ExceptionType>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from .kernels import PhysicalParams
from .kirkwood import SphereProblem, kirkwood_series
from .mesh import (
    MAX_LEVEL,
    ChargeSystem,
    FlatMesh,
    icosahedral_sphere,
    parse_charges,
    parse_msms,
)
from .report import (
    RunReport,
    ScalingRow,
    memory_lower_bound_mb,
    reports_to_csv,
    reports_to_json,
    scaling_to_csv,
    scaling_to_json,
)
from .solver import (
    REGULAR_RULE,
    SCHEMES,
    GmresNonConvergence,
    SolverConfig,
    WorkerDied,
    convergence_order,
    discretize,
    solvation_energy,
    solve,
    surface_potential_error,
)

# mesh, charge and geometry errors are all ValueError subclasses
_RUNTIME_ERRORS = (OSError, ValueError, GmresNonConvergence, WorkerDied)


def _parse_sphere(text: str) -> tuple[int, float]:
    try:
        level_s, radius_s = text.split(",")
        return int(level_s), float(radius_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LEVEL,RADIUS (e.g. 3,2.0), got {text!r}"
        ) from None


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected X,Y,Z (e.g. 0.9,0,0), got {text!r}"
        )
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric coordinate in {text!r}") from None
    return (x, y, z)


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _parse_levels(text: str) -> list[int]:
    """--levels, each in [0, MAX_LEVEL] and once: two runs of one level have no order."""
    levels = _parse_int_list(text)
    for k, level in enumerate(levels):
        if not 0 <= level <= MAX_LEVEL:
            raise argparse.ArgumentTypeError(f"level {level} is not in [0, {MAX_LEVEL}]")
        if level in levels[:k]:
            raise argparse.ArgumentTypeError(f"level {level} listed twice")
    return levels


def _parse_schemes(text: str) -> list[str]:
    schemes = [s for s in text.split(",") if s]
    if not schemes:
        raise argparse.ArgumentTypeError(
            "no scheme given: --schemes takes a comma list from {hobi,lobi}"
        )
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise argparse.ArgumentTypeError(f"unknown scheme {scheme!r}")
    return schemes


def _add_physics_args(sub):
    sub.add_argument("--eps1", type=float, default=1.0, help="interior dielectric")
    sub.add_argument("--eps2", type=float, default=80.0, help="exterior dielectric")
    sub.add_argument("--kappa", type=float, default=0.0, help="inverse Debye length (1/Å)")
    sub.add_argument(
        "--tol", type=float, default=1e-6,
        help="GMRES tolerance on the per-equation relative residual",
    )


def _add_output_args(sub):
    sub.add_argument("--out", default=None, help="report path (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbbem",
        description="Boundary-element solver for the linearized Poisson-Boltzmann equation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="solve one problem, emit a report")
    sub.add_argument("--vert", default=None, help="MSMS .vert file")
    sub.add_argument("--face", default=None, help="MSMS .face file")
    sub.add_argument("--sphere", type=_parse_sphere, default=None,
                     metavar="LEVEL,RADIUS", help="icosphere mesh instead of files")
    sub.add_argument("--charges", required=True, help="charge file (x y z q per line)")
    sub.add_argument("--scheme", choices=SCHEMES, default="hobi")
    _add_physics_args(sub)
    sub.add_argument("--workers", type=int, default=None, help="matvec worker count")
    _add_output_args(sub)
    sub.set_defaults(func=cmd_solve, parser=sub)

    sub = commands.add_parser("convergence",
                              help="sweep icosphere levels against the sphere oracle")
    sub.add_argument("--levels", type=_parse_levels, default=[1, 2, 3],
                     metavar="L1,L2,...", help="icosphere subdivision levels")
    sub.add_argument("--radius", type=float, default=2.0, help="sphere radius (Å)")
    sub.add_argument("--charge-position", type=_parse_triple, default=(0.0, 0.0, 0.0),
                     metavar="X,Y,Z", help="single charge location (0.9,0,0 etc.)")
    sub.add_argument("--charge-value", type=float, default=1.0, help="charge (e_c)")
    sub.add_argument("--schemes", type=_parse_schemes, default=["hobi"],
                     metavar="S1,S2", help="comma list from {hobi,lobi}")
    _add_physics_args(sub)
    sub.add_argument("--workers", type=int, default=None, help="matvec worker count")
    _add_output_args(sub)
    sub.set_defaults(func=cmd_convergence, parser=sub)

    # no abbreviations, or --workers would be read as --workers-list
    sub = commands.add_parser("scaling", allow_abbrev=False,
                              help="strong-scaling table over worker counts")
    sub.add_argument("--sphere", type=_parse_sphere, default=(3, 2.0),
                     metavar="LEVEL,RADIUS")
    sub.add_argument("--charges", default=None, help="charge file (default: centered unit)")
    sub.add_argument("--scheme", choices=SCHEMES, default="hobi")
    sub.add_argument("--workers-list", type=_parse_int_list, default=[1, 2, 4],
                     metavar="W1,W2,...")
    _add_physics_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_scaling, parser=sub)

    return parser


def _load_mesh(parser, args) -> tuple[FlatMesh, str]:
    if args.sphere is not None:
        if args.vert or getattr(args, "face", None):
            parser.error("--sphere and --vert/--face are mutually exclusive")
        level, radius = args.sphere
        return (
            icosahedral_sphere(level, radius=radius),
            f"icosphere level={level} radius={radius}",
        )
    if args.vert is None and args.face is None:
        parser.error("either --sphere or --vert/--face is required")
    if args.vert is None or args.face is None:
        parser.error("--vert and --face must be given together")
    with open(args.vert) as fh:
        vert_text = fh.read()
    with open(args.face) as fh:
        face_text = fh.read()
    return parse_msms(vert_text, face_text), f"msms {args.vert} {args.face}"


def _config(parser, **values) -> SolverConfig:
    """SolverConfig(**values); a value it rejects is a usage error."""
    try:
        return SolverConfig(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _load_charges(path: str) -> ChargeSystem:
    with open(path) as fh:
        return parse_charges(fh.read())


def _sphere_oracle(mesh_args, params, charges, points):
    """Kirkwood series when the problem is a sphere with interior charges,
    the series converged and its potential at points is not identically
    zero: at a kappa that large every mode underflows, and an error
    against zeros measures nothing."""
    if mesh_args is None:
        return None
    level, radius = mesh_args
    try:
        problem = SphereProblem(radius=radius, params=params, charges=charges)
    except ValueError:
        return None
    solution = kirkwood_series(problem, n_terms=40)
    return solution if solution.converged and solution.phi(points).any() else None


def _write(args, text: str):
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _run_one(mesh, mesh_source, params, charges, config, oracle) -> RunReport:
    t0 = time.monotonic()
    problem = discretize(mesh, params, charges, config)
    t1 = time.monotonic()
    solution = solve(problem, config)
    t2 = time.monotonic()
    energy = solvation_energy(problem, solution, config)
    t3 = time.monotonic()
    phi_error = None
    if oracle is not None:
        phi_error = surface_potential_error(
            solution.phi, oracle.phi(problem.colloc_pos)
        )
    if problem.scheme == "hobi":
        rule_id, rule_degree = REGULAR_RULE.name, REGULAR_RULE.degree
    else:
        rule_id, rule_degree = "centroid-1", 1
    return RunReport(
        mesh_source=mesh_source,
        n_vertices=mesh.n_vertices,
        n_faces=mesh.n_faces,
        eps1=params.eps1,
        eps2=params.eps2,
        kappa=params.kappa,
        n_charges=len(charges),
        scheme=problem.scheme,
        workers=config.worker_count(),
        rule_id=rule_id,
        rule_degree=rule_degree,
        energy_kcal=energy,
        phi_error=phi_error,
        observed_order=None,
        iterations=solution.iterations,
        matvecs=solution.matvecs,
        residual=solution.residual,
        time_discretize_s=t1 - t0,
        time_solve_s=t2 - t1,
        time_energy_s=t3 - t2,
        memory_lower_bound_mb=memory_lower_bound_mb(problem),
    )


def cmd_solve(parser, args) -> int:
    config = _config(parser, scheme=args.scheme, tolerance=args.tol, workers=args.workers)
    mesh, mesh_source = _load_mesh(parser, args)
    charges = _load_charges(args.charges)
    params = PhysicalParams(eps1=args.eps1, eps2=args.eps2, kappa=args.kappa)
    oracle = _sphere_oracle(args.sphere, params, charges, mesh.vertices)
    report = _run_one(mesh, mesh_source, params, charges, config, oracle)
    render = reports_to_json if args.format == "json" else reports_to_csv
    _write(args, render([report]))
    if args.out is not None:
        err = "" if report.phi_error is None else f" e_phi={report.phi_error:.3e}"
        print(
            f"E_sol = {report.energy_kcal:.4f} kcal/mol "
            f"({report.scheme}, {report.n_vertices} vertices, "
            f"{report.iterations} iterations, {report.matvecs} matvecs, "
            f"residual {report.residual:.2e}{err})"
        )
    return 0


def cmd_convergence(parser, args) -> int:
    configs = [_config(parser, scheme=scheme, tolerance=args.tol, workers=args.workers)
               for scheme in args.schemes]
    charges = ChargeSystem(positions=[args.charge_position], charges=[args.charge_value])
    params = PhysicalParams(eps1=args.eps1, eps2=args.eps2, kappa=args.kappa)
    reports: list[RunReport] = []
    for config in configs:
        previous = None  # (n_faces, phi_error)
        for level in args.levels:
            mesh = icosahedral_sphere(level, radius=args.radius)
            oracle = _sphere_oracle((level, args.radius), params, charges, mesh.vertices)
            if oracle is None:
                raise ValueError(
                    "no converged sphere oracle for this charge placement; "
                    "move the charge inward or reduce kappa"
                )
            report = _run_one(
                mesh,
                f"icosphere level={level} radius={args.radius}",
                params,
                charges,
                config,
                oracle,
            )
            if previous is not None and report.phi_error > 0.0:
                order = convergence_order(
                    previous[0], mesh.n_faces, previous[1], report.phi_error
                )
                report = dataclasses.replace(report, observed_order=order)
            previous = (mesh.n_faces, report.phi_error)
            reports.append(report)
    render = reports_to_json if args.format == "json" else reports_to_csv
    _write(args, render(reports))
    if args.out is not None:
        for r in reports:
            order = "" if r.observed_order is None else f" order={r.observed_order:.2f}"
            print(
                f"{r.scheme} n_faces={r.n_faces}: e_phi={r.phi_error:.3e}"
                f" E={r.energy_kcal:.4f}{order}"
            )
    return 0


def cmd_scaling(parser, args) -> int:
    serial, *requested = (_config(parser, scheme=args.scheme, tolerance=args.tol, workers=w)
                          for w in [1, *args.workers_list])
    level, radius = args.sphere
    mesh = icosahedral_sphere(level, radius=radius)
    if args.charges is not None:
        charges = _load_charges(args.charges)
    else:
        charges = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
    params = PhysicalParams(eps1=args.eps1, eps2=args.eps2, kappa=args.kappa)
    problem = discretize(mesh, params, charges, serial)

    def timed_solve(workers: int):
        start = time.monotonic()
        solution = solve(problem, dataclasses.replace(serial, workers=workers))
        return solution, time.monotonic() - start

    # the serial run anchors both the efficiency baseline T1 and the
    # determinism column, so it runs first even if 1 is not in the list; a
    # row names the workers that ran (worker_count caps the request)
    counts = dict.fromkeys(config.worker_count() for config in requested)
    runs = {w: timed_solve(w) for w in dict.fromkeys([1, *counts])}
    reference, t1 = runs[1]
    rows = [
        ScalingRow(
            workers=w,
            time_solve_s=runs[w][1],
            efficiency=1.0 if w == 1 else t1 / (w * runs[w][1]),
            max_solution_diff=float(np.abs(runs[w][0].vector - reference.vector).max()),
        )
        for w in counts
    ]
    problem_desc = {
        "mesh_source": f"icosphere level={level} radius={radius}",
        "n_vertices": mesh.n_vertices,
        "n_faces": mesh.n_faces,
        "scheme": args.scheme,
        "eps1": params.eps1,
        "eps2": params.eps2,
        "kappa": params.kappa,
        "n_charges": len(charges),
    }
    if args.format == "json":
        _write(args, scaling_to_json(rows, problem_desc))
    else:
        _write(args, scaling_to_csv(rows))
    if args.out is not None:
        for row in rows:
            print(
                f"workers={row.workers}: {row.time_solve_s:.2f}s "
                f"efficiency={row.efficiency:.2f} max_diff={row.max_solution_diff:.2e}"
            )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args.parser, args)  # usage errors print the subcommand's usage
    except _RUNTIME_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
