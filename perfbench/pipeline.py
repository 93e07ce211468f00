"""One repetition of a workload, run by run.py in a fresh process.

A fresh process per repetition keeps ``ru_maxrss``, which only ever grows,
a per-run peak. Usage (run.py sets the BLAS thread variables)::

    python3 perfbench/pipeline.py --workload NAME --seed N --level L \
        --mode solve|setup|probe [--trace]

``solve`` runs the library pipeline a user runs and times each public call
from outside: mesh, discretize, assemble_rhs, make_operator, gmres_solve,
solvation_energy. ``setup`` stops once the operator is ready. ``probe``
times single layers outside the pipeline: the serial and parallel matvec on
the seeded probe vector, one kernel block, and both mesh entry points.
The last line of standard output is one JSON record; on an exception it is
``{"error": ...}`` and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from pbbem.kernels import PhysicalParams, kernel_values_d  # noqa: E402
from pbbem.mesh import icosahedral_sphere, parse_msms, write_msms  # noqa: E402
from pbbem.report import memory_lower_bound_mb  # noqa: E402
from pbbem.solver import (  # noqa: E402
    SolverConfig,
    assemble_rhs,
    discretize,
    gmres_solve,
    make_operator,
    matvec_hobi,
    matvec_lobi,
    solvation_energy,
)
from workloads import EPS2, WORKLOADS, make_inputs  # noqa: E402

BLOCK_ROWS = 48  # target rows per kernel block in the solver's matvec
KERNEL_BLOCK_REPEATS = 5


class Tracer:
    """Spans kept in memory: id, name, start, end, parent id and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, operator):
        """The operator as GMRES sees it, with one span per matvec."""

        def apply(u):
            with self.span("solver.matvec"):
                return operator(u)

        return apply


class NoTracer:
    """Tracing off: no spans and the operator passed through untouched."""

    spans = ()

    def span(self, name: str):
        return nullcontext()

    def wrap(self, operator):
        return operator


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _problem_setup(workload, inputs, tracer):
    """Mesh build or ingest through make_operator.

    Returns (problem, rhs, operator, config, peak RSS in MB after discretize).
    """
    params = PhysicalParams(eps1=workload.eps1, eps2=EPS2, kappa=workload.kappa)
    config = SolverConfig(scheme=workload.scheme, workers=workload.workers)
    if inputs.msms is None:
        with tracer.span("mesh.build"):
            mesh = icosahedral_sphere(workload.level, workload.radius)
    else:
        with tracer.span("mesh.ingest"):
            mesh = parse_msms(*inputs.msms)
    with tracer.span("solver.discretize"):
        problem = discretize(mesh, params, inputs.charges, config)
    rss_after_discretize = _peak_rss_mb(resource.RUSAGE_SELF)
    with tracer.span("solver.assemble_rhs"):
        b = assemble_rhs(problem)
    with tracer.span("operator.start"):
        operator = make_operator(problem, config)
    return problem, b, operator, config, rss_after_discretize


def run_solve(workload, inputs, tracer) -> dict:
    with tracer.span("pipeline"):
        t0 = time.perf_counter()
        problem, b, operator, config, rss_after_discretize = _problem_setup(
            workload, inputs, tracer
        )
        t_setup = time.perf_counter()
        try:
            with tracer.span("solver.gmres_solve"):
                solution = gmres_solve(tracer.wrap(operator), b, config)
            t_solve = time.perf_counter()
        finally:
            with tracer.span("operator.close"):
                operator.close()
        with tracer.span("solver.solvation_energy"):
            energy = solvation_energy(problem, solution)
        t_end = time.perf_counter()
    n_quad = problem.reg_w.shape[1] if workload.scheme == "hobi" else 1
    n_faces = problem.mesh.n_faces
    n_colloc = problem.n_collocation
    n_charges = len(problem.charges)
    if workload.scheme == "hobi":
        n_duffy = problem.duf_w.shape[1]
        pairs = n_colloc * n_faces * n_quad + 3 * n_faces * (n_quad + n_duffy)
    else:
        pairs = n_faces * (n_faces - 1)
    return {
        "setup_s": t_setup - t0,
        "solve_s": t_solve - t_setup,
        "total_s": t_end - t0,
        "peak_rss_mb": max(
            _peak_rss_mb(resource.RUSAGE_SELF), _peak_rss_mb(resource.RUSAGE_CHILDREN)
        ),
        "rss_after_discretize_mb": rss_after_discretize,
        "cache_mb": memory_lower_bound_mb(problem),
        "energy": energy,
        "phi": solution.phi.tolist(),
        "iterations": solution.iterations,
        "residual": solution.residual,
        "tolerance": config.tolerance,
        "elements_fitted": 3 * n_faces if workload.scheme == "hobi" else 0,
        "pairs_per_matvec": pairs,
        "rhs_pairs": n_charges * n_colloc,
        "energy_pairs": n_charges * n_faces * n_quad,
        "spans": tracer.spans,
    }


def run_setup(workload, inputs) -> dict:
    t0 = time.perf_counter()
    _, _, operator, _, _ = _problem_setup(workload, inputs, NoTracer())
    t_setup = time.perf_counter()
    operator.close()
    return {"setup_s": t_setup - t0}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run_probe(workload, inputs) -> dict:
    problem, _, operator, _, _ = _problem_setup(workload, inputs, NoTracer())
    u = inputs.probe_vector
    with operator:
        parallel = operator(u)
    serial_matvec = matvec_hobi if workload.scheme == "hobi" else matvec_lobi
    serial, serial_s = _timed(serial_matvec, problem, u)

    rows = min(BLOCK_ROWS, problem.n_collocation)
    if workload.scheme == "hobi":
        src = problem.reg_pos.reshape(-1, 3)
        src_nrm = problem.reg_nrm.reshape(-1, 3)
    else:
        src = problem.colloc_pos
        src_nrm = problem.colloc_nrm
    d = problem.colloc_pos[:rows, None, :] - src[None, :, :]
    if workload.scheme == "lobi":
        d[np.arange(rows), np.arange(rows)] = (1.0, 0.0, 0.0)  # self pair, as the matvec masks it
    nx = problem.colloc_nrm[:rows, None, :]
    block_times = [
        _timed(kernel_values_d, d, nx, src_nrm[None, :, :], problem.params)[1]
        for _ in range(KERNEL_BLOCK_REPEATS)
    ]

    _, build_s = _timed(icosahedral_sphere, workload.level, workload.radius)
    text = inputs.msms or write_msms(problem.mesh)
    _, ingest_s = _timed(parse_msms, *text)
    return {
        "max_abs_diff": float(np.abs(parallel - serial).max()),
        "matvec_serial_s": serial_s,
        "kernel_block_s": statistics.median(block_times),
        # displacement (3 floats) in, K1..K4 out, as memory_lower_bound_mb counts
        "kernel_block_bytes": rows * src.shape[0] * 8 * 7,
        "mesh_build_s": build_s,
        "mesh_ingest_s": ingest_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("solve", "setup", "probe"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = replace(WORKLOADS[args.workload], level=args.level)
    try:
        inputs = make_inputs(workload, args.seed)
        if args.mode == "solve":
            run_id = f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
            tracer = Tracer(run_id) if args.trace else NoTracer()
            record = run_solve(workload, inputs, tracer)
        elif args.mode == "setup":
            record = run_setup(workload, inputs)
        else:
            record = run_probe(workload, inputs)
    except Exception as exc:  # the parent counts this repetition as failed
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
