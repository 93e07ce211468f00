"""Time-to-energy benchmark of the pbbem library pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's pipeline (mesh, discretize, assemble_rhs,
make_operator, gmres_solve, solvation_energy) again and again, each time in
a fresh process, until S seconds have passed, then runs one probe process
that compares the parallel matvec with the serial one. Every answer is
checked against the Kirkwood oracle. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics from the traced ones, plus
the tracing overhead. ``--workload all`` runs every workload in turn.

Standard output ends with one JSON line: correct, attempted, failed and
metrics. The lines before it give the host facts and a table of every
metric with its unit. The full record, spans included, goes to
perfbench/out/. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads; the pipeline
# processes inherit it, so a 2-worker pool keeps 2 busy threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PIPELINE = os.path.join(HERE, "pipeline.py")

sys.path.insert(0, SRC)
try:
    import numpy as np
    import pbbem
    from pbbem.kernels import PhysicalParams
    from pbbem.kirkwood import SphereProblem, kirkwood_series
    from pbbem.mesh import icosahedral_sphere, parse_msms
    from pbbem.solver import surface_potential_error
except ImportError as exc:
    sys.exit(f"run.py: cannot import pbbem from {SRC}: {exc}")
if not os.path.abspath(pbbem.__file__).startswith(SRC + os.sep):
    sys.exit(f"run.py: pbbem was imported from {pbbem.__file__}, not from {SRC}")

from workloads import EPS2, WORKLOADS, Workload, make_inputs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "energy_rel_error": "ratio",
    "phi_error_max": "ratio",
}

PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.ingest_s": "s",
    "solver.discretize_s": "s",
    "geometry.elements_fitted": "count",
    "solver.cache_mb": "MB",
    "process.rss_after_discretize_mb": "MB",
    "kernels.block_s": "s",
    "kernels.pairs_per_matvec": "count",
    "kernels.pair_rate_mps": "Mpairs/s",
    "kernels.block_bytes_computed": "bytes",
    "solver.matvec_s": "s",
    "solver.matvec_serial_s": "s",
    "solver.matvecs": "count",
    "solver.iterations": "count",
    "solver.useful_matvec_ratio": "ratio",
    "solver.arnoldi_s": "s",
    "operator.start_s": "s",
    "operator.close_s": "s",
    "operator.speedup": "ratio",
    "operator.max_abs_diff": "abs",
    "solver.rhs_s": "s",
    "solver.rhs_pairs": "count",
    "solver.energy_s": "s",
    "solver.energy_pairs": "count",
    "trace.overhead_s": "s",
}

MIN_SETUP_SAMPLES = 5  # setup_s is a median over at least this many set-ups
DEADLINE_S = 170.0  # a run stops scheduling work so that it ends within 180 s


# ---------------------------------------------------------------------------
# host facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (AttributeError, KeyError):
        return "unknown"


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if ".so" in p):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_steal_s() -> float | None:
    """Seconds the hypervisor ran others on this machine's CPUs, summed."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# repetitions in fresh processes


def _child(workload: Workload, seed: int, mode: str, trace: bool, timeout: float) -> dict:
    """Run one pipeline.py process; a crash or timeout comes back as an error."""
    cmd = [
        sys.executable, PIPELINE, "--workload", workload.name, "--seed", str(seed),
        "--level", str(workload.level), "--mode", mode,
    ] + (["--trace"] if trace else [])
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {timeout:.0f} s"
    finally:
        # the child's pool workers share its session; end any left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        record = {}
    if proc.returncode != 0 or "error" in record or not record:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": record.get("error") or tail[0], "mode": mode}
    return record


class _Oracle:
    """Kirkwood energy and surface potential for one workload's inputs."""

    def __init__(self, workload: Workload, inputs):
        params = PhysicalParams(eps1=workload.eps1, eps2=EPS2, kappa=workload.kappa)
        series = kirkwood_series(
            SphereProblem(radius=workload.radius, params=params, charges=inputs.charges)
        )
        if not series.converged:
            raise RuntimeError(f"{workload.name}: the Kirkwood series does not converge")
        if inputs.msms is None:
            mesh = icosahedral_sphere(workload.level, workload.radius)
        else:
            mesh = parse_msms(*inputs.msms)
        if workload.scheme == "hobi":
            colloc = mesh.vertices
        else:
            colloc = mesh.vertices[mesh.faces].mean(axis=1)
        self.energy = series.energy
        self.phi = series.phi(colloc)
        self.bound = workload.oracle_bound

    def check(self, record: dict) -> str | None:
        """Adds the oracle errors to a solve record; returns why it failed."""
        record["energy_rel_error"] = abs(record["energy"] - self.energy) / abs(self.energy)
        record["phi_error_max"] = surface_potential_error(np.asarray(record["phi"]), self.phi)
        if not record["residual"] <= record["tolerance"]:
            return f"GMRES residual {record['residual']:.3e} above {record['tolerance']:.1e}"
        if not record["energy_rel_error"] <= self.bound:
            return f"energy_rel_error {record['energy_rel_error']:.3e} above {self.bound:.1e}"
        return None


def _span_seconds(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _layer_values(record: dict) -> dict:
    """Per-layer values of one traced solve, from its spans and counts."""
    spans = record["spans"]
    matvecs = _span_seconds(spans, "solver.matvec")
    solve = _span_seconds(spans, "solver.gmres_solve")[0]
    values = {
        "solver.discretize_s": _span_seconds(spans, "solver.discretize")[0],
        "solver.matvec_s": statistics.median(matvecs),
        "solver.matvecs": len(matvecs),
        "solver.iterations": record["iterations"],
        "solver.useful_matvec_ratio": record["iterations"] / len(matvecs),
        "solver.arnoldi_s": solve - sum(matvecs),
        "operator.start_s": _span_seconds(spans, "operator.start")[0],
        "operator.close_s": _span_seconds(spans, "operator.close")[0],
        "solver.rhs_s": _span_seconds(spans, "solver.assemble_rhs")[0],
        "solver.energy_s": _span_seconds(spans, "solver.solvation_energy")[0],
        "total_s": record["total_s"],
    }
    for name in ("mesh.build", "mesh.ingest"):
        seconds = _span_seconds(spans, name)
        if seconds:
            values[name + "_s"] = seconds[0]
    return values


def _median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def _end_to_end(solves: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        **{
            name: _median_of(solves, name)
            for name in ("solve_s", "total_s", "peak_rss_mb", "energy_rel_error", "phi_error_max")
        },
    }


def _per_layer(traced: list[dict], solves: list[dict], probe: dict) -> dict:
    layers = [_layer_values(r) for r in traced]
    metrics = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    first = traced[0]
    serial_s = probe["matvec_serial_s"]
    metrics.update(
        {
            # each mesh call is timed on the pipeline path where the workload
            # makes it, and by the probe elsewhere
            "mesh.build_s": metrics.get("mesh.build_s", probe["mesh_build_s"]),
            "mesh.ingest_s": metrics.get("mesh.ingest_s", probe["mesh_ingest_s"]),
            "geometry.elements_fitted": first["elements_fitted"],
            "solver.cache_mb": first["cache_mb"],
            "process.rss_after_discretize_mb": _median_of(traced, "rss_after_discretize_mb"),
            "kernels.block_s": probe["kernel_block_s"],
            "kernels.pairs_per_matvec": first["pairs_per_matvec"],
            "kernels.pair_rate_mps": first["pairs_per_matvec"] / serial_s / 1e6,
            "kernels.block_bytes_computed": probe["kernel_block_bytes"],
            "solver.matvec_serial_s": serial_s,
            "operator.speedup": serial_s / metrics["solver.matvec_s"],
            "operator.max_abs_diff": probe["max_abs_diff"],
            "solver.rhs_pairs": first["rhs_pairs"],
            "solver.energy_pairs": first["energy_pairs"],
            "trace.overhead_s": metrics["total_s"] - _median_of(solves, "total_s"),
        }
    )
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result and its record."""
    started = time.perf_counter()
    steal_before = _cpu_steal_s()
    inputs = make_inputs(workload, seed)
    oracle = _Oracle(workload, inputs)

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    attempted = 0
    failures: list[dict] = []

    def attempt(mode: str, traced_run: bool = False) -> dict | None:
        nonlocal attempted
        attempted += 1
        record = _child(workload, seed, mode, traced_run, remaining())
        if "error" not in record and mode == "solve":
            error = oracle.check(record)
            if error:
                record = {"error": error, "mode": mode}
        if "error" in record:
            failures.append(record)
            print(f"  failed {mode}: {record['error']}", file=sys.stderr)
            return None
        return record

    solves: list[dict] = []
    traced: list[dict] = []
    loop_start = time.perf_counter()
    while remaining() > 0 and (not solves or time.perf_counter() - loop_start < seconds):
        solves.append(attempt("solve"))
        if trace:
            traced.append(attempt("solve", traced_run=True))
    solves = [r for r in solves if r is not None]
    traced = [r for r in traced if r is not None]
    setups = [r["setup_s"] for r in solves]
    while not trace and len(setups) < MIN_SETUP_SAMPLES and remaining() > 0:
        record = attempt("setup")
        if record is not None:
            setups.append(record["setup_s"])
    probe = attempt("probe") if remaining() > 0 else None
    if probe is not None and probe["max_abs_diff"] != 0.0:
        failures.append({"error": f"parallel matvec differs by {probe['max_abs_diff']!r}"})
    if not solves or probe is None or (trace and not traced):
        raise RuntimeError(f"{workload.name}: no successful repetition to report")

    metrics = _per_layer(traced, solves, probe) if trace else _end_to_end(solves, setups)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for r in solves + traced:
        del r["phi"]
    steal_after = _cpu_steal_s()
    detail = {
        "workload": vars(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "oracle_energy": oracle.energy,
        "solves": solves,
        "traced": traced,
        "setup_s_samples": setups,
        "probe": probe,
        "failures": failures,
        "wall_s": time.perf_counter() - started,
        # time stolen by other guests shows up in every wall-clock metric
        "cpu_steal_s": None if steal_before is None else steal_after - steal_before,
    }
    return {"result": result, "detail": detail}


# ---------------------------------------------------------------------------
# command line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    host = host_facts()
    print("host " + json.dumps(host, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    results = {}
    for name in names:
        run = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result = run["result"]
        results[name] = result
        print(
            f"{name} seed={args.seed} trace={args.trace} attempted={result['attempted']} "
            f"failed={result['failed']} wall_s={run['detail']['wall_s']:.1f}"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:<24.10g} {entry['unit']}")
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump({"host": host, **run["detail"], "result": result}, fh, indent=1)

    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
