"""Machine-readable run reports: one flat record per solve.

A report carries everything needed to reproduce and interpret a run: the
problem description, the scheme and quadrature rule (with its verified
exactness degree, so results stay interpretable if the rule choice ever
changes), the energy, oracle errors when a sphere oracle applies, GMRES
diagnostics, per-phase wall times, and a deterministic lower bound on peak
memory computed from the quadrature cache sizes. The wall-time fields are
the only nondeterministic ones; everything else is byte-stable for fixed
inputs, a fixed rule, and worker count 1.

Serialization is JSON (sorted keys) or a flat CSV whose header is the
REPORT_COLUMNS tuple below, in that order. Floats are written with repr
precision so either form round-trips exactly; absent optional fields are
JSON null / empty CSV cells.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .kernels import TARGET_BLOCK

REPORT_COLUMNS = (
    "mesh_source",
    "n_vertices",
    "n_faces",
    "eps1",
    "eps2",
    "kappa",
    "n_charges",
    "scheme",
    "workers",
    "rule_id",
    "rule_degree",
    "energy_kcal",
    "phi_error",
    "observed_order",
    "iterations",
    "residual",
    "time_discretize_s",
    "time_solve_s",
    "time_energy_s",
    "memory_lower_bound_mb",
)

SCALING_COLUMNS = (
    "workers",
    "time_solve_s",
    "efficiency",
    "max_solution_diff",
)

_TIMING_FIELDS = ("time_discretize_s", "time_solve_s", "time_energy_s")

_INT_FIELDS = frozenset(
    {"n_vertices", "n_faces", "n_charges", "workers", "rule_degree", "iterations"}
)
_STR_FIELDS = frozenset({"mesh_source", "scheme", "rule_id"})
_OPTIONAL_FIELDS = frozenset({"phi_error", "observed_order"})


@dataclass(frozen=True)
class RunReport:
    """One solve, flattened. Field order matches REPORT_COLUMNS."""

    mesh_source: str
    n_vertices: int
    n_faces: int
    eps1: float
    eps2: float
    kappa: float
    n_charges: int
    scheme: str
    workers: int
    rule_id: str
    rule_degree: int
    energy_kcal: float
    phi_error: float | None
    observed_order: float | None
    iterations: int
    residual: float
    time_discretize_s: float
    time_solve_s: float
    time_energy_s: float
    memory_lower_bound_mb: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _STR_FIELDS:
                continue
            if value is None:
                if f.name in _OPTIONAL_FIELDS:
                    continue
                raise ValueError(f"field {f.name} must not be None")
            if not math.isfinite(value):
                raise ValueError(f"field {f.name} is not finite: {value!r}")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_COLUMNS}


def report_from_dict(record: dict) -> RunReport:
    kwargs = {}
    for name in REPORT_COLUMNS:
        value = record[name]
        if name in _STR_FIELDS:
            kwargs[name] = str(value)
        elif value is None:
            kwargs[name] = None
        elif name in _INT_FIELDS:
            kwargs[name] = int(value)
        else:
            kwargs[name] = float(value)
    return RunReport(**kwargs)


def reports_to_json(reports: list[RunReport]) -> str:
    payload = {"reports": [r.to_dict() for r in reports]}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def reports_from_json(text: str) -> list[RunReport]:
    payload = json.loads(text)
    return [report_from_dict(rec) for rec in payload["reports"]]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("no boolean report fields exist")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def reports_to_csv(reports: list[RunReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in reports:
        writer.writerow([_cell(getattr(r, name)) for name in REPORT_COLUMNS])
    return buf.getvalue()


def reports_from_csv(text: str) -> list[RunReport]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != REPORT_COLUMNS:
        raise ValueError("CSV header does not match REPORT_COLUMNS")
    out = []
    for row in rows[1:]:
        record = {
            name: (None if cell == "" else cell)
            for name, cell in zip(REPORT_COLUMNS, row)
        }
        out.append(report_from_dict(record))
    return out


def strip_timings(report: RunReport) -> RunReport:
    """Copy with wall-time fields zeroed: the byte-stable remainder."""
    return replace(report, **{name: 0.0 for name in _TIMING_FIELDS})


@dataclass(frozen=True)
class ScalingRow:
    """One worker count in a strong-scaling table."""

    workers: int
    time_solve_s: float
    efficiency: float
    max_solution_diff: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"field {f.name} is not finite")


def scaling_to_json(rows: list[ScalingRow], problem: dict) -> str:
    payload = {
        "problem": problem,
        "scaling": [
            {name: getattr(r, name) for name in SCALING_COLUMNS} for r in rows
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def scaling_to_csv(rows: list[ScalingRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCALING_COLUMNS)
    for r in rows:
        writer.writerow([_cell(getattr(r, name)) for name in SCALING_COLUMNS])
    return buf.getvalue()


def memory_lower_bound_mb(problem) -> float:
    """Deterministic lower bound on solver peak memory, in Mbytes.

    Sums the discretization caches (every array field of the problem: the
    quadrature frames and pair tables) and the mesh arrays, each array once
    (hobi collocates at the mesh's own vertex arrays), plus the largest
    transient block a matvec materializes. Actual OS-level peak is
    necessarily higher; this bound is reproducible.
    """
    mesh = problem.mesh
    arrays = [getattr(problem, f.name) for f in fields(problem)]
    arrays += [mesh.vertices, mesh.normals, mesh.faces]
    unique = {id(a): a for a in arrays if isinstance(a, np.ndarray)}
    total = sum(a.nbytes for a in unique.values())
    if problem.scheme == "hobi":
        n_src = problem.reg_pos.shape[0] * problem.reg_pos.shape[1]
    else:
        n_src = problem.n_collocation
    # displacement block (3 floats) plus the four kernel arrays
    block = min(TARGET_BLOCK, max(problem.n_collocation, 1))
    total += block * n_src * 8 * 7
    total += 4 * problem.n_unknowns * 8  # vectors in flight during a matvec
    return total / 1.0e6
