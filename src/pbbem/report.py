"""Machine-readable run reports: one flat record per solve.

A report carries everything needed to reproduce and interpret a run: the
problem description, the scheme and quadrature rule (with its verified
exactness degree, so results stay interpretable if the rule choice ever
changes), the energy, oracle errors when a sphere oracle applies, GMRES
diagnostics (iterations, operator applications and the residual, the
larger of the phi and the dphi/dn equation's relative residuals), per-phase
wall times, and a deterministic lower bound on peak
memory computed from the quadrature cache sizes. The wall-time fields are
the only nondeterministic ones; everything else is byte-stable for fixed
inputs, a fixed rule, and worker count 1.

Each record's dataclass is its only schema: REPORT_COLUMNS and
SCALING_COLUMNS are the field names of RunReport and ScalingRow in
declaration order, and a field's annotation ("str", "int", "float" or
"float | None") says how a cell parses back. Serialization is JSON (sorted
keys) or a flat CSV whose header is the column tuple, in that order. Floats
are written with repr precision so either form round-trips exactly; absent
optional fields are JSON null / empty CSV cells.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .solver import workspace_doubles

_TIMING_FIELDS = ("time_discretize_s", "time_solve_s", "time_energy_s")


@dataclass(frozen=True)
class RunReport:
    """One solve, flattened. This field list is the report schema."""

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
    matvecs: int
    residual: float
    time_discretize_s: float
    time_solve_s: float
    time_energy_s: float
    memory_lower_bound_mb: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str":
                continue
            if value is None:
                if f.type == "float | None":
                    continue
                raise ValueError(f"field {f.name} must not be None")
            if not math.isfinite(value):
                raise ValueError(f"field {f.name} is not finite: {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)


REPORT_COLUMNS = tuple(f.name for f in fields(RunReport))


def _number(value, kind: type, what: str):
    """value, a str or a number, as a kind (int or float); a str that does
    not spell one, a bool or a float for an int is a ValueError naming what."""
    if isinstance(value, (str, kind, int)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return kind(value)
    raise ValueError(f"{what} is not {'an int' if kind is int else 'a float'}: {value!r}")


def report_from_dict(record: dict, where: str = "record") -> RunReport:
    """The report of one record, its cells parsed by field annotation; a
    missing or bad cell is a ValueError naming the record and the field."""
    kwargs = {}
    for f in fields(RunReport):
        if f.name not in record:
            raise ValueError(f"{where} has no field {f.name!r}")
        value = record[f.name]
        if f.type == "str":
            value = str(value)
        elif value is not None:  # annotations are strings: "int", "float", "float | None"
            value = _number(value, int if f.type == "int" else float, f"{where} field {f.name!r}")
        kwargs[f.name] = value
    return RunReport(**kwargs)


def reports_to_json(reports: list[RunReport]) -> str:
    payload = {"reports": [r.to_dict() for r in reports]}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def reports_from_json(text: str) -> list[RunReport]:
    payload = json.loads(text)
    return [report_from_dict(rec, f"reports[{k}]") for k, rec in enumerate(payload["reports"])]


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


def _to_csv(records: list, columns: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        writer.writerow([_cell(getattr(r, name)) for name in columns])
    return buf.getvalue()


def reports_to_csv(reports: list[RunReport]) -> str:
    return _to_csv(reports, REPORT_COLUMNS)


def reports_from_csv(text: str) -> list[RunReport]:
    """The reports of a CSV table; a row (the header is row 1) with more
    or fewer cells than columns, or a bad cell, is a ValueError naming it."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != REPORT_COLUMNS:
        raise ValueError("CSV header does not match REPORT_COLUMNS")
    types = {f.name: f.type for f in fields(RunReport)}
    width = len(REPORT_COLUMNS)
    out = []
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            what = (f"no field {REPORT_COLUMNS[len(row)]!r}" if len(row) < width
                    else f"cells past field {REPORT_COLUMNS[-1]!r}")
            raise ValueError(f"CSV row {number} has {len(row)} cells for {width} columns: {what}")
        # an empty cell is an absent optional number or an empty string
        record = {
            name: (None if cell == "" and types[name] != "str" else cell)
            for name, cell in zip(REPORT_COLUMNS, row)
        }
        out.append(report_from_dict(record, f"CSV row {number}"))
    return out


def strip_timings(report: RunReport) -> RunReport:
    """Copy with wall-time fields zeroed: the byte-stable remainder."""
    return replace(report, **{name: 0.0 for name in _TIMING_FIELDS})


@dataclass(frozen=True)
class ScalingRow:
    """One worker count in a strong-scaling table; the fields are the columns."""

    workers: int
    time_solve_s: float
    efficiency: float
    max_solution_diff: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"field {f.name} is not finite")


SCALING_COLUMNS = tuple(f.name for f in fields(ScalingRow))


def scaling_to_json(rows: list[ScalingRow], problem: dict) -> str:
    payload = {"problem": problem, "scaling": [asdict(r) for r in rows]}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def scaling_to_csv(rows: list[ScalingRow]) -> str:
    return _to_csv(rows, SCALING_COLUMNS)


def memory_lower_bound_mb(problem) -> float:
    """Deterministic lower bound on solver peak memory, in Mbytes.

    Counts array buffers only. It sums the discretization caches (every
    array field of the problem: the regular frames and their nodes, hobi's
    near table) and the mesh arrays, each buffer once (hobi collocates at
    the mesh's own vertex arrays; lobi's regular rule is a view of its
    centroids), plus what a serial operator holds for its matvecs
    (solver.workspace_doubles): persistent, once, its sweep plan's factors,
    weights, tiles, near pairs and kernel scratch; per call the sources'
    weights and moments, tile products, near-table gathers and partial
    sums, or the plan build's sort; and the vectors in flight. Python
    objects are not counted. On the smallest meshes they are a large
    share: for level-0 lobi (20 faces, eps 1/80) the bound is 29.7 KB, and
    tracemalloc traces a peak of 28.2 KB for a serial matvec that builds
    its plan and 7.8 KB for one that reuses it at kappa = 0 (bound 38.2 KB;
    38.0 and 11.8 KB at 0.125). The OS-level peak is higher still; this
    one is reproducible."""
    mesh = problem.mesh
    arrays = [getattr(problem, f.name) for f in fields(problem)]
    arrays += [mesh.vertices, mesh.normals, mesh.faces]
    roots = [a if a.base is None else a.base for a in arrays if isinstance(a, np.ndarray)]
    total = sum(a.nbytes for a in {id(a): a for a in roots}.values())
    total += workspace_doubles(problem) * 8
    total += 4 * problem.n_unknowns * 8  # vectors in flight during a matvec
    return total / 1.0e6
