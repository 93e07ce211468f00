import csv
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbbem.kernels import PhysicalParams
from pbbem.mesh import ChargeSystem, icosahedral_sphere
from pbbem.report import (
    REPORT_COLUMNS,
    SCALING_COLUMNS,
    RunReport,
    ScalingRow,
    memory_lower_bound_mb,
    report_from_dict,
    reports_from_csv,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    scaling_to_csv,
    scaling_to_json,
    strip_timings,
)
from pbbem.solver import SolverConfig, discretize, make_operator

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def sample_report(**over):
    base = dict(
        mesh_source="sphere:2,2.0",
        n_vertices=162,
        n_faces=320,
        eps1=1.0,
        eps2=80.0,
        kappa=0.0,
        n_charges=1,
        scheme="hobi",
        workers=1,
        rule_id="conical-radau-4",
        rule_degree=2,
        energy_kcal=-81.98131581725495,
        phi_error=7.10544719410754e-5,
        observed_order=None,
        iterations=6,
        matvecs=7,
        residual=8.3e-7,
        time_discretize_s=0.25,
        time_solve_s=0.41,
        time_energy_s=0.02,
        memory_lower_bound_mb=3.5,
    )
    base.update(over)
    return RunReport(**base)


def test_report_columns_match_dataclass_order():
    for record, columns in ((RunReport, REPORT_COLUMNS), (ScalingRow, SCALING_COLUMNS)):
        assert tuple(f.name for f in dataclasses.fields(record)) == columns


def test_json_round_trip_exact():
    reports = [
        sample_report(),
        sample_report(
            scheme="lobi",
            rule_id="centroid-1",
            rule_degree=1,
            phi_error=None,
            observed_order=0.5569,
            energy_kcal=0.1 + 0.2,  # not representable prettily
            residual=1e-300,
        ),
    ]
    back = reports_from_json(reports_to_json(reports))
    assert back == reports


def test_csv_round_trip_exact():
    reports = [sample_report(), sample_report(phi_error=None, observed_order=1.25)]
    text = reports_to_csv(reports)
    lines = text.splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert reports_from_csv(text) == reports


def test_empty_string_field_round_trips():
    report = sample_report(mesh_source="")
    assert reports_from_csv(reports_to_csv([report])) == [report]
    assert reports_from_json(reports_to_json([report])) == [report]


def test_matvec_count_round_trips():
    """matvecs is a deterministic count: an int column in CSV, an int in
    JSON, untouched by strip_timings."""
    report = sample_report(iterations=130, matvecs=132)
    assert reports_from_json(reports_to_json([report])) == [report]
    assert reports_from_csv(reports_to_csv([report])) == [report]
    assert json.loads(reports_to_json([report]))["reports"][0]["matvecs"] == 132
    row = list(csv.reader(io.StringIO(reports_to_csv([report]))))[1]
    assert row[REPORT_COLUMNS.index("matvecs")] == "132"
    assert strip_timings(report).matvecs == 132


def test_cross_format_equality():
    report = sample_report(observed_order=0.4819)
    via_json = reports_from_json(reports_to_json([report]))[0]
    via_csv = reports_from_csv(reports_to_csv([report]))[0]
    assert via_json == via_csv == report


def test_none_fields_serialize_as_null_and_empty():
    report = sample_report(phi_error=None, observed_order=None)
    payload = json.loads(reports_to_json([report]))
    assert payload["reports"][0]["phi_error"] is None
    row = list(csv.reader(io.StringIO(reports_to_csv([report]))))[1]
    assert row[REPORT_COLUMNS.index("phi_error")] == ""
    assert row[REPORT_COLUMNS.index("observed_order")] == ""


def test_non_finite_fields_rejected():
    with pytest.raises(ValueError, match="finite"):
        sample_report(energy_kcal=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        sample_report(residual=float("inf"))
    with pytest.raises(ValueError, match="None"):
        sample_report(energy_kcal=None)


def test_csv_header_mismatch_rejected():
    good = reports_to_csv([sample_report()])
    bad = good.replace("mesh_source", "mesh_src", 1)
    with pytest.raises(ValueError, match="header"):
        reports_from_csv(bad)


@pytest.mark.parametrize(
    "cells, message",
    [(20, "CSV row 3 has 20 cells for 21 columns: no field 'memory_lower_bound_mb'$"),
     (2, "CSV row 3 has 2 cells for 21 columns: no field 'n_faces'$"),
     (0, "CSV row 3 has 0 cells for 21 columns: no field 'mesh_source'$"),
     (22, "CSV row 3 has 22 cells for 21 columns: cells past field 'memory_lower_bound_mb'$")],
    ids=["one-short", "two-cells", "empty", "one-long"],
)
def test_csv_row_of_the_wrong_width_names_row_and_field(cells, message):
    """A row shorter than the header, or longer, is a ValueError naming
    the row (the header is row 1) and the field it misses or overruns,
    never a KeyError or extra cells dropped."""
    text = reports_to_csv([sample_report()])
    row = next(csv.reader(io.StringIO(text.splitlines()[1])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((row + ["1"])[:cells])
    text += buf.getvalue()
    with pytest.raises(ValueError, match=f"^{message}"):
        reports_from_csv(text)


def test_json_record_without_a_field_names_record_and_field():
    payload = json.loads(reports_to_json([sample_report(), sample_report()]))
    del payload["reports"][1]["mesh_source"]
    with pytest.raises(ValueError, match=r"^reports\[1\] has no field 'mesh_source'$"):
        reports_from_json(json.dumps(payload))
    with pytest.raises(ValueError, match="^record has no field 'n_vertices'$"):
        report_from_dict({"mesh_source": "sphere"})


def test_report_from_dict_coerces_string_cells():
    record = sample_report().to_dict()
    record["n_vertices"] = "162"
    record["energy_kcal"] = "-81.98131581725495"
    report = report_from_dict(record)
    assert report.n_vertices == 162
    assert report.energy_kcal == -81.98131581725495


def test_strip_timings_gives_byte_stable_output():
    fast = sample_report(time_discretize_s=0.21, time_solve_s=0.40, time_energy_s=0.01)
    slow = sample_report(time_discretize_s=5.0, time_solve_s=9.9, time_energy_s=0.7)
    assert strip_timings(fast) == strip_timings(slow)
    assert reports_to_csv([strip_timings(fast)]) == reports_to_csv(
        [strip_timings(slow)]
    )
    assert reports_to_json([strip_timings(fast)]) == reports_to_json(
        [strip_timings(slow)]
    )
    assert strip_timings(strip_timings(fast)) == strip_timings(fast)
    assert strip_timings(fast).time_solve_s == 0.0
    assert strip_timings(fast).energy_kcal == fast.energy_kcal


@settings(max_examples=60, deadline=None)
@given(
    energy=finite_floats,
    residual=finite_floats,
    phi_error=st.one_of(st.none(), finite_floats),
    order=st.one_of(st.none(), finite_floats),
    iters=st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_property(energy, residual, phi_error, order, iters):
    report = sample_report(
        energy_kcal=energy,
        residual=residual,
        phi_error=phi_error,
        observed_order=order,
        iterations=iters,
    )
    assert reports_from_json(reports_to_json([report])) == [report]
    assert reports_from_csv(reports_to_csv([report])) == [report]


def test_scaling_row_validation_and_serialization():
    rows = [
        ScalingRow(workers=1, time_solve_s=19.2, efficiency=1.0, max_solution_diff=0.0),
        ScalingRow(workers=4, time_solve_s=24.9, efficiency=0.19, max_solution_diff=0.0),
    ]
    with pytest.raises(ValueError):
        ScalingRow(workers=2, time_solve_s=float("nan"), efficiency=1.0,
                   max_solution_diff=0.0)
    csv_text = scaling_to_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(SCALING_COLUMNS)
    assert csv_text.splitlines()[1].startswith("1,")
    payload = json.loads(scaling_to_json(rows, problem={"mesh_source": "sphere:3"}))
    assert payload["problem"] == {"mesh_source": "sphere:3"}
    assert len(payload["scaling"]) == 2
    assert payload["scaling"][0]["efficiency"] == 1.0


def test_memory_lower_bound_properties():
    mesh = icosahedral_sphere(1)
    water = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
    charges = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
    hobi = discretize(mesh, water, charges, SolverConfig(scheme="hobi"))
    lobi = discretize(mesh, water, charges, SolverConfig(scheme="lobi"))
    mb_hobi = memory_lower_bound_mb(hobi)
    mb_lobi = memory_lower_bound_mb(lobi)
    assert mb_hobi > mb_lobi > 0.0
    assert mb_hobi == memory_lower_bound_mb(hobi)  # deterministic
    # the bound at least covers the stored quadrature caches
    cache_bytes = sum(
        arr.nbytes
        for arr in (hobi.reg_pos, hobi.reg_nrm, hobi.reg_w, hobi.near_coef)
    )
    assert mb_hobi >= cache_bytes / 1e6


@pytest.mark.parametrize("kappa", [0.0, 0.125])
def test_memory_bound_counts_the_near_table_not_duffy_frames(kappa):
    """hobi keeps its near field as a sparse vertex table: no (P, D, 3)
    array of Duffy frames is held (the only 3-D arrays are the regular
    rule's frames), and dropping the table from the problem lowers the
    bound by exactly the table's bytes plus the 6 values an entry that
    the matvec's near sums allocate."""
    mesh = icosahedral_sphere(2)
    params = PhysicalParams(eps1=1.0, eps2=80.0, kappa=kappa)
    charges = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
    hobi = discretize(mesh, params, charges, SolverConfig(scheme="hobi"))
    held = [getattr(hobi, f.name) for f in dataclasses.fields(hobi)]
    held = [a for a in held if isinstance(a, np.ndarray)]
    assert [a.shape for a in held if a.ndim == 3] == [hobi.reg_pos.shape] * 2
    table = (hobi.near_starts, hobi.near_cols, hobi.near_coef)
    assert hobi.near_cols.size <= 7 * mesh.n_vertices
    bare = dataclasses.replace(hobi, near_starts=None, near_cols=None, near_coef=None)
    table_mb = sum(a.nbytes for a in table) / 1e6
    workspace_mb = 6 * hobi.near_cols.size * 8 / 1e6  # _add_near's temporaries
    drop = memory_lower_bound_mb(hobi) - memory_lower_bound_mb(bare)
    assert drop == pytest.approx(table_mb + workspace_mb, rel=1e-9)


def test_memory_bound_counts_shared_arrays_once():
    """hobi collocates at the mesh's own vertex arrays and lobi's regular
    rule is a view of its centroids; each buffer counts once."""
    mesh = icosahedral_sphere(1)
    water = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
    charges = ChargeSystem(positions=[[0.0, 0.0, 0.0]], charges=[1.0])
    hobi = discretize(mesh, water, charges, SolverConfig(scheme="hobi"))
    assert hobi.colloc_pos is mesh.vertices
    assert hobi.colloc_nrm is mesh.normals
    copied = dataclasses.replace(
        hobi, colloc_pos=mesh.vertices.copy(), colloc_nrm=mesh.normals.copy()
    )
    extra_mb = memory_lower_bound_mb(copied) - memory_lower_bound_mb(hobi)
    assert extra_mb == pytest.approx(48 * mesh.n_vertices / 1e6, rel=1e-9)

    lobi = discretize(mesh, water, charges, SolverConfig(scheme="lobi"))
    assert lobi.reg_pos.base is lobi.colloc_pos
    assert lobi.reg_nrm.base is lobi.colloc_nrm
    copied = dataclasses.replace(
        lobi, reg_pos=lobi.reg_pos.copy(), reg_nrm=lobi.reg_nrm.copy()
    )
    extra_mb = memory_lower_bound_mb(copied) - memory_lower_bound_mb(lobi)
    assert extra_mb == pytest.approx(48 * mesh.n_faces / 1e6, rel=1e-9)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("scheme", ["hobi", "lobi"])
def test_memory_bound_covers_traced_matvec(scheme, level):
    """The bound counts what a serial operator holds and allocates (its
    sweep plan's factors, weights, tile masks and scratch, and per call
    the sources' weights and moments, tile products, chunk sums and near
    gathers), so it is at least the traced peak of one matvec of either
    scheme, screened or not, plan build included (each call opens a new
    serial operator)."""
    charges = ChargeSystem(positions=np.zeros((0, 3)), charges=np.zeros(0))

    def matvec(problem, u):
        with make_operator(problem, SolverConfig(workers=1)) as op:
            return op(u)
    for kappa in (0.0, 0.125):
        water = PhysicalParams(eps1=1.0, eps2=80.0, kappa=kappa)
        problem = discretize(
            icosahedral_sphere(level), water, charges, SolverConfig(scheme=scheme)
        )
        u = np.random.default_rng(level).standard_normal(problem.n_unknowns)
        matvec(problem, u)  # warm any lazy state
        tracemalloc.start()
        try:
            matvec(problem, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert memory_lower_bound_mb(problem) * 1e6 >= peak


def test_memory_bound_grows_with_refinement():
    water = PhysicalParams(eps1=1.0, eps2=80.0, kappa=0.0)
    charges = ChargeSystem(positions=np.zeros((0, 3)), charges=np.zeros(0))
    bounds = [
        memory_lower_bound_mb(
            discretize(
                icosahedral_sphere(level), water, charges, SolverConfig(scheme="hobi")
            )
        )
        for level in (0, 1, 2)
    ]
    assert bounds[0] < bounds[1] < bounds[2]
