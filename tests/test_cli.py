"""End-to-end checks of the command-line front end.

Everything runs in-process through main(argv) so exit codes, stdout, and
stderr can be asserted exactly; a single subprocess test confirms that the
console entry point declared in pyproject.toml resolves and runs, without
installing the package. Exit-code contract: 0 success, 1 runtime failure
(one ``error: <Type>: <msg>`` line on stderr), 2 usage error.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbbem
import pbbem.cli
import pbbem.solver
from pbbem.cli import main
from pbbem.mesh import write_msms
from pbbem.report import (
    SCALING_COLUMNS,
    reports_from_csv,
    reports_from_json,
    strip_timings,
)

# centered unit charge in a radius-2 cavity, eps 1/80, kappa 0
EXACT_BORN_A2 = -81.98017625


def _exit_worker(*args):
    os._exit(1)


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the arguments were checked")


@pytest.fixture()
def charges_file(tmp_path):
    path = tmp_path / "centered.crg"
    path.write_text("0.0 0.0 0.0 1.0\n")
    return str(path)


@pytest.fixture(scope="module")
def hobi_l2_report(tmp_path_factory):
    """One hobi solve on the level-2 sphere, shared by the slow tests."""
    tmp = tmp_path_factory.mktemp("hobi_l2")
    charges = tmp / "centered.crg"
    charges.write_text("0.0 0.0 0.0 1.0\n")
    out = tmp / "run.json"
    rc = main(
        [
            "solve",
            "--sphere", "2,2.0",
            "--charges", str(charges),
            "--eps1", "1.0",
            "--eps2", "80.0",
            "--kappa", "0.0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    (report,) = reports_from_json(out.read_text())
    return report


class TestSolve:
    def test_hobi_sphere_json_report(self, hobi_l2_report):
        report = hobi_l2_report
        assert report.scheme == "hobi"
        assert report.rule_id == "conical-radau-4"
        assert report.rule_degree == 3
        assert report.mesh_source == "icosphere level=2 radius=2.0"
        assert report.n_vertices == 162
        assert report.n_faces == 320
        assert report.n_charges == 1
        assert abs(report.energy_kcal - EXACT_BORN_A2) < 0.5
        assert report.phi_error is not None
        assert report.phi_error < 1e-3
        assert report.observed_order is None
        assert 1 <= report.iterations <= 20
        assert report.matvecs == report.iterations
        assert report.residual <= 1e-6
        assert report.memory_lower_bound_mb > 0.0

    def test_summary_line_printed_with_out(self, tmp_path, charges_file, capsys):
        out = tmp_path / "run.json"
        rc = main(
            ["solve", "--sphere", "1,2.0", "--charges", charges_file,
             "--out", str(out)]
        )
        assert rc == 0
        summary = capsys.readouterr().out
        assert "E_sol" in summary
        assert "kcal/mol" in summary
        assert "e_phi=" in summary
        (report,) = reports_from_json(out.read_text())
        counts = f"{report.iterations} iterations, {report.matvecs} matvecs, residual"
        assert counts in summary

    def test_lobi_is_farther_from_exact(self, tmp_path, charges_file,
                                        hobi_l2_report):
        out = tmp_path / "lobi.json"
        rc = main(
            ["solve", "--sphere", "2,2.0", "--charges", charges_file,
             "--scheme", "lobi", "--out", str(out)]
        )
        assert rc == 0
        (lobi,) = reports_from_json(out.read_text())
        assert lobi.rule_id == "centroid-1"
        assert lobi.rule_degree == 1
        err_hobi = abs(hobi_l2_report.energy_kcal - EXACT_BORN_A2)
        err_lobi = abs(lobi.energy_kcal - EXACT_BORN_A2)
        assert err_hobi < err_lobi / 100

    def test_json_to_stdout_without_out(self, charges_file, capsys):
        rc = main(["solve", "--sphere", "1,2.0", "--charges", charges_file])
        assert rc == 0
        captured = capsys.readouterr()
        (report,) = reports_from_json(captured.out)
        assert report.n_vertices == 42
        assert "E_sol" not in captured.out
        assert captured.err == ""

    def test_reports_byte_stable_across_runs(self, tmp_path, charges_file):
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(
                ["solve", "--sphere", "1,2.0", "--charges", charges_file,
                 "--kappa", "0.5", "--out", str(out)]
            )
            assert rc == 0
            (report,) = reports_from_json(out.read_text())
            reports.append(report)
        first, second = reports
        assert strip_timings(first) == strip_timings(second)
        assert first.energy_kcal == second.energy_kcal

    def test_msms_files_have_no_oracle(self, tmp_path, tetrahedron_mesh,
                                       charges_file):
        vert_text, face_text = write_msms(tetrahedron_mesh)
        vert = tmp_path / "t.vert"
        face = tmp_path / "t.face"
        vert.write_text(vert_text)
        face.write_text(face_text)
        out = tmp_path / "t.json"
        rc = main(
            ["solve", "--vert", str(vert), "--face", str(face),
             "--charges", charges_file, "--scheme", "lobi",
             "--out", str(out)]
        )
        assert rc == 0
        (report,) = reports_from_json(out.read_text())
        assert report.phi_error is None
        assert report.mesh_source.startswith("msms ")
        assert report.n_vertices == 4
        assert report.n_faces == 4
        assert report.energy_kcal < 0.0

    def test_all_zero_sphere_oracle_reports_no_error(self, tmp_path, charges_file):
        """At a kappa where every mode of the series underflows, the
        oracle's potential is zero and phi_error is null, as for MSMS."""
        out = tmp_path / "screened.json"
        rc = main(["solve", "--sphere", "1,2.0", "--charges", charges_file,
                   "--kappa", "1e300", "--out", str(out)])
        assert rc == 0
        (report,) = reports_from_json(out.read_text())
        assert report.phi_error is None


class TestUsageErrors:
    def test_sphere_and_files_conflict(self, charges_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--sphere", "1,1.0", "--vert", "x.vert",
                  "--charges", charges_file])
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_vert_without_face(self, charges_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--vert", "x.vert", "--charges", charges_file])
        assert excinfo.value.code == 2
        assert "together" in capsys.readouterr().err

    def test_no_mesh_source(self, charges_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--charges", charges_file])
        assert excinfo.value.code == 2
        assert "either --sphere or --vert/--face" in capsys.readouterr().err

    def test_missing_charges_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--sphere", "1,1.0"])
        assert excinfo.value.code == 2
        assert "--charges" in capsys.readouterr().err

    def test_malformed_sphere_argument(self, charges_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--sphere", "two,1.0", "--charges", charges_file])
        assert excinfo.value.code == 2
        assert "LEVEL,RADIUS" in capsys.readouterr().err

    def test_unknown_convergence_scheme(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["convergence", "--schemes", "hibi"])
        assert excinfo.value.code == 2
        assert "unknown scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("schemes", ["", ","])
    def test_no_convergence_scheme(self, schemes, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["convergence", "--schemes", schemes])
        assert excinfo.value.code == 2
        assert "no scheme given" in capsys.readouterr().err

    @pytest.mark.parametrize("schemes", ["", ",", "hibi", "hobi,hibi"])
    def test_bad_schemes_print_the_convergence_usage(self, schemes, capsys):
        """--schemes is checked while the subcommand's arguments are
        parsed, so the usage printed is that of pbbem convergence."""
        with pytest.raises(SystemExit) as excinfo:
            main(["convergence", "--schemes", schemes])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pbbem convergence ")
        assert "pbbem convergence: error: argument --schemes: " in err

    @pytest.mark.parametrize("levels", ["1,1", "0,2,0"])
    def test_repeated_convergence_level(self, levels, monkeypatch, capsys):
        """A level listed twice is a usage error naming it, before any solve."""
        monkeypatch.setattr(pbbem.cli, "_run_one", _no_solve)
        with pytest.raises(SystemExit) as excinfo:
            main(["convergence", "--levels", levels])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pbbem convergence ")
        level = levels.split(",")[0]
        assert f"error: argument --levels: level {level} listed twice" in err

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestRuntimeErrors:
    def test_missing_charge_file(self, tmp_path, capsys):
        rc = main(["solve", "--sphere", "1,1.0",
                   "--charges", str(tmp_path / "absent.crg")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:")

    def test_bad_mesh_file(self, tmp_path, charges_file, capsys):
        vert = tmp_path / "bad.vert"
        face = tmp_path / "bad.face"
        vert.write_text(
            "1.0 0.0 0.0 1.0 0.0 0.0\n"
            "0.0 1.0 0.0 0.0 1.0 0.0\n"
            "0.0 0.0 1.0 0.0 0.0 1.0\n"
        )
        face.write_text("0 1 2\n")  # zero-based indices are a format error
        rc = main(["solve", "--vert", str(vert), "--face", str(face),
                   "--charges", charges_file])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MeshFormatError:")

    def test_non_finite_sphere_radius(self, charges_file, capsys):
        rc = main(["solve", "--sphere", "1,nan", "--charges", charges_file])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: radius must be finite and positive, got nan")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork unavailable")
    def test_dead_worker(self, monkeypatch, charges_file, capsys):
        monkeypatch.setattr(pbbem.solver, "_worker_part", _exit_worker)
        rc = main(["solve", "--sphere", "1,2.0", "--charges", charges_file,
                   "--scheme", "lobi", "--workers", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: WorkerDied: matvec worker died: worker 0 exited with status 1")

    def test_non_finite_physical_constant(self, charges_file, capsys):
        rc = main(["solve", "--sphere", "1,2.0", "--charges", charges_file,
                   "--eps1", "inf"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: eps1 must be positive and finite, got inf")

    def test_convergence_with_all_zero_oracle(self, capsys):
        rc = main(["convergence", "--levels", "0,1", "--kappa", "1e300"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: no converged sphere oracle")

    def test_convergence_without_oracle(self, capsys):
        rc = main(["convergence", "--levels", "0", "--radius", "2.0",
                   "--charge-position", "3.0,0,0", "--schemes", "lobi"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:")
        assert "oracle" in err


class TestConvergence:
    def test_lobi_two_levels_csv(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--levels", "0,1", "--radius", "2.0",
                   "--schemes", "lobi", "--format", "csv", "--out", str(out)])
        assert rc == 0
        rows = reports_from_csv(out.read_text())
        assert [r.n_faces for r in rows] == [20, 80]
        assert all(r.scheme == "lobi" for r in rows)
        assert rows[1].phi_error < rows[0].phi_error
        assert rows[0].observed_order is None
        assert rows[1].observed_order is not None
        assert rows[1].observed_order > 0.0
        stdout = capsys.readouterr().out
        assert "order=" in stdout

    def test_csv_json_numeric_identity(self, tmp_path):
        parsed = {}
        for fmt, loader in (("csv", reports_from_csv),
                            ("json", reports_from_json)):
            out = tmp_path / f"conv.{fmt}"
            rc = main(["convergence", "--levels", "0,1", "--radius", "2.0",
                       "--schemes", "lobi", "--format", fmt,
                       "--out", str(out)])
            assert rc == 0
            parsed[fmt] = loader(out.read_text())
        assert len(parsed["csv"]) == len(parsed["json"]) == 2
        for a, b in zip(parsed["csv"], parsed["json"]):
            assert a.energy_kcal == b.energy_kcal
            assert a.phi_error == b.phi_error
            assert a.observed_order == b.observed_order
            assert a.iterations == b.iterations
            assert a.residual == b.residual
            assert strip_timings(a) == strip_timings(b)

    def test_order_resets_between_schemes(self, tmp_path):
        out = tmp_path / "conv.json"
        rc = main(["convergence", "--levels", "0,1", "--radius", "2.0",
                   "--schemes", "hobi,lobi", "--out", str(out)])
        assert rc == 0
        rows = reports_from_json(out.read_text())
        assert [r.scheme for r in rows] == ["hobi", "hobi", "lobi", "lobi"]
        assert rows[0].observed_order is None
        assert rows[2].observed_order is None
        assert rows[1].observed_order is not None
        assert rows[3].observed_order is not None


class TestScaling:
    def test_three_worker_rows_json(self, tmp_path, capsys):
        out = tmp_path / "scal.json"
        rc = main(["scaling", "--sphere", "0,2.0", "--scheme", "hobi",
                   "--workers-list", "1,2,8", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        prob = payload["problem"]
        assert prob["n_faces"] == 20
        assert prob["n_vertices"] == 12
        assert prob["scheme"] == "hobi"
        assert prob["n_charges"] == 1
        rows = payload["scaling"]
        assert [r["workers"] for r in rows] == [1, 2, 8]
        assert rows[0]["efficiency"] == 1.0
        for row in rows:
            assert row["time_solve_s"] > 0.0
            assert row["efficiency"] > 0.0
            # matvec is bitwise deterministic, so worker count must not
            # perturb the solution at all
            assert row["max_solution_diff"] == 0.0
        stdout = capsys.readouterr().out
        assert "workers=8" in stdout

    def test_rows_name_the_workers_that_run(self, monkeypatch, tmp_path):
        """A request past STRIP_CHUNKS (here 2) runs STRIP_CHUNKS workers, and
        its row and efficiency say so; requests that run alike share a row."""
        monkeypatch.setattr(pbbem.solver, "STRIP_CHUNKS", 2)
        out = tmp_path / "scal.json"
        rc = main(["scaling", "--sphere", "0,2.0", "--workers-list", "1,2,5",
                   "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["scaling"]
        assert [r["workers"] for r in rows] == [1, 2]
        assert rows[1]["max_solution_diff"] == 0.0

    def test_workers_flag_is_rejected(self, capsys):
        """scaling reads --workers-list only, so --workers is no option of it."""
        with pytest.raises(SystemExit) as info:
            main(["scaling", "--workers", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_csv_to_stdout(self, capsys):
        rc = main(["scaling", "--sphere", "0,2.0", "--workers-list", "1",
                   "--format", "csv"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == ",".join(SCALING_COLUMNS)
        assert len(lines) == 2
        assert "workers=" not in captured.out


def test_console_script_help():
    """``pbbem --help`` through the declared ``[project.scripts]`` target.

    The wrapper that an install generates imports ``attr`` from ``module``
    and exits with its return value; the same statement runs here in a
    fresh interpreter, on the same package code this test imported.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pbbem"]
    module, attr = target.split(":")
    package_root = str(Path(pbbem.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for word in ("solve", "convergence", "scaling"):
        assert word in proc.stdout
