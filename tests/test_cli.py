import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import negate_entry, package_env

import cuspreflect
import cuspreflect.reflections as refl
from cuspreflect.cli import main


def run_cli(args):
    # in-process invocation keeps the suite fast; exit-code tests go
    # through a real subprocess below
    return main(args)


class TestPointCommands:
    def test_reflect_piece_a(self, capsys):
        assert run_cli(["reflect", "--scheme", "r1-outer", "--n", "3", "--s", "2",
                        "--point=-0.25,0.1,0"]) == 0
        assert capsys.readouterr().out.strip() == "0.25,0.00416666666667,0"

    def test_jacobian_piece_d(self, capsys):
        assert run_cli(["jacobian", "--scheme", "r2-outer", "--n", "3", "--s", "2",
                        "--point=-0.25,0.01,0"]) == 0
        assert capsys.readouterr().out.strip() == "opnorm=1 det=-0.25"

    def test_boundary_echo(self, capsys):
        assert run_cli(["reflect", "--scheme", "r1-inner", "--point", "0.25,0.0625,0"]) == 0
        assert capsys.readouterr().out.strip() == "0.25,0.0625,0"

    def test_classify(self, capsys):
        assert run_cli(["classify", "--scheme", "r2", "--point", "0.1,0.09,0"]) == 0
        assert capsys.readouterr().out.strip() == "RegionE"

    def test_higher_dimension(self, capsys):
        assert run_cli(["classify", "--n", "4", "--point", "0.3,0.01,0,0"]) == 0
        assert capsys.readouterr().out.strip() == "InnerPiece1"


class TestExitCodes:
    def _spawn(self, args):
        return subprocess.run(
            [sys.executable, "-m", "cuspreflect", *args],
            capture_output=True, text=True, env=package_env(),
        )

    def test_parse_error_is_2(self):
        proc = self._spawn(["reflect", "--bogus"])
        assert proc.returncode == 2

    def test_domain_error_is_3(self):
        proc = self._spawn(["reflect", "--scheme", "r1-outer", "--point", "0.9,0.5,0"])
        assert proc.returncode == 3
        assert "CuspInterior" in proc.stderr  # names the offending region
        assert proc.stdout == ""

    def test_window_error_is_3(self):
        proc = self._spawn(["classify", "--s", "1.0", "--point", "0.1,0,0"])
        assert proc.returncode == 3

    def test_bad_point_length_is_3(self):
        proc = self._spawn(["classify", "--point", "0.1,0"])
        assert proc.returncode == 3


class TestInputHardening:
    @pytest.mark.parametrize("args", [
        ["sweep", "--samples", "0", "--grid", "2", "--k-max", "12"],
        ["sweep", "--grid", "0", "--samples", "64", "--k-max", "12"],
        ["extendnorm", "--p", "2", "--q", "1.1", "--samples", "-1", "--k-max", "12"],
    ])
    def test_nonpositive_counts_are_2(self, tmp_path, capsys, args):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--out", str(out)])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--p", "2"], ["--q", "1.1"]])
    def test_sweep_needs_both_p_and_q(self, tmp_path, capsys, flag):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", *flag, "--grid", "2", "--samples", "64", "--k-max", "12",
                     "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--p" in err and "--q" in err
        assert not out.exists()

    def test_region_e_retry_error_is_3(self, tmp_path, capsys):
        # every redraw of region E's shell 17 holds a nan at this cell
        out = tmp_path / "out.csv"
        assert run_cli(["sweep", "--scheme", "r2", "--n", "5", "--s", "3", "--p", "1.3",
                        "--q", "1.25", "--samples", "1024", "--k-max", "26",
                        "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: persistent non-finite")
        assert not out.exists()


class TestSweep:
    def test_explicit_cells_and_agreement(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--scheme", "r1", "--p", "2", "--q", "1.0,1.1,1.3,1.5",
                        "--samples", "1024", "--k-max", "26", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
        assert [r["region"] for r in rows[:3]] == ["RegionA", "RegionB", "RegionC"]
        header = open(out).readline().strip()
        assert header == ("n,s,scheme,region,p,q,q_max_theory,admissible_theory,"
                          "e_predicted,k_min,k_max,partial_sum,last_ratio,verdict,agrees,seed")
        for r in rows:
            if abs(float(r["q"]) - 1.2) >= 0.05:
                assert r["agrees"] == "true"
            assert r["seed"] == "42"

    def test_admissibility_column_r2(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["sweep", "--scheme", "r2", "--p", "2", "--q", "1.3", "--samples", "512",
                 "--k-max", "20", "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        assert all(r["admissible_theory"] == "true" for r in rows)  # 1.3 < 10/7

    def test_q_at_least_p_yields_window_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["sweep", "--scheme", "r1", "--p", "2", "--q", "2.0,2.5",
                 "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        assert all(r["verdict"] == "WindowError" for r in rows)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["sweep", "--scheme", "r1", "--p", "2", "--q", "1.0", "--samples",
                 "256", "--k-max", "12", "--out", str(out)])
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["flags"]["seed"] == 42
        assert "wall_time_s" in manifest


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["extendnorm", "--function", "power:1.4", "--p", "2", "--q", "1.1",
                "--samples", "512", "--k-max", "16"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--scheme", "r1", "--p", "2", "--q", "1.1",
                "--samples", "256", "--k-max", "12"]
        run_cli(base + ["--out", str(a)])
        run_cli(base + ["--seed", "43", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestScaling:
    def test_region_a_slope(self, tmp_path):
        out = tmp_path / "scaling.csv"
        run_cli(["scaling", "--regions", "A", "--samples", "1024", "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        assert rows[0]["region"] == "RegionA"
        assert float(rows[0]["fitted_slope"]) == pytest.approx(2.0, abs=1e-9)
        assert float(rows[0]["target_slope"]) == 2.0

    def test_header(self, tmp_path):
        out = tmp_path / "scaling.csv"
        run_cli(["scaling", "--regions", "D", "--samples", "256", "--out", str(out)])
        assert open(out).readline().strip() == "region,scale,opnorm,abs_det,fitted_slope,target_slope"


class TestExtendnorm:
    def test_divergent_case(self, tmp_path, capsys):
        out = tmp_path / "en.csv"
        run_cli(["extendnorm", "--function", "power:1.4", "--p", "2", "--q", "1.3",
                 "--samples", "1024", "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        assert rows[-1]["verdict"] == "Divergent"
        assert open(out).readline().strip() == "shell,k,Lq_value_term,Lq_grad_term,partial,verdict"

    def test_convergent_case(self, tmp_path):
        out = tmp_path / "en.csv"
        run_cli(["extendnorm", "--function", "power:1.4", "--p", "2", "--q", "1.1",
                 "--samples", "1024", "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        assert rows[-1]["verdict"] == "Convergent"


class TestHolder:
    def test_csv_and_exponent(self, tmp_path):
        out = tmp_path / "holder.csv"
        run_cli(["holder", "--s", "2", "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        assert open(out).readline().strip() == "t,osc,diam,fitted_exponent"
        assert float(rows[0]["fitted_exponent"]) == pytest.approx(0.5, abs=0.02)


class TestVerify:
    def test_quick_run_passes_and_fault_injection_fails(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "verify.csv"
        # small budgets: only spot-check the wiring here; the full suite runs
        # in the acceptance tests
        import cuspreflect.checks as checks

        res = checks.check_fd_agreement(cuspreflect.CuspParams(3, 2.0), 30, 1)
        assert res.passed
        monkeypatch.setattr(refl, "_jacobian_matrices", negate_entry(1, 0))
        res = checks.check_fd_agreement(cuspreflect.CuspParams(3, 2.0), 30, 1)
        assert not res.passed

    def test_manifest_times_every_check(self, tmp_path):
        import cuspreflect.checks as checks

        out = tmp_path / "verify.csv"
        assert run_cli(["verify", "--out", str(out)]) == 0
        assert open(out).readline().strip() == "name,samples,worst_error,threshold,pass"
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        names = {name for name in dir(checks) if name.startswith("check_")}
        assert set(manifest["check_s"]) == names
        assert all(seconds >= 0.0 for seconds in manifest["check_s"].values())
        assert sum(manifest["check_s"].values()) <= manifest["wall_time_s"] + 0.01
