import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import negate_entry, package_env

import cuspreflect
import cuspreflect.reflections as refl
from cuspreflect import cli
from cuspreflect.cli import main
from cuspreflect.errors import WindowError


def run_cli(args):
    # in-process invocation keeps the suite fast; exit-code tests go
    # through a real subprocess below
    return main(args)


def csv_rows(path) -> list[dict]:
    """The rows of a CSV file, keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_header(path) -> str:
    """The first line of a CSV file, without its line end."""
    return Path(path).read_text().split("\n", 1)[0].strip()


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

    @pytest.mark.parametrize("s", ["1.5", "2", "3"])
    @pytest.mark.parametrize("chart", ["r1-outer", "r1-inner", "r2-outer"])
    def test_reflect_origin_is_warning_free(self, capsys, chart, s):
        # the origin is the apex of piece A (R1) and of piece D (R2), where
        # |t|^(s-2) is infinite for s < 2 and |t|^(s-1)/|t| is 0/0; the inner
        # chart leaves it out
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["reflect", "--scheme", chart, "--n", "3", "--s", s,
                          "--point", "0,0,0"])
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        if chart == "r1-inner":
            assert rc == 3 and "Origin" in err
        else:
            assert rc == 0 and out.strip() == "-0,0,0"

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
        ["holder", "--radial-samples", "0"],
        ["holder", "--radial-samples", "1"],
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

    @pytest.mark.parametrize("letter", ["Q", "P1"])
    def test_scaling_unknown_region_is_3(self, tmp_path, capsys, letter):
        out = tmp_path / "out.csv"
        assert run_cli(["scaling", "--regions", f"A,{letter}", "--samples", "64",
                        "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown region '{letter}'")
        assert "A,B,C,D,E" in err
        assert not out.exists()

    @pytest.mark.parametrize("function,reason", [
        ("clampt:3", "use power:A, clampt or const:C"),
        ("const:nan", "const needs a finite number"),
        ("power:", "power needs a finite number"),
        ("power:inf", "power needs a finite number"),
        ("power:-1", "power exponent must be positive"),
        ("bogus:2", "use power:A, clampt or const:C"),
    ])
    def test_bad_function_is_3(self, tmp_path, capsys, function, reason):
        out = tmp_path / "out.csv"
        assert run_cli(["extendnorm", "--function", function, "--p", "2", "--q", "1.1",
                        "--samples", "64", "--k-max", "11", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: --function {function!r}: {reason}")
        assert not out.exists()

    @pytest.mark.parametrize("args,flag,text", [
        (["sweep", "--p", "nan", "--q", "1.3"], "--p", "nan"),
        (["sweep", "--p", "inf", "--q", "1.3"], "--p", "inf"),
        (["sweep", "--p", "2,", "--q", "1.3"], "--p", "2,"),
        (["sweep", "--p", "2", "--q", "1.1,,1.3"], "--q", "1.1,,1.3"),
        (["holder", "--t-values", "0.1,nan"], "--t-values", "0.1,nan"),
    ])
    def test_bad_float_list_is_3(self, tmp_path, capsys, args, flag, text):
        out = tmp_path / "out.csv"
        small = ["--samples", "64", "--k-max", "12"] if args[0] == "sweep" else []
        assert run_cli(args + small + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {text!r}: needs finite numbers")
        assert not out.exists()

    @pytest.mark.parametrize("args,flag", [
        (["classify", "--point", "0.1,0,0"], "--seed"),
        (["reflect", "--scheme", "r1-outer", "--point", "0.1,0,0"], "--samples"),
        (["jacobian", "--scheme", "r1-outer", "--point", "0.1,0,0"], "--k-max"),
        (["verify"], "--k-min"),
        (["verify"], "--k-max"),
        (["verify"], "--samples"),
        (["holder"], "--seed"),
        (["holder"], "--k-max"),
        (["holder"], "--samples"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_unread_flag_is_2(self, tmp_path, capsys, args, flag):
        # each command takes only the flags it reads
        out = tmp_path / "out.csv"
        writes = ["--out", str(out)] if args[0] in ("verify", "holder") else []
        with pytest.raises(SystemExit) as exc:
            run_cli(args + [flag, "9"] + writes)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,text", [
        ("classify", "0.1,,0"),
        ("reflect", "0.1,abc,0"),
        ("jacobian", "0.1,nan,0"),
    ])
    def test_bad_point_is_3(self, capsys, command, text):
        scheme = ["--scheme", "r1"] if command == "classify" else ["--scheme", "r1-outer"]
        assert run_cli([command, *scheme, "--point", text]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: --point {text!r}: needs finite numbers")


def _sweep_rows(tmp_path, args):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", *args, "--out", str(out)]) == 0
    return csv_rows(out)


class TestFaultRegressions:
    def test_deep_shells_stay_convergent(self, tmp_path):
        # |det| on region A underflows to 0 past k ~ 70 at n = 6, s = 4; the
        # log-space reduction keeps these shells finite
        rows = _sweep_rows(tmp_path, ["--scheme", "r1", "--n", "6", "--s", "4", "--p", "30",
                                      "--q", "1.5,5", "--k-max", "80", "--seed", "42"])
        assert len(rows) == 6
        for r in rows:
            assert (r["verdict"], r["agrees"]) == ("Convergent", "true")
            assert math.isfinite(float(r["partial_sum"]))

    @pytest.mark.parametrize("n,s,p,q", [
        ("5", "3", "1.3", "1.25"), ("4", "3", "2.3", "2.25"), ("5", "2", "2.19", "2.14"),
    ])
    def test_region_e_cells_give_verdicts(self, tmp_path, n, s, p, q):
        # r^tilt underflowed to 0 where opnorm^P overflowed: 0 * inf = nan
        rows = _sweep_rows(tmp_path, ["--scheme", "r2", "--n", n, "--s", s, "--p", p,
                                      "--q", q, "--samples", "1024", "--k-max", "26",
                                      "--seed", "42"])
        assert [r["region"] for r in rows] == ["RegionD", "RegionE"]
        assert all(r["agrees"] == "true" for r in rows)
        assert rows[1]["verdict"] == "Divergent"

    def test_region_d_past_float_range(self, tmp_path):
        # e = 4, but at q close to p the shells leave the float range; the
        # verdict reads their logs, while partial_sum may print inf
        rows = _sweep_rows(tmp_path, ["--scheme", "r2", "--p", "30", "--q", "29.95",
                                      "--samples", "256", "--k-max", "26"])
        assert rows[0]["region"] == "RegionD"
        assert (rows[0]["verdict"], rows[0]["agrees"]) == ("Convergent", "true")
        assert float(rows[0]["last_ratio"]) == pytest.approx(2.0**-5)  # 2^-(e+1)

    @pytest.mark.parametrize("q,verdict", [("1.1", "Convergent"), ("1.4", "Divergent")])
    def test_norm_shells_to_k_250(self, tmp_path, q, verdict):
        # lo^p of the sampler's scale law underflowed and put samples at t = 0;
        # past that, measure * mean overflowed to inf and then 0 * inf = nan
        out = tmp_path / "en.csv"
        assert run_cli(["extendnorm", "--scheme", "r1", "--n", "3", "--s", "2",
                        "--function", "power:1.4", "--p", "2", "--q", q, "--samples", "1024",
                        "--k-max", "250", "--out", str(out)]) == 0
        assert "nan" not in out.read_text() + Path(str(out) + ".manifest.json").read_text()
        assert csv_rows(out)[-1]["verdict"] == verdict

    def test_norm_band_exponent_21(self, tmp_path):
        # the cusp window's scale law x^20 underflowed lo^p and hi^p from k ~ 50
        assert run_cli(["extendnorm", "--n", "6", "--s", "4", "--function", "power:0.1",
                        "--p", "2", "--q", "1.1", "--samples", "256", "--k-max", "60",
                        "--out", str(tmp_path / "en.csv")]) == 0

    def test_norm_derivative_past_float_range(self, tmp_path):
        # u' = -4 t^-5 overflows below t ~ 2^-204; the norm terms read its
        # log, so u-norm and the shells stay finite, and q > n/(alpha+1)
        # = 1.2 makes the tail diverge
        out = tmp_path / "en.csv"
        assert run_cli(["extendnorm", "--scheme", "r1", "--n", "6", "--s", "2",
                        "--function", "power:4", "--p", "2.1", "--q", "1.9", "--samples", "256",
                        "--k-max", "250", "--out", str(out)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert math.isfinite(manifest["u_norm"]) and math.isfinite(manifest["ratio"])
        rows = csv_rows(out)
        assert [row["k"] for row in rows] == [str(k) for k in range(5, 251)]
        assert all(math.isfinite(float(row["Lq_grad_term"])) for row in rows)
        assert rows[-1]["verdict"] == manifest["verdict"] == "Divergent"

    def test_norm_grad_t_past_float_range(self, tmp_path):
        # region E's T_r = r^(1/s-1)/s passes 2^512 from k = 171 at s = 4, so
        # T_t^2 + T_r^2 overflowed and made this convergent cell (q < 9/4.5)
        # read Divergent; log hypot(T_t, T_r) stays finite
        out = tmp_path / "en.csv"
        assert run_cli(["extendnorm", "--scheme", "r2", "--n", "3", "--s", "4",
                        "--function", "power:0.5", "--p", "3", "--q", "1.8", "--samples", "256",
                        "--k-max", "250", "--out", str(out)]) == 0
        rows = csv_rows(out)
        assert all(math.isfinite(float(row["Lq_grad_term"])) for row in rows)
        assert rows[-1]["verdict"] == "Convergent"

    def test_scaling_past_det_underflow(self, tmp_path):
        # |det| on region A underflows to 0 before k = 80 at n = 6, s = 4
        out = tmp_path / "scaling.csv"
        assert run_cli(["scaling", "--regions", "A", "--n", "6", "--s", "4", "--k-min", "8",
                        "--k-max", "80", "--samples", "256", "--out", str(out)]) == 0
        rows = csv_rows(out)
        assert float(rows[0]["target_slope"]) == 15.0
        assert float(rows[0]["fitted_slope"]) == pytest.approx(15.0, abs=1e-6)

    def test_region_c_normaliser_past_underflow(self, tmp_path):
        # region C's scale normaliser underflowed to 0 from k = 179 at n = 6,
        # and the weight divided by it
        rows = _sweep_rows(tmp_path, ["--scheme", "r1", "--n", "6", "--s", "2", "--p", "30",
                                      "--q", "1.5", "--samples", "64", "--k-max", "180"])
        assert [r["region"] for r in rows] == ["RegionA", "RegionB", "RegionC"]
        assert all(r["agrees"] == "true" for r in rows)


class TestSweep:
    def test_explicit_cells_and_agreement(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--scheme", "r1", "--p", "2", "--q", "1.0,1.1,1.3,1.5",
                        "--samples", "1024", "--k-max", "26", "--out", str(out)]) == 0
        rows = csv_rows(out)
        assert [r["region"] for r in rows[:3]] == ["RegionA", "RegionB", "RegionC"]
        header = csv_header(out)
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
        rows = csv_rows(out)
        assert all(r["admissible_theory"] == "true" for r in rows)  # 1.3 < 10/7

    def test_q_at_least_p_yields_window_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(["sweep", "--scheme", "r1", "--p", "2", "--q", "2.0,2.5",
                 "--out", str(out)])
        rows = csv_rows(out)
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

    def test_one_parser_serves_every_command(self, tmp_path):
        # the parser is built once per process: an extendnorm run, the
        # default sweep and the same extendnorm again each see their own
        # flags only, as a freshly built parser gives them
        assert cli.build_parser() is cli.build_parser()
        a, b, sweep = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "sweep.csv"
        args = ["extendnorm", "--scheme", "r2", "--function", "clampt", "--n", "4",
                "--s", "1.5", "--p", "3", "--q", "2", "--samples", "256", "--k-max", "12",
                "--seed", "9"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(["sweep", "--out", str(sweep)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        fresh = vars(cli.build_parser.__wrapped__().parse_args(["sweep", "--out", str(sweep)]))
        del fresh["command"], fresh["func"]
        manifest = json.loads(Path(str(sweep) + ".manifest.json").read_text())
        assert manifest["flags"] == fresh

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
        rows = csv_rows(out)
        assert rows[0]["region"] == "RegionA"
        assert float(rows[0]["fitted_slope"]) == pytest.approx(2.0, abs=1e-9)
        assert float(rows[0]["target_slope"]) == 2.0

    def test_header(self, tmp_path):
        out = tmp_path / "scaling.csv"
        run_cli(["scaling", "--regions", "D", "--samples", "256", "--out", str(out)])
        assert csv_header(out) == "region,scale,opnorm,abs_det,fitted_slope,target_slope"


class TestExtendnorm:
    def test_divergent_case(self, tmp_path, capsys):
        out = tmp_path / "en.csv"
        run_cli(["extendnorm", "--function", "power:1.4", "--p", "2", "--q", "1.3",
                 "--samples", "1024", "--out", str(out)])
        rows = csv_rows(out)
        assert rows[-1]["verdict"] == "Divergent"
        assert csv_header(out) == "shell,k,Lq_value_term,Lq_grad_term,partial,verdict"

    def test_convergent_case(self, tmp_path):
        out = tmp_path / "en.csv"
        run_cli(["extendnorm", "--function", "power:1.4", "--p", "2", "--q", "1.1",
                 "--samples", "1024", "--out", str(out)])
        rows = csv_rows(out)
        assert rows[-1]["verdict"] == "Convergent"

    def test_zero_function_ratio_is_zero(self, tmp_path, capsys):
        # the extension of 0 is 0: the ratio 0/0 reads 0, not inf
        out = tmp_path / "en.csv"
        assert run_cli(["extendnorm", "--function", "const:0", "--p", "2", "--q", "1.1",
                        "--samples", "64", "--k-max", "12", "--out", str(out)]) == 0
        assert "(u-norm 0, ratio 0)" in capsys.readouterr().out
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert (manifest["ratio"], manifest["u_norm"]) == (0.0, 0.0)


class TestHolder:
    def test_csv_and_exponent(self, tmp_path):
        out = tmp_path / "holder.csv"
        run_cli(["holder", "--s", "2", "--out", str(out)])
        rows = csv_rows(out)
        assert csv_header(out) == "t,osc,diam,fitted_exponent"
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

    def test_no_region_e_pair_exits_3(self, tmp_path, capsys):
        # at n = 6, s = 4 every q on region E's singular side stays within
        # 0.05 of q_max up to p = 6, so the exponent check has no pair to draw
        out = tmp_path / "verify.csv"
        assert run_cli(["verify", "--n", "6", "--s", "4", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: RegionE has no exponent pair with e in [-0.9, -0.35) and "
            "1 <= q < q_max - 0.05 at n=6, s=4\n")
        assert not out.exists()

    def test_rare_region_e_pairs_raise_window_error(self):
        import cuspreflect.checks as checks

        with pytest.raises(WindowError, match="could not draw 4 in-window pairs for RegionE "
                                              "at n=6, s=3.6 in 800 attempts"):
            checks.check_shell_exponent_match(cuspreflect.CuspParams(6, 3.6), 4, 11, 16)

    def test_manifest_times_every_check(self, tmp_path):
        import cuspreflect.checks as checks

        out = tmp_path / "verify.csv"
        assert run_cli(["verify", "--out", str(out)]) == 0
        assert csv_header(out) == "name,samples,worst_error,threshold,pass"
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        names = {name for name in dir(checks) if name.startswith("check_")}
        assert set(manifest["check_s"]) == names
        assert all(seconds >= 0.0 for seconds in manifest["check_s"].values())
        assert sum(manifest["check_s"].values()) <= manifest["wall_time_s"] + 0.01
