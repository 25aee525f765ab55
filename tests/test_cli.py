import csv
import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import force_split, negate_entry, package_env, spy_draws

import cuspreflect
import cuspreflect.reflections as refl
from cuspreflect import cli
from cuspreflect.cli import f12, main
from cuspreflect.errors import WindowError


def run_cli(args):
    # in-process invocation keeps the suite fast; exit-code tests go
    # through a real subprocess below
    return main(args)


def strict_json(text: str):
    """Parse JSON text as RFC 8259 JSON: the bare constants NaN, Infinity and
    -Infinity raise."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(autouse=True)
def manifests_are_strict_json(tmp_path):
    """Every manifest a test of this module writes under its tmp_path parses
    as strict JSON."""
    yield
    for path in tmp_path.rglob("*.manifest.json"):
        strict_json(path.read_text())


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

    @pytest.mark.parametrize("regions", ["", "A,", " "])
    def test_scaling_empty_region_is_3(self, tmp_path, capsys, regions):
        # an empty --regions is not "all regions"
        out = tmp_path / "out.csv"
        assert run_cli(["scaling", "--regions", regions, "--samples", "64", "--k-min", "8",
                        "--k-max", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: unknown region '' in --regions (use A,B,C,D,E)\n")
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

    @pytest.mark.parametrize("command,scheme,q", [
        ("sweep", "r1", "1.5"),
        pytest.param("sweep", "r2", "1.5", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="from k = 537 at s = 2 region E's band edge xi^s underflows to 0, "
                   "its tilted radii can too, and its integrand reads nan there")),
        ("extendnorm", "r1", "1.1"),
        ("extendnorm", "r2", "1.1"),
    ])
    def test_deepest_normal_shell_runs(self, tmp_path, command, scheme, q):
        # 2^-(k+1) is a normal float up to k = 1021, the deepest shell
        assert run_cli([command, "--scheme", scheme, "--p", "2", "--q", q, "--k-min", "1016",
                        "--k-max", "1021", "--out", str(tmp_path / "deep.csv")]) == 0

    @pytest.mark.parametrize("scheme", ["r1", "r2"])
    @pytest.mark.parametrize("command", ["sweep", "extendnorm"])
    def test_shell_past_the_normal_floats_is_3(self, tmp_path, monkeypatch, capsys, command,
                                              scheme):
        # past k = 1021 a shell's edge 2^-(k+1) is subnormal: refused before any draw
        draws = spy_draws(monkeypatch)
        assert run_cli([command, "--scheme", scheme, "--p", "2", "--q", "1.5", "--k-min",
                        "1017", "--k-max", "1022", "--out", str(tmp_path / "deep.csv")]) == 3
        assert ("shell index must be <= 1021, the last shell whose edge 2^-(k+1) is a "
                "normal float, got 1022") in capsys.readouterr().err
        assert draws == []


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

    def test_invalid_cells_alone_draw_nothing(self, tmp_path, monkeypatch):
        # three WindowError rows, in the bytes they always had, and no shell
        # drawn for the empty list of valid cells
        force_split(monkeypatch, False)
        draws = spy_draws(monkeypatch)
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--p", "2", "--q", "3", "--out", str(out)]) == 0
        assert draws == []
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "232753a8794f6df37c8c1e94a78f0fc5b68e10157824e0d86f48e83554a3621b")

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


# sha256 of the CSVs of small `sweep` and `extendnorm` commands: any change
# to the shell loops that moves a bit of their output changes a digest.
_PINNED_CSVS = {
    "sweep-r1": (["sweep", "--scheme", "r1", "--grid", "3", "--samples", "256"],
                 "aea702cbd2ad7c3d5a8b087a20ed06b6313549663952a0d5a00ef4015075baaf"),
    "sweep-r2": (["sweep", "--scheme", "r2", "--grid", "3", "--samples", "256"],
                 "82270a676ab1f35699e26db40c1cb7350be27557a94090cc327e61b2156cae9b"),
    "extendnorm-r1-power": (["extendnorm", "--scheme", "r1", "--function", "power:0.3",
                             "--p", "2", "--q", "1.1", "--samples", "256", "--k-max", "16"],
                            "2e534eb31523e7f403ecd70c327cd061a7c6c9a1562810745f378f3a37764ae0"),
    "extendnorm-r2-clampt": (["extendnorm", "--scheme", "r2", "--function", "clampt",
                              "--p", "3", "--q", "2", "--samples", "256", "--k-max", "16"],
                             "39d84c28c9e351fd10d390e6b5302bdaad5858e2d5677676899d7244f55416a8"),
    "verify": (["verify"],
               "382e22d90fa7a6a7066058da48487607cfad1c0db6991d146f5e49135dbc9565"),
    "scaling": (["scaling", "--samples", "256"],
                "7f7e485a4954922a0f749a55454b49e68d6b5d3e0c9a6fbab3f0f7e4a2831d1c"),
    "holder": (["holder"],
               "daa69d3c59fcbcde658fa46918a75f5dd60d9d1c04a4c01d1a2a2b379095805a"),
}


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("name", sorted(_PINNED_CSVS))
def test_pinned_csv_digests(tmp_path, monkeypatch, name, split):
    # the same bytes with the shells on one process and split over two
    args, digest = _PINNED_CSVS[name]
    force_split(monkeypatch, split)
    out = tmp_path / f"{name}.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if args[0] in ("sweep", "extendnorm"):  # the commands that run shell loops
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["processes"] == 1 + split


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

    def test_manifest_writes_non_finite_floats_as_strings(self, tmp_path):
        # the logs of the zero norms are -inf: strict JSON has no token for
        # them, so the manifest writes the strings "inf", "-inf" and "nan"
        out = tmp_path / "en.csv"
        assert run_cli(["extendnorm", "--function", "const:0", "--p", "2", "--q", "1.1",
                        "--samples", "64", "--k-max", "12", "--out", str(out)]) == 0
        manifest = strict_json(Path(str(out) + ".manifest.json").read_text())
        assert manifest["log_u_norm"] == manifest["log_ext_norm"] == "-inf"
        assert float(manifest["log_u_norm"]) == -math.inf
        assert cli._finite_json({"a": [math.inf, -math.inf, math.nan], "b": (1.0, "x")}) == {
            "a": ["inf", "-inf", "nan"], "b": [1.0, "x"]}

    def test_norm_past_float_range_reads_its_log(self, tmp_path, capsys):
        # at n = 200 the norm of u underflows to 0: the manifest carries the
        # logs of both norms, and the summary prints the norm as exp(log)
        out = tmp_path / "en.csv"
        assert run_cli(["extendnorm", "--n", "200", "--p", "2", "--q", "1.2",
                        "--samples", "256", "--out", str(out)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["u_norm"] == 0.0
        assert math.isfinite(manifest["log_u_norm"]) and math.isfinite(manifest["log_ext_norm"])
        assert manifest["ratio"] == pytest.approx(
            math.exp(manifest["log_ext_norm"] - manifest["log_u_norm"]), rel=1e-12)
        printed = capsys.readouterr().out
        assert f"(u-norm exp({f12(manifest['log_u_norm'])}), ratio " in printed


class TestTooFewShells:
    """A shell range too short for a verdict is refused before any draw, with
    the error the verdict raises."""

    @pytest.mark.parametrize("args", [
        ["sweep", "--p", "3", "--q", "1.5"],
        ["extendnorm", "--p", "2", "--q", "1.2"],
    ], ids=["sweep", "extendnorm"])
    def test_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, args):
        force_split(monkeypatch, False)
        draws = spy_draws(monkeypatch)
        assert run_cli(args + ["--k-min", "5", "--k-max", "8", "--samples", "64",
                               "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == "error: need at least 6 shells, got 4\n"
        assert draws == []

    def test_window_errors_keep_precedence(self, tmp_path, capsys):
        # extendnorm: the membership check speaks first; sweep: a grid of
        # invalid cells alone still writes its WindowError rows
        assert run_cli(["extendnorm", "--function", "power:5", "--p", "2", "--q", "1.2",
                        "--k-max", "8", "--out", str(tmp_path / "e.csv")]) == 3
        assert "is not W^(1,2.0)" in capsys.readouterr().err
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--p", "1.5", "--q", "2", "--k-max", "8", "--samples", "64",
                        "--out", str(out)]) == 0
        assert {row["verdict"] for row in csv_rows(out)} == {"WindowError"}


class TestEmptyAcceptanceGrid:
    """Where 1.1 p_min exceeds 6 (at n = 3 under the first reflection for
    s > 7.68) the acceptance grid has no p: `sweep` and `verify` refuse it
    before any draw."""

    @pytest.mark.parametrize("args,low", [
        (["sweep", "--s", "12"], "9.16667"),
        (["verify", "--s", "12"], "9.16667"),
        (["sweep", "--s", "1e308"], "inf"),
    ], ids=["sweep", "verify", "sweep-huge-s"])
    def test_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, args, low):
        draws = spy_draws(monkeypatch)
        out = tmp_path / "o.csv"
        assert run_cli(args + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: the acceptance grid needs 1.1 p_min <= 6, got {low} on R1\n")
        assert draws == [] and not out.exists()

    def test_second_reflection_sweeps(self, tmp_path):
        # its p_min (1 + 2s)/(2 + s) stays below 2 at n = 3
        out = tmp_path / "o.csv"
        assert run_cli(["sweep", "--scheme", "r2", "--s", "12", "--grid", "3", "--samples",
                        "64", "--k-max", "12", "--out", str(out)]) == 0
        assert len(csv_rows(out)) == 18


class TestLargeDimension:
    """From n = 343 the gamma in the unit-ball volume c_{n-1} overflows, and
    from n = 200 region volumes underflow: no command may crash on it."""

    @pytest.mark.parametrize("args", [
        ["sweep", "--p", "3", "--q", "1.5", "--samples", "64"],
        ["extendnorm", "--p", "2", "--q", "1.2", "--samples", "64"],
        ["scaling", "--samples", "64"],
        ["verify"],
    ], ids=["sweep", "extendnorm", "scaling", "verify"])
    def test_n_400_exits_without_traceback(self, tmp_path, args):
        proc = subprocess.run(
            [sys.executable, "-m", "cuspreflect", *args, "--n", "400",
             "--out", str(tmp_path / "o.csv")],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode in (0, 1, 3), proc.stderr
        assert "Traceback" not in proc.stderr


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

    def test_n_200_warns_nothing(self, tmp_path, capsys):
        # the signed det overflows past n ~ 100 and reads -inf without a numpy
        # RuntimeWarning (an error under this suite's warning filter); the run
        # then stops at region E's exponent check, with its documented exit 3
        out = tmp_path / "verify.csv"
        assert run_cli(["verify", "--n", "200", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: RegionE has no exponent pair with e in [-0.9, -0.35) and "
            "1 <= q < q_max - 0.05 at n=200, s=2\n")

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
