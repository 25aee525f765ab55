import copy
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    brute_shell_integral,
    children,
    force_split,
    gone,
    hex_sums,
    package_env,
    plant_nan_on_shells,
    spy_draws,
    spy_rng,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspreflect import checks, extension, geometry, reflections, sobolev
from cuspreflect.errors import EmptyRegionError, WindowError
from cuspreflect.extension import (
    ClampT,
    Constant,
    Direction,
    ExtensionSpec,
    PowerAlpha,
    extension_norm_experiment,
)
from cuspreflect.geometry import ChartId, CuspParams, RegionLabel, Shell, shells
from cuspreflect.sobolev import (
    ShellSum,
    convergence_verdict,
    distortion_integral,
    distortion_sweeps,
    dual_exponent,
    dual_exponent_inverse,
    p_min_r1,
    p_min_r2,
    p_star,
    predicted_shell_exponent,
    q_max_r1,
    q_max_r2,
    qmax_crossing,
    scaling_fit,
    sobolev_seminorm,
)


class TestWindows:
    def test_q_max_r1(self):
        assert q_max_r1(2.0, 3, 2.0) == pytest.approx(1.2, rel=1e-15)
        assert p_min_r1(3, 2.0) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_q_max_r2(self):
        assert q_max_r2(2.0, 3, 2.0) == pytest.approx(10.0 / 7.0, rel=1e-15)
        assert p_min_r2(3, 2.0) == pytest.approx(1.25, rel=1e-15)

    def test_out_of_window_rejected(self):
        with pytest.raises(WindowError):
            q_max_r1(1.5, 3, 2.0)
        with pytest.raises(WindowError):
            q_max_r2(1.2, 3, 2.0)

    def test_scheme_dispatch(self):
        assert sobolev.q_max("r1", 2.0, 3, 2.0) == q_max_r1(2.0, 3, 2.0)
        assert sobolev.q_max("R2", 2.0, 3, 2.0) == q_max_r2(2.0, 3, 2.0)
        assert sobolev.p_min("R1", 3, 2.0) == p_min_r1(3, 2.0)
        assert sobolev.p_min("r2", 3, 2.0) == p_min_r2(3, 2.0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme must be 'R1' or 'R2', got 'R3'"):
            sobolev.q_max("R3", 2.0, 3, 2.0)
        with pytest.raises(ValueError, match="got 'R3'"):
            sobolev.p_min("R3", 3, 2.0)

    @pytest.mark.parametrize("n,s,expect", [(3, 2.0, 10.0 / 3.0), (4, 3.0, 7.5)])
    def test_p_star(self, n, s, expect):
        assert p_star(n, s) == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_curves_meet_at_p_star(self, n, s):
        ps = p_star(n, s)
        assert q_max_r1(ps, n, s) == pytest.approx(n - 1, abs=1e-12)
        assert q_max_r2(ps, n, s) == pytest.approx(n - 1, abs=1e-12)
        assert qmax_crossing(n, s) == pytest.approx(ps, abs=1e-9)

    def test_monotone_shapes(self):
        n, s = 3, 2.0
        ps = np.linspace(1.8, 30.0, 200)
        q1 = [q_max_r1(p, n, s) for p in ps]
        q2 = [q_max_r2(p, n, s) for p in ps]
        assert all(b > a for a, b in zip(q1, q1[1:]))
        assert all(b > a for a, b in zip(q2, q2[1:]))
        d2 = np.diff(q2, 2)
        assert np.all(d2 < 1e-12)  # concave
        assert max(q2) < sobolev.q_max_asymptote_r2(n, s)


class TestDual:
    def test_values(self):
        assert dual_exponent(4.0, 3) == pytest.approx(2.0, rel=1e-15)
        assert dual_exponent(3.0, 3) == pytest.approx(3.0, rel=1e-15)  # self-dual at p = n

    def test_window(self):
        with pytest.raises(WindowError):
            dual_exponent(2.0, 3)
        with pytest.raises(WindowError):
            dual_exponent(1.0, 4)

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([3, 4, 5]), ex=st.floats(-5.0, 4.0))
    def test_moebius_round_trip(self, n, ex):
        p = (n - 1) + 10.0**ex
        d = dual_exponent(p, n)
        assert dual_exponent_inverse(d, n) == pytest.approx(p, rel=1e-12)

    def test_blows_up_at_window_edge(self):
        assert dual_exponent(3 - 1 + 1e-9, 3) > 1e8


class TestPredictedExponent:
    def test_region_a(self):
        assert predicted_shell_exponent(RegionLabel.RegionA, 2.0, 1.0, 3, 2.0) == pytest.approx(0.0)
        assert predicted_shell_exponent(RegionLabel.RegionA, 2.0, 1.5, 3, 2.0) == pytest.approx(-4.0)

    def test_region_e(self):
        got = predicted_shell_exponent(RegionLabel.RegionE, 2.0, 1.4, 3, 2.0)
        assert got == pytest.approx(-2.0 / 3.0, rel=1e-12)

    def test_region_d_volume_exponent(self):
        assert predicted_shell_exponent(RegionLabel.RegionD, 5.0, 2.0, 3, 2.0) == pytest.approx(4.0)

    def test_window_error(self):
        with pytest.raises(WindowError):
            predicted_shell_exponent(RegionLabel.RegionA, 2.0, 2.0, 3, 2.0)

    @pytest.mark.parametrize("region,scheme", [
        (RegionLabel.RegionA, "R1"), (RegionLabel.RegionB, "R1"), (RegionLabel.RegionC, "R1"),
        (RegionLabel.RegionE, "R2"),
    ])
    def test_criticality_matches_q_max(self, region, scheme):
        # e crosses -1 exactly on the critical curve
        for n, s, p in [(3, 2.0, 2.0), (4, 1.5, 3.0), (3, 3.0, 5.0)]:
            qm = sobolev.q_max(scheme, p, n, s)
            assert predicted_shell_exponent(region, p, qm, n, s) == pytest.approx(-1.0, abs=1e-12)


def shell_sum_of(ks, values) -> ShellSum:
    """The shell sum of float contributions (0 gives an empty shell)."""
    with np.errstate(divide="ignore"):
        return ShellSum(ks, np.log(values))


class TestShellSumVerdict:
    def _sum_from_ratio(self, ratio, n=12, first=1.0):
        vals = [first * ratio**i for i in range(n)]
        return shell_sum_of(range(5, 5 + n), vals)

    def test_convergent(self):
        assert convergence_verdict(self._sum_from_ratio(0.5)).kind == "Convergent"

    def test_divergent(self):
        assert convergence_verdict(self._sum_from_ratio(8.0)).kind == "Divergent"

    def test_inconclusive(self):
        assert convergence_verdict(self._sum_from_ratio(0.95)).kind == "Inconclusive"

    def test_zero_sum_converges(self):
        ss = shell_sum_of(range(5, 15), [0.0] * 10)
        assert convergence_verdict(ss).kind == "Convergent"

    def test_huge_convergent_sum_stays_convergent(self):
        # decaying tail beats the partial-sum cap
        assert convergence_verdict(self._sum_from_ratio(0.03, first=1e60)).kind == "Convergent"

    def test_cap_triggers_on_nondecaying_sum(self):
        vals = [4e11, 4e11, 4e11, 3.9e11, 4e11, 3.92e11, 4e11]
        assert convergence_verdict(shell_sum_of(range(7), vals)).kind == "Divergent"

    def test_needs_six_shells(self):
        with pytest.raises(ValueError):
            convergence_verdict(shell_sum_of(range(5), [1.0] * 5))

    def test_partial_sums_monotone(self):
        ss = self._sum_from_ratio(0.7)
        assert all(b >= a for a, b in zip(ss.partial_sums, ss.partial_sums[1:]))


class TestDistortionIntegral:
    def test_region_a_shell_widths(self, params):
        # e = 0: contributions proportional to shell width, ratios -> 1/2
        ss = distortion_integral(params, ChartId.R1Outer, RegionLabel.RegionA,
                                 2.0, 1.0, shells(5, 30), 4096, 42)
        assert all(abs(r - 0.5) < 0.02 for r in ss.ratios[-6:])
        assert convergence_verdict(ss).kind == "Convergent"

    def test_region_a_divergent_rate(self, params):
        # e = -4: contributions grow by 8 per shell
        ss = distortion_integral(params, ChartId.R1Outer, RegionLabel.RegionA,
                                 2.0, 1.5, shells(5, 30), 4096, 42)
        assert all(r > 7.5 for r in ss.ratios[-6:])
        assert convergence_verdict(ss).kind == "Divergent"

    def test_region_d_constant_integrand(self, params):
        # integrand is the constant 2^((n-1)q/(p-q)); contributions are
        # exactly that constant times the shell volume
        from cuspreflect.geometry import shell_measure

        p, q = 2.0, 1.3
        const = 2.0 ** (2.0 * q / (p - q))
        ss = distortion_integral(params, ChartId.R2Outer, RegionLabel.RegionD,
                                 p, q, shells(5, 12), 512, 42)
        for k in ss.ks:
            expect = const * shell_measure(params, RegionLabel.RegionD, Shell(k))
            assert ss.contributions[k] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("region,chart,p,q", [
        (RegionLabel.RegionA, ChartId.R1Outer, 2.0, 1.1),
        (RegionLabel.RegionB, ChartId.R1Outer, 2.0, 1.1),
        (RegionLabel.RegionC, ChartId.R1Outer, 3.0, 1.4),
        (RegionLabel.RegionE, ChartId.R2Outer, 2.0, 1.3),
    ])
    def test_against_brute_force(self, params, region, chart, p, q):
        # independent dense-quadrature oracle per shell
        P, Q = p * q / (p - q), q / (p - q)

        def f(t, r):
            _, _, opnorm, det = reflections.profile_jet(region, params, t, r)
            return opnorm**P / np.abs(det) ** Q

        ss = distortion_integral(params, chart, region, p, q, shells(4, 8), 16384, 42)
        for k in (4, 6, 8):
            oracle = brute_shell_integral(params, region, k, f, 300, 600, log_radial=True)
            assert ss.contributions[k] == pytest.approx(oracle, rel=5e-3)

    def test_chart_region_mismatch(self, params):
        with pytest.raises(ValueError):
            distortion_integral(params, ChartId.R1Outer, RegionLabel.RegionD,
                                2.0, 1.1, shells(5, 12))

    def test_window_error(self, params):
        with pytest.raises(WindowError):
            distortion_integral(params, ChartId.R1Outer, RegionLabel.RegionA,
                                2.0, 2.5, shells(5, 12))

    def test_determinism(self, params):
        a = distortion_integral(params, ChartId.R1Outer, RegionLabel.RegionB,
                                2.0, 1.1, shells(5, 10), 256, 99)
        b = distortion_integral(params, ChartId.R1Outer, RegionLabel.RegionB,
                                2.0, 1.1, shells(5, 10), 256, 99)
        assert a.contributions == b.contributions

    def test_extreme_exponents_overflow_to_divergent(self, params):
        # q near p drives the radial tilt past the float-safe cap; the
        # contributions overflow to inf rather than NaN and classify Divergent
        ss = distortion_integral(params, ChartId.R2Outer, RegionLabel.RegionE,
                                 6.0, 5.95, shells(5, 30), 1024, 42)
        assert convergence_verdict(ss).kind == "Divergent"
        assert not any(math.isnan(v) for v in ss.contributions.values())


def reference_distortion(params, region, p, q, shl, samples, seed):
    """The pow-form per-cell shell loop that `distortion_sweeps` replaced: one
    `shell_estimate` per shell, with opnorm^P / |det|^Q evaluated as floats
    inside the integrand, which returns its log."""
    P, Q = p * q / (p - q), q / (p - q)
    s = params.s
    tilt = (s - 1.0) * p * q / (s * (p - q)) if region is RegionLabel.RegionE else 0.0

    def integrand(prof):
        _, _, opnorm, det = reflections.profile_jet(region, params, prof.t, prof.r)
        return np.log(opnorm**P / np.abs(det) ** Q)

    logs = [sobolev.shell_estimate(params, region, [sh], [(integrand, tilt)], samples, seed,
                                   "dist")[0][0]
            for sh in shl]
    with np.errstate(over="ignore"):
        return np.exp(logs).tolist()


_SWEEP_REGIONS = [
    (RegionLabel.RegionA, ChartId.R1Outer, "R1"),
    (RegionLabel.RegionB, ChartId.R1Outer, "R1"),
    (RegionLabel.RegionC, ChartId.R1Outer, "R1"),
    (RegionLabel.RegionD, ChartId.R2Outer, "R2"),
    (RegionLabel.RegionE, ChartId.R2Outer, "R2"),
]


def _plant_nan(monkeypatch):
    """Make `profile_log_jet` return a nan in its first log opnorm."""
    jet = reflections.profile_log_jet

    def planted(label, prm, t, r):
        log_opnorm, log_absdet = jet(label, prm, t, r)
        log_opnorm = log_opnorm.copy()
        log_opnorm.flat[0] = np.nan
        return log_opnorm, log_absdet

    monkeypatch.setattr(reflections, "profile_log_jet", planted)


def _only_the_worker_left():
    """No child but the shell worker after a call, and none at all once the
    worker is stopped."""
    worker = sobolev._worker
    assert children() == ({worker.pid} if worker else set())
    sobolev._stop_worker()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDistortionSweep:
    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5)])
    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_matches_per_cell_loop_exactly(self, n, s, region, chart, scheme):
        # 25 cells of 1024 samples reduce in blocks of 8, 8, 8 and 1; each
        # cell equals its one-cell run bit for bit
        params = CuspParams(n, s)
        cells = checks.sweep_grid(params, scheme, grid=5)
        shl = shells(5, 12)
        sums = distortion_sweeps(params, chart, [region], cells, shl, 1024, 7)[0]
        assert len(sums) == len(cells)
        assert len(cells) * 1024 > 3 * sobolev.BLOCK_VALUES
        for (p, q), ss in zip(cells, sums):
            one = distortion_integral(params, chart, region, p, q, shl, 1024, 7)
            assert ss.contributions == one.contributions
            assert ss.ks == [sh.k for sh in shl]

    def test_region_c_masses_made_once_per_region(self, monkeypatch):
        # region C's measures and proposal masses are one power-integral
        # call per region, in the sweep and in the norm shells alike
        from cuspreflect import geometry

        params = CuspParams(4, 1.5)
        region, shl = RegionLabel.RegionC, shells(5, 12)
        calls = []
        norm = geometry._log_power_norm
        monkeypatch.setattr(geometry, "_log_power_norm",
                            lambda *args: calls.append(args) or norm(*args))
        distortion_sweeps(params, ChartId.R1Outer, [region], [(3.0, 1.5)], shl, 64, 7)
        sobolev_seminorm(params, PowerAlpha(0.3), region, 2.0, shl, 64, 7)
        assert len(calls) == 2

    def test_special_cased_power_matches_within_ulps(self):
        # the (3, 2) cell tilts region E by 3, so its `_power_icdf` exponent
        # is -1, which numpy rounds differently in a one-cell column than in
        # a longer one: equal to the one-cell run within a few ulps, not bit
        # for bit
        params = CuspParams(3, 2.0)
        cells = [(2.5, 1.5), (3, 2), (4, 1.2)]
        shl = shells(5, 26)
        sums = distortion_sweeps(params, ChartId.R2Outer, [RegionLabel.RegionE], cells, shl,
                                 256, seed=7)[0]
        one = distortion_integral(params, ChartId.R2Outer, RegionLabel.RegionE, 3, 2, shl, 256,
                                  seed=7)
        gap = np.abs(sums[1].log_contributions - one.log_contributions)
        assert 0.0 < np.max(gap) <= 1e-14

    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5)])
    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_agrees_with_pow_form_loop(self, n, s, region, chart, scheme):
        # the log-space reduction against the pow-form loop it replaced, on
        # the shells where the pow form is finite and nonzero
        params = CuspParams(n, s)
        cells = checks.sweep_grid(params, scheme, grid=3)
        shl = shells(5, 12)
        sums = distortion_sweeps(params, chart, [region], cells, shl, 256, 7)[0]
        compared = 0
        for (p, q), ss in zip(cells, sums):
            ref = reference_distortion(params, region, p, q, shl, 256, 7)
            for k, want in zip(ss.ks, ref):
                if math.isfinite(want) and want != 0.0:
                    assert ss.contributions[k] == pytest.approx(want, rel=1e-10, abs=0.0)
                    compared += 1
        assert compared >= len(cells) * len(shl) // 2

    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_nan_in_log_jet_raises_on_first_draw(self, monkeypatch, params, region, chart,
                                                 scheme):
        _plant_nan(monkeypatch)
        calls = spy_rng(monkeypatch)
        cells = checks.sweep_grid(params, scheme, grid=3)
        with pytest.raises(sobolev.NonFiniteIntegrandError, match=f"{region.value}, shell 5"):
            distortion_sweeps(params, chart, [region], cells, shells(5, 10), 64, 3)
        assert calls == [(3, 5, region, "dist")]

    def test_nan_exits_3(self, monkeypatch, tmp_path, capsys):
        from cuspreflect.cli import main

        _plant_nan(monkeypatch)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--p", "2", "--q", "1.1", "--samples", "64", "--k-max", "12",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: non-finite integrand values on RegionA")
        assert not out.exists()

    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_one_draw_per_region_and_shell(self, monkeypatch, params, region, chart, scheme):
        # the serial path: one allowed CPU
        cells = checks.sweep_grid(params, scheme, grid=7)
        force_split(monkeypatch, False)
        calls = spy_rng(monkeypatch)
        distortion_sweeps(params, chart, [region], cells, shells(5, 12), 1024, 3)
        assert calls == [(3, k, region, "dist") for k in range(5, 13)]

    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_every_draw_goes_through_sample_profile(self, monkeypatch, params, region, chart,
                                                    scheme):
        # one `sample_profile` call per shell, region E's tilted blocks too
        cells = checks.sweep_grid(params, scheme, grid=7)
        force_split(monkeypatch, False)
        draws = spy_draws(monkeypatch)
        distortion_sweeps(params, chart, [region], cells, shells(5, 12), 1024, 3)
        assert [(label, k) for label, k, _ in draws] == [(region, k) for k in range(5, 13)]

    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_split_draws_the_even_shells_here(self, monkeypatch, params, region, chart,
                                              scheme):
        # the split path: this process draws the even shells, once each, and
        # the forked child the odd ones, which a spy here cannot see; the
        # sums equal the serial run's bit for bit
        cells = checks.sweep_grid(params, scheme, grid=7)
        shl = shells(5, 12)
        force_split(monkeypatch, False)
        serial = distortion_sweeps(params, chart, [region], cells, shl, 1024, 3)[0]
        force_split(monkeypatch, True)
        calls = spy_rng(monkeypatch)
        split = distortion_sweeps(params, chart, [region], cells, shl, 1024, 3)[0]
        assert calls == [(3, k, region, "dist") for k in range(5, 13, 2)]
        assert hex_sums(split) == hex_sums(serial)

    def test_rejects_invalid_cell(self, params):
        with pytest.raises(WindowError):
            distortion_sweeps(params, ChartId.R1Outer, [RegionLabel.RegionA],
                              [(2.0, 1.1), (2.0, 2.5)], shells(5, 12))


class TestShellSplit:
    """`distortion_sweeps` with its shells split with the shell worker against
    the serial loop: the same bits, the same first error, no child but the
    worker left."""

    def test_serial_loops_read_one_process(self, monkeypatch, params):
        # with the worker running, a loop of one shell, beside another
        # thread, of other code's integrands or on one CPU runs serially;
        # without it, so does a loop below FORK_VALUES
        def sweep(k_max=12):
            return distortion_sweeps(params, ChartId.R1Outer, [RegionLabel.RegionB],
                                     [(2.0, 1.1)], shells(5, k_max), 64, 3)[0][0].processes

        force_split(monkeypatch, True)
        assert sweep() == 2 and sobolev._worker is not None
        assert sweep(k_max=5) == 1  # one shell
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:  # no split beside another thread
            assert sweep() == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        terms = [(partial(_scaled_log, 2.0), 0.0)]  # an integrand of other code
        assert sobolev.function_shell_loops(params, [(RegionLabel.CuspInterior, terms, "semi")],
                                            shells(5, 12), 64, 7)[0][0].processes == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert sweep() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert sweep() == 1
        _only_the_worker_left()
        # no worker, and the loop's 1 x 8 x 64 values below FORK_VALUES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sobolev, "_unsplit_values", 0)
        monkeypatch.setattr(sobolev, "FORK_VALUES", 513)
        assert sweep() == 1 and sobolev._worker is None and children() == set()

    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_small_loop_splits_with_the_worker_running(self, monkeypatch, params, region,
                                                       chart, scheme):
        # 1 cell x 7 shells x 64 samples = 448 values, split bit for bit by the
        # running worker though far below FORK_VALUES
        args = (params, chart, [region], [(3.0, 1.5)], shells(5, 11), 64, 3)
        force_split(monkeypatch, False)
        want = hex_sums(distortion_sweeps(*args)[0])
        force_split(monkeypatch, True)
        distortion_sweeps(*args)  # forks the worker
        monkeypatch.setattr(sobolev, "FORK_VALUES", math.inf)
        sums = distortion_sweeps(*args)[0]
        assert sums[0].processes == 2 and hex_sums(sums) == want
        _only_the_worker_left()

    @pytest.mark.parametrize("k_max", [12, 11, 5])
    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_split_is_bit_identical(self, monkeypatch, params, region, chart, scheme, k_max):
        # even, odd and single shell counts; serial by one CPU and by a
        # FORK_VALUES that no loop reaches
        cells = checks.sweep_grid(params, scheme, grid=3)
        shl = shells(5, k_max)
        runs = []
        for split, fork_values in [(True, 0), (False, 0), (True, math.inf)]:
            force_split(monkeypatch, split)
            monkeypatch.setattr(sobolev, "FORK_VALUES", fork_values)
            sums = distortion_sweeps(params, chart, [region], cells, shl, 256, 5)[0]
            runs.append((hex_sums(sums), {ss.processes for ss in sums}))
            _only_the_worker_left()
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert [processes for _, processes in runs] == [{1 + (k_max > 5)}, {1}, {1}]

    @pytest.mark.parametrize("planted,first", [
        ({8}, 8),      # an odd shell: the child meets it
        ({7}, 7),      # an even shell: this process meets it
        ({8, 9}, 8),   # the child's shell comes first
        ({7, 8}, 7),   # this process's shell comes first
    ])
    def test_first_error_matches_serial(self, monkeypatch, params, planted, first):
        plant_nan_on_shells(monkeypatch, planted)
        cells = checks.sweep_grid(params, "R1", grid=3)
        errors = []
        for split in (False, True):
            force_split(monkeypatch, split)
            with pytest.raises(sobolev.NonFiniteIntegrandError) as exc:
                distortion_sweeps(params, ChartId.R1Outer, [RegionLabel.RegionB], cells,
                                  shells(5, 12), 64, 3)
            _only_the_worker_left()
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == f"non-finite integrand values on RegionB, shell {first}"

    def test_other_errors_in_the_child_raise_as_serial(self, monkeypatch, params):
        # a planted EmptyRegionError on shell 8, the child's: this process
        # recomputes the shell and raises the same type and text
        sample = sobolev.sample_profile

        def planted(params, label, shells, *args, **kwargs):
            if shells[0].k == 8:
                raise EmptyRegionError(f"shell 8 misses the scale range of {label.value}")
            return sample(params, label, shells, *args, **kwargs)

        monkeypatch.setattr(sobolev, "sample_profile", planted)
        errors = []
        for split in (False, True):
            force_split(monkeypatch, split)
            with pytest.raises(EmptyRegionError) as exc:
                distortion_sweeps(params, ChartId.R1Outer, [RegionLabel.RegionB],
                                  [(2.0, 1.1)], shells(5, 12), 64, 3)
            _only_the_worker_left()
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == "shell 8 misses the scale range of RegionB"

    def test_interrupt_kills_and_reaps_the_child(self, monkeypatch, params):
        # the worker's shell 8 would take a minute; an interrupt on shell 5,
        # this process's, ends the call at once with the worker killed and
        # reaped; the next split forks a new worker and gives the serial bits
        reduce = sobolev._log_shell
        armed = [True]

        def planted(log_measure, L, region, shells):
            if armed[0] and shells[0].k == 8:
                time.sleep(60)
            if armed[0] and shells[0].k == 5:
                raise KeyboardInterrupt
            return reduce(log_measure, L, region, shells)

        monkeypatch.setattr(sobolev, "_log_shell", planted)
        force_split(monkeypatch, True)
        args = (params, ChartId.R1Outer, [RegionLabel.RegionB], [(2.0, 1.1)], shells(5, 12),
                64, 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            distortion_sweeps(*args)
        assert time.perf_counter() - start < 30.0
        assert sobolev._worker is None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        armed[0] = False
        split = hex_sums(distortion_sweeps(*args)[0])
        assert sobolev._worker is not None
        force_split(monkeypatch, False)
        assert split == hex_sums(distortion_sweeps(*args)[0])
        _only_the_worker_left()

    def test_cli_sweep_same_bytes_split_or_not(self, monkeypatch, tmp_path):
        from cuspreflect.cli import main

        args = ["sweep", "--scheme", "r2", "--p", "2,3", "--q", "1.05,1.3", "--samples",
                "256", "--k-max", "16"]
        outputs = []
        for split, processes in ((True, 2), (False, 1)):
            force_split(monkeypatch, split)
            out = tmp_path / f"{split}.csv"
            assert main(args + ["--out", str(out)]) == 0
            _only_the_worker_left()
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert manifest["processes"] == processes
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("planted", [{8}, {7}])
    def test_cli_nan_exits_3_with_the_serial_stderr(self, monkeypatch, tmp_path, capsys,
                                                    planted):
        from cuspreflect.cli import main

        plant_nan_on_shells(monkeypatch, planted)
        errs = []
        for split in (False, True):
            force_split(monkeypatch, split)
            out = tmp_path / "out.csv"
            assert main(["sweep", "--p", "2", "--q", "1.1", "--samples", "64", "--k-max",
                         "12", "--out", str(out)]) == 3
            _only_the_worker_left()
            assert not out.exists()
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"error: non-finite integrand values on RegionA, shell "
                                  f"{min(planted)}")


def _wait_gone(pid: int, timeout: float = 30.0) -> bool:
    end = time.monotonic() + timeout
    while not gone(pid):
        if time.monotonic() > end:
            return False
        time.sleep(0.01)
    return True


def _reap(pid: int, timeout: float = 30.0) -> int:
    """The wait status of child pid, which must exit within the timeout."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    raise AssertionError(f"child {pid} still running")


# A script that makes one split `distortion_sweeps` call, prints the worker's
# pid and ends as its argument says.
_SPLIT_SCRIPT = """
import atexit, os, signal, sys

def check():  # runs after the package's hook, which is registered later
    try:
        os.waitpid(-1, os.WNOHANG)
        print("child left", flush=True)
    except ChildProcessError:
        print("reaped", flush=True)

atexit.register(check)
from cuspreflect import geometry, sobolev
sobolev.FORK_VALUES = 0
os.sched_getaffinity = lambda pid: {0, 1}
params = geometry.CuspParams(3, 2.0)
sobolev.distortion_sweeps(params, geometry.ChartId.R1Outer, [geometry.RegionLabel.RegionB],
                          [(2.0, 1.1)], geometry.shells(5, 12), 64, 3)
print(sobolev._worker.pid, flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


# A script that forks the shell worker, then redefines a module-level
# integrand of __main__ and compares a forced split with the serial loop.
_REDEFINE_SCRIPT = """
import os
import numpy as np
from cuspreflect import geometry, sobolev
os.sched_getaffinity = lambda pid: {0, 1}
params = geometry.CuspParams(3, 2.0)

def integrand(prof):
    return 2.0 * np.log(prof.t)

def run(split):
    os.sched_getaffinity = lambda pid: {0, 1} if split else {0}
    loops = [(geometry.RegionLabel.CuspInterior, [(integrand, 0.0)], "semi")]
    ss = sobolev.function_shell_loops(params, loops, geometry.shells(5, 12), 64, 7)[0][0]
    return [x.hex() for x in ss.log_contributions.tolist()], ss.processes

sobolev.FORK_VALUES = 0
sobolev.distortion_sweeps(params, geometry.ChartId.R1Outer, [geometry.RegionLabel.RegionB],
                          [(2.0, 1.1)], geometry.shells(5, 12), 64, 3)
run(True)

def integrand(prof):
    return 3.0 * np.log(prof.t)

split, processes = run(True)
print(split == run(False)[0], processes, sobolev._worker is not None)
"""


class _OtherCode:
    """A test function of code outside the package."""

    def log_jet_t(self, t):
        return np.zeros_like(t), np.zeros_like(t)


def _scaled_log(c, prof):
    return c * np.log(prof.t)


class TestShellWorker:
    """The life of the shell worker: one per process, forked by the first
    split and reused, pinned off the caller's CPU, gone with its caller."""

    _ARGS = (ChartId.R1Outer, [RegionLabel.RegionB], [(2.0, 1.1)], shells(5, 12), 64, 3)

    def test_one_worker_serves_every_split(self, monkeypatch, params):
        force_split(monkeypatch, True)
        distortion_sweeps(params, *self._ARGS)
        worker = sobolev._worker
        sobolev_seminorm(params, PowerAlpha(0.3), RegionLabel.CuspInterior, 2.0, shells(5, 12),
                         64, 7)
        distortion_sweeps(params, *self._ARGS)
        assert sobolev._worker is worker
        _only_the_worker_left()

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs two allowed CPUs")
    def test_worker_alone_is_pinned_off_the_callers_cpu(self, monkeypatch, params):
        allowed = os.sched_getaffinity(0)
        monkeypatch.setattr(sobolev, "FORK_VALUES", 0)
        monkeypatch.setattr(sobolev, "_current_cpu", lambda: min(allowed))
        distortion_sweeps(params, *self._ARGS)
        assert os.sched_getaffinity(sobolev._worker.pid) == allowed - {min(allowed)}
        assert os.sched_getaffinity(0) == allowed
        _only_the_worker_left()

    def test_worker_forked_once_the_loops_reach_fork_values(self, monkeypatch, params):
        force_split(monkeypatch, False)
        want = hex_sums(distortion_sweeps(params, *self._ARGS)[0])
        force_split(monkeypatch, True)
        monkeypatch.setattr(sobolev, "FORK_VALUES", 3 * 512)  # the call's 1 x 8 x 64 values
        for _ in range(2):
            sums = distortion_sweeps(params, *self._ARGS)[0]
            assert hex_sums(sums) == want and sums[0].processes == 1
            assert sobolev._worker is None and children() == set()
        sums = distortion_sweeps(params, *self._ARGS)[0]
        assert hex_sums(sums) == want and sums[0].processes == 2
        assert sobolev._worker is not None
        _only_the_worker_left()

    def test_a_short_command_does_not_fork(self, monkeypatch, tmp_path):
        from cuspreflect.cli import main

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "norm.csv"
        assert main(["extendnorm", "--p", "2", "--q", "1.1", "--samples", "4096", "--out",
                     str(out)]) == 0
        assert json.loads(Path(str(out) + ".manifest.json").read_text())["processes"] == 1
        assert sobolev._worker is None and children() == set()

    def test_current_cpu_is_an_allowed_cpu(self):
        assert sobolev._current_cpu() in os.sched_getaffinity(0)

    def test_worker_exits_at_the_end_of_file_of_its_tasks(self, monkeypatch, params):
        force_split(monkeypatch, True)
        distortion_sweeps(params, *self._ARGS)
        worker = sobolev._worker
        worker.tasks.close()
        status = _reap(worker.pid)
        worker.results.close()
        monkeypatch.setattr(sobolev, "_worker", None)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    @pytest.mark.parametrize("end", ["kill", "exit"])
    def test_worker_goes_with_its_caller(self, end):
        # SIGKILL leaves the worker an end of file on its tasks; a normal
        # exit runs the atexit hook, which kills and reaps it
        proc = subprocess.run([sys.executable, "-c", _SPLIT_SCRIPT, end], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        assert _wait_gone(int(lines[0]))
        if end == "kill":
            assert proc.returncode == -signal.SIGKILL and lines[1:] == []
        else:
            assert proc.returncode == 0 and lines[1:] == ["reaped"], proc.stderr

    def test_exception_while_a_task_is_out_kills_the_worker(self, monkeypatch, params):
        force_split(monkeypatch, True)
        want = hex_sums(distortion_sweeps(params, *self._ARGS)[0])
        first = sobolev._worker
        reply = sobolev._reply

        def broken(worker):  # fails while the worker computes its shells
            raise OSError("planted")

        monkeypatch.setattr(sobolev, "_reply", broken)
        with pytest.raises(OSError, match="planted"):
            distortion_sweeps(params, *self._ARGS)
        assert sobolev._worker is None and gone(first.pid)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(sobolev, "_reply", reply)
        assert hex_sums(distortion_sweeps(params, *self._ARGS)[0]) == want
        assert sobolev._worker.pid != first.pid
        _only_the_worker_left()

    def test_worker_killed_between_tasks_counts_as_failing_at_shell_1(self, monkeypatch,
                                                                    params):
        force_split(monkeypatch, False)
        want = hex_sums(distortion_sweeps(params, *self._ARGS)[0])
        force_split(monkeypatch, True)
        distortion_sweeps(params, *self._ARGS)
        first = sobolev._worker
        os.kill(first.pid, signal.SIGKILL)
        calls = spy_rng(monkeypatch)
        sums = distortion_sweeps(params, *self._ARGS)[0]
        assert hex_sums(sums) == want and sums[0].processes == 1
        assert sorted(k for _, k, _, _ in calls) == list(range(5, 13))
        assert sobolev._worker is None
        with pytest.raises(ChildProcessError):  # the dead worker is reaped
            os.waitpid(-1, os.WNOHANG)
        distortion_sweeps(params, *self._ARGS)
        assert sobolev._worker.pid != first.pid
        _only_the_worker_left()

    def test_worker_dying_in_a_task_counts_as_failing_at_shell_1(self, monkeypatch, params):
        force_split(monkeypatch, False)
        want = hex_sums(distortion_sweeps(params, *self._ARGS)[0])
        caller = os.getpid()
        reduce = sobolev._log_shell

        def planted(log_measure, L, region, shells):
            if shells[0].k == 8 and os.getpid() != caller:
                os._exit(1)
            return reduce(log_measure, L, region, shells)

        monkeypatch.setattr(sobolev, "_log_shell", planted)
        force_split(monkeypatch, True)
        calls = spy_rng(monkeypatch)
        sums = distortion_sweeps(params, *self._ARGS)[0]
        assert hex_sums(sums) == want and sums[0].processes == 1
        # this process drew every shell: the even ones, then the odd ones
        assert [k for _, k, _, _ in calls] == [5, 7, 9, 11, 6, 8, 10, 12]
        assert sobolev._worker is None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_of_the_caller_neither_uses_nor_holds_the_worker(self, monkeypatch,
                                                                 params):
        force_split(monkeypatch, True)
        want = hex_sums(distortion_sweeps(params, *self._ARGS)[0])
        worker = sobolev._worker
        pipes = (worker.tasks.fileno(), worker.results.fileno())
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the forked child reports through the pipe
            report = b"fail"
            try:
                held = []
                for fd in pipes:
                    try:
                        os.fstat(fd)
                        held.append(fd)
                    except OSError:
                        pass
                if sobolev._worker is None and not held:
                    split = hex_sums(distortion_sweeps(params, *self._ARGS)[0])
                    own = sobolev._worker
                    sobolev._stop_worker()
                    if split == want and own is not None and own.pid != worker.pid:
                        report = b"ok"
            finally:
                os.write(write, report)
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as fh:
            report = fh.read()
        assert os.WEXITSTATUS(_reap(pid)) == 0
        assert report == b"ok"
        assert sobolev._worker is worker
        assert hex_sums(distortion_sweeps(params, *self._ARGS)[0]) == want
        _only_the_worker_left()

    def test_worker_holds_none_of_the_callers_files(self, monkeypatch, params):
        # a pipe opened before the worker was forked reaches end of file
        # once this process closes its write end
        read, write = os.pipe()
        try:
            force_split(monkeypatch, True)
            distortion_sweeps(params, *self._ARGS)
            assert sobolev._worker is not None
            os.close(write)
            write = None
            os.set_blocking(read, False)
            assert os.read(read, 1) == b""
        finally:
            os.close(read)
            if write is not None:
                os.close(write)
        _only_the_worker_left()

    def test_integrand_redefined_after_the_fork_runs_serially(self):
        proc = subprocess.run([sys.executable, "-c", _REDEFINE_SCRIPT], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["True", "1", "True"], proc.stderr

    def test_only_the_packages_integrands_go_to_the_worker(self, params):
        library = sobolev._library_integrand
        assert library(partial(sobolev._gradient_power, PowerAlpha(0.3), 2.0))
        assert library(partial(sobolev._gradient_power, ClampT(), np.float64(2.0)))
        assert library(partial(extension._region_masses, "1", params, Constant(2.0), 1.5,
                               True, False))
        assert not library(partial(sobolev._gradient_power, _OtherCode(), 2.0))
        assert not library(partial(sobolev._gradient_power, PowerAlpha(0.3), p=[2.0]))
        assert not library(partial(_scaled_log, 2.0))
        assert not library(lambda prof: 2.0 * np.log(prof.t))
        assert not library(partial(np.log))

    def test_worker_of_another_owner_is_not_used(self, monkeypatch, params):
        # a fork that bypassed the fork hook: the copy it kept of its
        # parent's worker is dropped, its pipes closed, and a worker of its
        # own forked
        force_split(monkeypatch, True)
        want = hex_sums(distortion_sweeps(params, *self._ARGS)[0])
        worker = sobolev._worker
        forged = copy.copy(worker)
        forged.owner = -1
        monkeypatch.setattr(sobolev, "_worker", forged)
        assert hex_sums(distortion_sweeps(params, *self._ARGS)[0]) == want
        assert sobolev._worker.pid != worker.pid
        assert os.WEXITSTATUS(_reap(worker.pid)) == 0  # end of file on its tasks
        _only_the_worker_left()

    def test_failed_fork_runs_serially(self, monkeypatch, params):
        force_split(monkeypatch, False)
        want = hex_sums(distortion_sweeps(params, *self._ARGS)[0])

        def refuse():
            raise BlockingIOError("planted")

        monkeypatch.setattr(os, "fork", refuse)
        force_split(monkeypatch, True)
        sums = distortion_sweeps(params, *self._ARGS)[0]
        assert hex_sums(sums) == want and sums[0].processes == 1
        assert sobolev._worker is None and children() == set()

    def test_integrands_that_do_not_pickle_run_serially(self, monkeypatch, params):
        terms = [(lambda prof: 2.0 * np.log(prof.t), 0.0)]
        args = (params, [(RegionLabel.CuspInterior, terms, "semi")], shells(5, 12), 64, 7)
        force_split(monkeypatch, False)
        want = hex_sums(sobolev.function_shell_loops(*args)[0])
        force_split(monkeypatch, True)
        sums = sobolev.function_shell_loops(*args)[0]
        assert hex_sums(sums) == want and sums[0].processes == 1
        assert sobolev._worker is None

    def test_extendnorm_in_a_subprocess_leaves_no_worker(self, tmp_path):
        script = (
            "import os, sys\n"
            "from cuspreflect import cli, sobolev\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sobolev.FORK_VALUES = 0\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(sobolev._worker.pid, rc)\n"
        )
        out = tmp_path / "norm.csv"
        proc = subprocess.run(
            [sys.executable, "-c", script, "extendnorm", "--scheme", "r2", "--p", "2",
             "--q", "1.3", "--samples", "1024", "--k-max", "30", "--out", str(out)],
            env=package_env(), capture_output=True, text=True, timeout=120)
        pid, rc = proc.stdout.split()[-2:]
        assert rc == "0", proc.stderr
        assert json.loads(Path(str(out) + ".manifest.json").read_text())["processes"] == 2
        assert _wait_gone(int(pid))


def _plant_nan_on(monkeypatch, planted):
    """A nan in the first value of the reduce of each (region, k) planted,
    met by whichever process computes the shell."""
    reduce = sobolev._log_shell

    def plant(log_measure, L, region, shells):
        for j, shell in enumerate(shells):
            if (region, shell.k) in planted:
                L[(0,) * (L.ndim - 2) + (j, 0)] = np.nan
        return reduce(log_measure, L, region, shells)

    monkeypatch.setattr(sobolev, "_log_shell", plant)


def _spy_splits(monkeypatch) -> list:
    """The shell counts of the `_each_shell` calls made from here on."""
    counts = []
    each_shell = sobolev._each_shell

    def spy(loops, *rest):
        counts.append(sum(count for *_, count in loops))
        return each_shell(loops, *rest)

    monkeypatch.setattr(sobolev, "_each_shell", spy)
    return counts


class TestJoinedLoops:
    """All the shell loops of one `extendnorm` or `sweep` run are one split
    loop: the bits of the serial loop and of the per-region calls, the
    serial first error, one `_each_shell` call per command."""

    @pytest.mark.parametrize("u", [PowerAlpha(0.4), ClampT()], ids=["power", "clampt"])
    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_experiment_equals_serial_and_per_region_calls(self, monkeypatch, params, scheme,
                                                           u):
        # 11 shells, an odd count, so the worker's shells of the joined loop
        # are not those of each region's own loop
        spec = ExtensionSpec(scheme, Direction.FromInside)
        shl = shells(5, 15)
        force_split(monkeypatch, True)
        counts = _spy_splits(monkeypatch)
        rep = extension_norm_experiment(params, spec, u, 3.0, 1.5, shl, 256, 11)
        regions = geometry.chart_regions(spec.outer_chart)
        assert counts == [len(shl) * (len(regions) + 1)] and rep.processes == 2
        joined = hex_sums([rep.value_sum, rep.grad_sum, rep.total_sum])
        _only_the_worker_left()
        monkeypatch.setattr(sobolev, "FORK_VALUES", math.inf)
        serial = extension_norm_experiment(params, spec, u, 3.0, 1.5, shl, 256, 11)
        assert serial.processes == 1
        assert hex_sums([serial.value_sum, serial.grad_sum, serial.total_sum]) == joined
        assert (serial.u_norm.hex(), serial.ratio.hex()) == (rep.u_norm.hex(), rep.ratio.hex())
        # the per-region calls, each split on its own, sum to the same bits
        monkeypatch.setattr(sobolev, "FORK_VALUES", 0)
        pairs = [sobolev.function_shell_loops(
            params, [extension._region_loop(params, u, 1.5, region)], shl, 256, 11)[0]
            for region in regions]
        lp, semi = sobolev.function_shell_loops(params, [extension._window_loop(u, 3.0)], shl,
                                                256, 11)[0]
        assert {ss.processes for pair in pairs for ss in pair} == {lp.processes} == {2}
        vals = np.logaddexp.reduce([v.log_contributions for v, _ in pairs])
        grads = np.logaddexp.reduce([g.log_contributions for _, g in pairs])
        ks = [sh.k for sh in shl]
        assert hex_sums([ShellSum(ks, vals), ShellSum(ks, grads)]) == joined[:2]
        assert np.exp(lp.log_total / 3.0) + np.exp(semi.log_total / 3.0) == rep.u_norm

    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_sweeps_equal_serial_and_per_region_calls(self, monkeypatch, params, scheme):
        chart = _CHARTS[scheme]
        regions = geometry.chart_regions(chart)
        cells = checks.sweep_grid(params, scheme, grid=3)
        shl = shells(5, 15)
        force_split(monkeypatch, True)
        counts = _spy_splits(monkeypatch)
        joined = sobolev.distortion_sweeps(params, chart, regions, cells, shl, 256, 5)
        assert counts == [len(shl) * len(regions)]
        assert {ss.processes for sums in joined for ss in sums} == {2}
        _only_the_worker_left()
        per_region = [distortion_sweeps(params, chart, [region], cells, shl, 256, 5)[0]
                      for region in regions]
        assert {ss.processes for sums in per_region for ss in sums} == {2}
        _only_the_worker_left()
        monkeypatch.setattr(sobolev, "FORK_VALUES", math.inf)
        serial = sobolev.distortion_sweeps(params, chart, regions, cells, shl, 256, 5)
        assert {ss.processes for sums in serial for ss in sums} == {1}
        assert ([hex_sums(sums) for sums in joined] == [hex_sums(sums) for sums in serial]
                == [hex_sums(sums) for sums in per_region])

    @pytest.mark.parametrize("planted,first", [
        ({(RegionLabel.RegionC, 9)}, "RegionC, shell 9"),    # the last region
        ({(RegionLabel.RegionB, 8), (RegionLabel.RegionC, 5)}, "RegionB, shell 8"),
        # shell 6 of region A is the worker's, shell 5 of region C this
        # process's, which it meets first: the worker's error still raises
        ({(RegionLabel.RegionA, 6), (RegionLabel.RegionC, 5)}, "RegionA, shell 6"),
    ])
    def test_experiment_first_error_in_serial_order(self, monkeypatch, params, planted, first):
        _plant_nan_on(monkeypatch, planted)
        spec = ExtensionSpec("R1", Direction.FromInside)
        errors = []
        for split in (False, True):
            force_split(monkeypatch, split)
            with pytest.raises(sobolev.NonFiniteIntegrandError) as exc:
                extension_norm_experiment(params, spec, PowerAlpha(1.4), 2.0, 1.1,
                                          shells(5, 12), 64, 3)
            _only_the_worker_left()
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == f"non-finite integrand values on {first}"

    @pytest.mark.parametrize("planted,first", [
        ({(RegionLabel.RegionE, 10)}, "RegionE, shell 10"),
        ({(RegionLabel.RegionD, 6), (RegionLabel.RegionE, 5)}, "RegionD, shell 6"),
    ])
    def test_sweep_first_error_in_serial_order(self, monkeypatch, tmp_path, capsys, planted,
                                               first):
        from cuspreflect.cli import main

        _plant_nan_on(monkeypatch, planted)
        errs = []
        for split in (False, True):
            force_split(monkeypatch, split)
            out = tmp_path / "out.csv"
            assert main(["sweep", "--scheme", "r2", "--p", "2", "--q", "1.1", "--samples",
                         "64", "--k-max", "12", "--out", str(out)]) == 3
            _only_the_worker_left()
            assert not out.exists()
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == f"error: non-finite integrand values on {first}\n"

    @pytest.mark.parametrize("scheme", ["r1", "r2"])
    @pytest.mark.parametrize("command", [
        ["extendnorm", "--function", "power:0.4", "--p", "3", "--q", "1.5"],
        ["sweep", "--p", "2.5,3", "--q", "1.1,2"],
    ], ids=["extendnorm", "sweep"])
    def test_one_split_per_command(self, monkeypatch, tmp_path, scheme, command):
        from cuspreflect.cli import main

        outputs = []
        for split in (True, False):
            force_split(monkeypatch, split)
            counts = _spy_splits(monkeypatch)
            out = tmp_path / f"{split}.csv"
            assert main([*command, "--scheme", scheme, "--samples", "64", "--k-max", "14",
                         "--out", str(out)]) == 0
            _only_the_worker_left()
            assert len(counts) == 1
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert manifest["processes"] == 1 + split
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


_CHARTS = {"R1": ChartId.R1Outer, "R2": ChartId.R2Outer}


@st.composite
def _window_cells(draw):
    """(n, s, region, scheme, p, q, k_max) with p and q in the acceptance
    grid's ranges (p in [1.1 p_min, 6], q in [1, p - 0.05]), at least 0.5
    away from the critical exponent e = -1."""
    unit = st.floats(0.0, 1.0)
    n = draw(st.integers(3, 6))
    s = 1.5 + 2.5 * draw(unit)
    region, _, scheme = draw(st.sampled_from(_SWEEP_REGIONS))
    p_lo = 1.1 * (p_min_r1(n, s) if scheme == "R1" else p_min_r2(n, s))
    assume(p_lo < 6.0)
    p = p_lo + (6.0 - p_lo) * draw(unit)
    q = 1.0 + (p - 1.05) * draw(unit)
    assume(abs(predicted_shell_exponent(region, p, q, n, s) + 1.0) >= 0.5)
    return n, s, region, scheme, p, q, draw(st.sampled_from([26, 60, 120]))


_EMPTY_SHELL_ENTRIES = {
    "distortion_integral": lambda params: distortion_integral(
        params, ChartId.R1Outer, RegionLabel.RegionA, 2.0, 1.1, [], 64, 1),
    "distortion_sweeps": lambda params: distortion_sweeps(
        params, ChartId.R2Outer, [RegionLabel.RegionD, RegionLabel.RegionE], [(2.0, 1.1)], [],
        64, 1),
    "distortion_sweeps-no-cells": lambda params: distortion_sweeps(
        params, ChartId.R1Outer, geometry.chart_regions(ChartId.R1Outer), [], [], 64, 1),
    "sobolev_seminorm": lambda params: sobolev_seminorm(
        params, PowerAlpha(0.5), RegionLabel.CuspInterior, 2.0, [], 64, 1),
    "extension_norm_experiment": lambda params: extension_norm_experiment(
        params, ExtensionSpec("R1", Direction.FromInside), PowerAlpha(0.3), 2.0, 1.1, [], 64, 1),
}


@pytest.mark.parametrize("entry", _EMPTY_SHELL_ENTRIES)
def test_empty_shell_list_raises_before_any_draw(params, monkeypatch, entry):
    # no shell, no sum: a ValueError that names the list, not an IndexError
    # or an empty result
    calls, draws = spy_rng(monkeypatch), spy_draws(monkeypatch)
    with pytest.raises(ValueError, match="shell list is empty"):
        _EMPTY_SHELL_ENTRIES[entry](params)
    assert calls == [] and draws == []


class TestVerdictProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cell=_window_cells())
    def test_verdict_matches_predicted_exponent(self, cell):
        n, s, region, scheme, p, q, k_max = cell
        params = CuspParams(n, s)
        ss = distortion_integral(params, _CHARTS[scheme], region, p, q, shells(5, k_max),
                                 256, 42)
        e = predicted_shell_exponent(region, p, q, n, s)
        assert convergence_verdict(ss).kind == ("Convergent" if e > -1.0 else "Divergent")


@st.composite
def _norm_cells(draw):
    """(n, s, scheme, alpha, p, q, k_max) with t^(-alpha) in W^{1,p} of the
    cusp window: alpha + 1 < (1 + (n-1) s) / p."""
    n = draw(st.integers(3, 6))
    s = 1.5 + 2.5 * draw(st.floats(0.0, 1.0))
    c = 1.0 + (n - 1) * s
    p = 1.0 + (c - 1.0) * draw(st.floats(0.01, 0.99))
    alpha = (c / p - 1.0) * draw(st.floats(0.01, 0.99))
    q = 1.0 + (p - 1.0) * draw(st.floats(0.0, 0.99))
    return (n, s, draw(st.sampled_from(["R1", "R2"])), alpha, p, q,
            draw(st.sampled_from([60, 120, 250])))


class TestNormProperty:
    """Inside the membership window the norm path runs to k = 250 without
    raising and without a nan, however far its shells leave the float range."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(cell=_norm_cells())
    def test_no_nan_in_any_view(self, cell):
        n, s, scheme, alpha, p, q, k_max = cell
        spec = ExtensionSpec(scheme, Direction.FromInside)
        rep = extension_norm_experiment(CuspParams(n, s), spec, PowerAlpha(alpha), p, q,
                                        shells(5, k_max), 64, 42)
        for ss in (rep.value_sum, rep.grad_sum, rep.total_sum):
            views = [ss.log_contributions, ss.log_ratios, [ss.log_total, ss.total],
                     list(ss.contributions.values()), ss.partial_sums, ss.ratios]
            assert not any(np.isnan(v).any() for v in views), cell
        assert not (math.isnan(rep.u_norm) or math.isnan(rep.ratio)), cell


class TestSeminorm:
    def test_power_half_closed_form(self, params):
        # |Du|^2 = alpha^2 t^(-3); with the t^(2s) disk area the integral is
        # pi/4 * int_0^(1/2) t dt = pi/32
        ss = sobolev_seminorm(params, PowerAlpha(0.5), RegionLabel.CuspInterior,
                              2.0, shells(1, 40), 4096, 42)
        assert ss.total == pytest.approx(math.pi / 32.0, rel=1e-2)

    def test_constant_zero(self, params):
        ss = sobolev_seminorm(params, Constant(3.0), RegionLabel.RegionB,
                              4.0, shells(1, 10), 256, 42)
        assert ss.total == 0.0
        assert convergence_verdict(ss).kind == "Convergent"

    def test_clamp_vanishes_on_negative_t(self, params):
        from cuspreflect.extension import ClampT

        ss = sobolev_seminorm(params, ClampT(), RegionLabel.RegionA,
                              1.0, shells(1, 10), 256, 42)
        assert ss.total == 0.0

    def test_brute_force_oracle(self, params):
        u = PowerAlpha(0.8)

        def f(t, r):
            return (0.8 * t**-1.8) ** 2

        ss = sobolev_seminorm(params, u, RegionLabel.CuspInterior, 2.0, shells(3, 6), 4096, 42)
        for k in (3, 5):
            oracle = brute_shell_integral(params, RegionLabel.CuspInterior, k, f)
            assert ss.contributions[k] == pytest.approx(oracle, rel=5e-3)


class TestScalingFit:
    def test_exact_square_law(self):
        t = np.linspace(0.1, 2.0, 30)
        slope, intercept, resid = scaling_fit(zip(np.log(t), np.log(t**2)))
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert resid < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(slope=st.floats(-4.0, 4.0), amp=st.floats(0.1, 10.0))
    def test_recovers_random_power_laws(self, slope, amp):
        x = np.geomspace(0.01, 1.0, 12)
        got, intercept, resid = scaling_fit(zip(np.log(x), np.log(amp * x**slope)))
        assert got == pytest.approx(slope, abs=1e-9)
        assert math.exp(intercept) == pytest.approx(amp, rel=1e-9)

    def test_region_a_det_slope(self, params):
        rows = sobolev.scaling_profile(params, RegionLabel.RegionA,
                                       [Shell(k) for k in range(8, 25)], 1024, 42)
        slope, _, _ = scaling_fit([(r["log_scale"], r["log_absdet"]) for r in rows])
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_noisy_data_reports_residual(self):
        x = np.geomspace(0.01, 1.0, 20)
        y = x**1.5 * np.exp(np.sin(np.arange(20)) * 0.2)
        _, _, resid = scaling_fit(zip(np.log(x), np.log(y)))
        assert resid > 1e-3  # reported, not silently swallowed

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaling_fit([(0.0, 0.0), (math.log(2.0), -math.inf), (math.log(3.0), math.log(2.0))])
        with pytest.raises(ValueError):
            scaling_fit([(0.0, 0.0), (math.log(2.0), math.log(2.0))])


class TestShellExponentVsMeasured:
    @pytest.mark.parametrize("region,chart,scheme", [
        (RegionLabel.RegionA, ChartId.R1Outer, "R1"),
        (RegionLabel.RegionB, ChartId.R1Outer, "R1"),
        (RegionLabel.RegionC, ChartId.R1Outer, "R1"),
        (RegionLabel.RegionD, ChartId.R2Outer, "R2"),
        (RegionLabel.RegionE, ChartId.R2Outer, "R2"),
    ])
    def test_tail_ratio_matches_exponent(self, params, region, chart, scheme):
        rng = np.random.default_rng(5)
        n, s = params.n, params.s
        for _ in range(3):
            p = float(rng.uniform(2.0, 6.0))
            if region is RegionLabel.RegionE:
                e_target = float(rng.uniform(-0.9, -0.4))
                w = ((n - 1) * s - e_target) / (s - 1.0)
                q = w * p / (p + w)
            else:
                q = float(rng.uniform(1.0, sobolev.q_max(scheme, p, n, s) - 0.1))
            e = predicted_shell_exponent(region, p, q, n, s)
            ss = distortion_integral(params, chart, region, p, q, shells(5, 32), 4096, 11)
            fitted = float(np.mean(np.log2(ss.ratios[-8:])))
            assert fitted == pytest.approx(-(e + 1.0), abs=0.05)
