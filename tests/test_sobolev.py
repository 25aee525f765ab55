import math

import numpy as np
import pytest
from conftest import brute_shell_integral, spy_rng
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspreflect import checks, reflections, sobolev
from cuspreflect.errors import WindowError
from cuspreflect.extension import (
    Constant,
    Direction,
    ExtensionSpec,
    PowerAlpha,
    extension_norm_experiment,
)
from cuspreflect.geometry import ChartId, CuspParams, RegionLabel, Shell, piece_of_region, shells
from cuspreflect.sobolev import (
    ShellSum,
    convergence_verdict,
    distortion_integral,
    distortion_sweep,
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


class TestShellSumVerdict:
    def _sum_from_ratio(self, ratio, n=12, first=1.0):
        vals = [first * ratio**i for i in range(n)]
        return ShellSum.from_contributions(range(5, 5 + n), vals)

    def test_convergent(self):
        v = convergence_verdict(self._sum_from_ratio(0.5))
        assert v.kind == "Convergent"
        assert v.decay_ratio == pytest.approx(0.5)

    def test_divergent(self):
        assert convergence_verdict(self._sum_from_ratio(8.0)).kind == "Divergent"

    def test_inconclusive(self):
        assert convergence_verdict(self._sum_from_ratio(0.95)).kind == "Inconclusive"

    def test_zero_sum_converges(self):
        ss = ShellSum.from_contributions(range(5, 15), [0.0] * 10)
        assert convergence_verdict(ss).kind == "Convergent"

    def test_huge_convergent_sum_stays_convergent(self):
        # decaying tail beats the partial-sum cap
        assert convergence_verdict(self._sum_from_ratio(0.03, first=1e60)).kind == "Convergent"

    def test_cap_triggers_on_nondecaying_sum(self):
        vals = [4e11, 4e11, 4e11, 3.9e11, 4e11, 3.92e11, 4e11]
        assert convergence_verdict(ShellSum.from_contributions(range(7), vals)).kind == "Divergent"

    def test_needs_six_shells(self):
        with pytest.raises(ValueError):
            convergence_verdict(ShellSum.from_contributions(range(5), [1.0] * 5))

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
        piece = piece_of_region(region)
        P, Q = p * q / (p - q), q / (p - q)

        def f(t, r):
            _, _, opnorm, det = reflections.profile_jet(piece, params, t, r)
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
    """The pow-form per-cell shell loop that `distortion_sweep` replaced: one
    `shell_estimate` per shell, with opnorm^P / |det|^Q evaluated as floats
    inside the integrand, which returns its log."""
    piece = piece_of_region(region)
    P, Q = p * q / (p - q), q / (p - q)
    s = params.s
    tilt = (s - 1.0) * p * q / (s * (p - q)) if region is RegionLabel.RegionE else 0.0

    def integrand(t, r):
        _, _, opnorm, det = reflections.profile_jet(piece, params, t, r)
        return np.log(opnorm**P / np.abs(det) ** Q)

    logs = [sobolev.shell_estimate(params, region, sh, [(integrand, tilt)], samples,
                                   (seed, sh.k, "dist"))[0]
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

    def planted(piece, prm, t, r):
        log_opnorm, log_absdet = jet(piece, prm, t, r)
        log_opnorm = log_opnorm.copy()
        log_opnorm.flat[0] = np.nan
        return log_opnorm, log_absdet

    monkeypatch.setattr(reflections, "profile_log_jet", planted)


class TestDistortionSweep:
    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5)])
    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_matches_per_cell_loop_exactly(self, n, s, region, chart, scheme):
        # 25 cells of 1024 samples reduce in blocks of 8, 8, 8 and 1; each
        # cell equals its one-cell run bit for bit
        params = CuspParams(n, s)
        cells = checks.sweep_grid(params, scheme, grid=5)
        shl = shells(5, 12)
        sums = distortion_sweep(params, chart, region, cells, shl, 1024, 7)
        assert len(sums) == len(cells)
        assert len(cells) * 1024 > 3 * sobolev.BLOCK_VALUES
        for (p, q), ss in zip(cells, sums):
            one = distortion_integral(params, chart, region, p, q, shl, 1024, 7)
            assert ss.contributions == one.contributions
            assert ss.ks == [sh.k for sh in shl]

    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5)])
    @pytest.mark.parametrize("region,chart,scheme", _SWEEP_REGIONS)
    def test_agrees_with_pow_form_loop(self, n, s, region, chart, scheme):
        # the log-space reduction against the pow-form loop it replaced, on
        # the shells where the pow form is finite and nonzero
        params = CuspParams(n, s)
        cells = checks.sweep_grid(params, scheme, grid=3)
        shl = shells(5, 12)
        sums = distortion_sweep(params, chart, region, cells, shl, 256, 7)
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
            distortion_sweep(params, chart, region, cells, shells(5, 10), 64, 3)
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
        calls = spy_rng(monkeypatch)
        cells = checks.sweep_grid(params, scheme, grid=7)
        distortion_sweep(params, chart, region, cells, shells(5, 12), 1024, 3)
        assert calls == [(3, k, region, "dist") for k in range(5, 13)]

    def test_rejects_invalid_cell(self, params):
        with pytest.raises(WindowError):
            distortion_sweep(params, ChartId.R1Outer, RegionLabel.RegionA,
                             [(2.0, 1.1), (2.0, 2.5)], shells(5, 12))


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
