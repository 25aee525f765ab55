import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (force_split, hex_sums, package_env, plant_nan_on_shells, spy_draws,
                      spy_rng)

from cuspreflect import extension, geometry, reflections, sobolev
from cuspreflect.errors import ChartDomainError, WindowError
from cuspreflect.extension import (
    ClampT,
    Constant,
    Direction,
    ExtensionSpec,
    PowerAlpha,
    cutoff_psi,
    extend_eval,
    extend_global_points,
    extend_gradient,
    extension_norm_experiment,
    holder_probe,
    membership_oracle,
)
from cuspreflect.geometry import (
    CuspParams,
    Point,
    RegionLabel,
    Shell,
    derive_rng,
    random_directions,
    sample_profile,
    sample_region,
    shells,
)


class TestTestFunctions:
    def test_power_value_and_gradient(self):
        u = PowerAlpha(1.4)
        t = np.array([0.3])
        assert u.value_t(t)[0] == pytest.approx(0.3**-1.4)
        assert u.deriv_t(t)[0] == pytest.approx(-1.4 * 0.3**-2.4)

    def test_power_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            PowerAlpha(1.0).value_t(np.array([-0.1]))
        with pytest.raises(WindowError):
            PowerAlpha(-1.0)

    def test_clamp(self):
        u = ClampT()
        assert u.value_t(np.array([-0.5, 0.4, 1.5])).tolist() == [0.0, 0.4, 1.0]
        assert u.deriv_t(np.array([0.4, -0.4])).tolist() == [1.0, 0.0]

    def test_constant(self):
        u = Constant(2.5)
        assert u.value_t(np.array([0.1])).tolist() == [2.5]
        assert u.deriv_t(np.array([0.1])).tolist() == [0.0]

    @pytest.mark.parametrize("u,t", [(PowerAlpha(1.2), 0.3), (ClampT(), 0.4)])
    def test_gradient_matches_fd(self, u, t):
        # central-difference oracle away from kinks
        h = 1e-6
        fd = (u.value_t(np.array([t + h]))[0] - u.value_t(np.array([t - h]))[0]) / (2 * h)
        assert u.deriv_t(np.array([t]))[0] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestLogJet:
    """`log_jet_t` is (log|u|, log|u'|), finite where u or u' leaves the float
    range."""

    @pytest.mark.parametrize("u", [PowerAlpha(1.4), PowerAlpha(4.0), ClampT(), Constant(2.5),
                                   Constant(-0.5)], ids=["power1.4", "power4", "clampt",
                                                         "const", "const-neg"])
    def test_matches_log_of_value_and_derivative(self, u):
        t = np.geomspace(2.0**-150, 1.5, 401)
        if not isinstance(u, PowerAlpha):
            t = np.concatenate([-t, [0.0], t])
        log_u, log_du = u.log_jet_t(t)
        compared = 0
        with np.errstate(divide="ignore"):
            for got, want in ((log_u, np.log(np.abs(u.value_t(t)))),
                              (log_du, np.log(np.abs(u.deriv_t(t))))):
                finite = np.isfinite(want)
                np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=1e-13)
                assert (got[~finite] == want[~finite]).all()
                compared += finite.sum()
        assert compared > t.size // 2

    def test_power_finite_past_float_range(self):
        u = PowerAlpha(4.0)
        t = np.array([2.0**-300])
        log_u, log_du = u.log_jet_t(t)
        assert np.isfinite(log_u).all() and np.isfinite(log_du).all()
        assert log_u[0] == pytest.approx(1200.0 * math.log(2.0), rel=1e-15)
        assert log_du[0] == pytest.approx(math.log(4.0) + 1500.0 * math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("t", [0.0, -0.1])
    def test_power_rejects_nonpositive_t(self, t):
        with pytest.raises(ValueError):
            PowerAlpha(1.0).log_jet_t(np.array([0.2, t]))


class TestExtensionSpec:
    def test_valid(self):
        ExtensionSpec("R1", Direction.FromInside)
        ExtensionSpec("r2", Direction.FromInside)
        ExtensionSpec("R1", Direction.FromOutside)

    def test_r2_inward_rejected(self):
        with pytest.raises(WindowError):
            ExtensionSpec("R2", Direction.FromOutside)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme must be 'R1' or 'R2', got 'r3'"):
            ExtensionSpec("r3", Direction.FromInside)


class TestExtendEval:
    def test_compose_through_a(self, params):
        # image first coordinate is -t, so the value is |t|^(-alpha)
        spec = ExtensionSpec("R1", Direction.FromInside)
        for alpha in (0.5, 1.4):
            got = extend_eval(spec, params, PowerAlpha(alpha), Point(-0.25, [0.1, 0.0]))
            assert got == pytest.approx(0.25**-alpha, rel=1e-14)

    def test_native_side_identity(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        u = PowerAlpha(0.9)
        z = Point(0.3, [0.02, 0.0])
        assert extend_eval(spec, params, u, z) == u.value_t(np.array([z.t]))[0]

    def test_boundary_value_zero(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        assert extend_eval(spec, params, PowerAlpha(1.0), Point(0.25, [0.0625, 0.0])) == 0.0

    def test_inward_values_across_bands(self, params):
        # first band maps t to -t (ramp value 0); third band keeps t
        spec = ExtensionSpec("R1", Direction.FromOutside)
        u = ClampT()
        assert extend_eval(spec, params, u, Point(0.5, [0.01, 0.0])) == 0.0
        assert extend_eval(spec, params, u, Point(0.5, [0.1, 0.0])) == pytest.approx(0.5)

    def test_inward_native_side(self, params):
        spec = ExtensionSpec("R1", Direction.FromOutside)
        u = ClampT()
        assert extend_eval(spec, params, u, Point(-0.3, [0.1, 0.0])) == 0.0
        assert extend_eval(spec, params, u, Point(0.3, [0.2, 0.0])) == pytest.approx(0.3)

    def test_inward_rejects_deep_interior(self, params):
        spec = ExtensionSpec("R1", Direction.FromOutside)
        with pytest.raises(ChartDomainError):
            extend_eval(spec, params, ClampT(), Point(0.9, [0.1, 0.0]))

    def test_outward_rejects_far_field(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        with pytest.raises(ChartDomainError):
            extend_eval(spec, params, PowerAlpha(1.0), Point(-0.9, [0.1, 0.0]))

    def test_r2_compose_through_d(self, params):
        spec = ExtensionSpec("R2", Direction.FromInside)
        got = extend_eval(spec, params, PowerAlpha(0.8), Point(-0.25, [0.01, 0.0]))
        assert got == pytest.approx(0.25**-0.8, rel=1e-14)


class TestExtendGradient:
    def test_exact_on_a(self, params):
        # only the (1,1) entry of the first-band matrix contributes
        spec = ExtensionSpec("R1", Direction.FromInside)
        alpha = 1.3
        g = extend_gradient(spec, params, PowerAlpha(alpha), Point(-0.25, [0.1, 0.0]))
        assert np.linalg.norm(g) == pytest.approx(alpha * 0.25 ** (-alpha - 1.0), rel=1e-13)

    def test_constant_zero(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        g = extend_gradient(spec, params, Constant(4.0), Point(0.1, [0.2, 0.0]))
        assert np.all(g == 0.0)

    def test_matches_fd(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        u = PowerAlpha(0.9)
        rng = np.random.default_rng(3)
        checked = 0
        for label in (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC):
            for z in sample_region(params, "R1", label, Shell(2), 40, 5):
                g = extend_gradient(spec, params, u, z)
                h = 1e-6
                base = z.as_array()
                for j in range(params.n):
                    zp, zm = base.copy(), base.copy()
                    zp[j] += h
                    zm[j] -= h
                    fd = (
                        extend_eval(spec, params, u, Point(zp[0], zp[1:]))
                        - extend_eval(spec, params, u, Point(zm[0], zm[1:]))
                    ) / (2 * h)
                    assert g[j] == pytest.approx(fd, rel=2e-5, abs=1e-8)
                checked += 1
        assert checked >= 100

    def test_clamp_gradient_bounded_on_collar(self, params):
        # Lipschitz data: |grad| is exactly 1 on all three outer pieces
        spec = ExtensionSpec("R1", Direction.FromInside)
        u = ClampT()
        for label in (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC):
            for k in (2, 10, 18):
                for z in sample_region(params, "R1", label, Shell(k), 30, 9):
                    g = extend_gradient(spec, params, u, z)
                    assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-12)


class TestCutoff:
    def test_one_on_domain(self, params):
        assert cutoff_psi(params, Point(0.3, [0.01, 0.0])) == 1.0
        assert cutoff_psi(params, Point(2.0, [1.0, 0.0])) == 1.0  # ball part
        assert cutoff_psi(params, Point(0.25, [0.0625, 0.0])) == 1.0  # wall

    def test_zero_outside_collar(self, params):
        assert cutoff_psi(params, Point(-0.6, [0.1, 0.0])) == 0.0
        assert cutoff_psi(params, Point(0.1, [0.6, 0.0])) == 0.0

    def test_collar_value_interior(self, params):
        v = cutoff_psi(params, Point(0.0, [0.25, 0.0]))
        assert 0.0 < v < 1.0

    def test_monotone_along_ray(self, params):
        vals = [cutoff_psi(params, Point(-0.1, [r, 0.0])) for r in np.linspace(0.12, 0.49, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_lipschitz_on_window(self, params):
        # difference quotients stay bounded on the experiment window t < 0.45
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(300):
            t = rng.uniform(-0.45, 0.45)
            r = rng.uniform(0.0, 0.49)
            d = rng.normal(size=2)
            d /= np.hypot(*d)
            h = 1e-5
            a = cutoff_psi(params, Point(t, [r, 0.0]))
            b = cutoff_psi(params, Point(t + h * d[0], [max(r + h * d[1], 0.0), 0.0]))
            worst = max(worst, abs(a - b) / h)
        assert worst < 30.0  # 1/(local collar width) stays modest away from the corner

    def test_package_runs_without_scipy(self):
        # the cutoff, its distance search and the batched product check need
        # numpy alone
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cuspreflect\n"
             "from cuspreflect import checks\n"
             "params = cuspreflect.CuspParams(3, 2.0)\n"
             "assert 0.0 < cuspreflect.cutoff_psi(params, [0.0, 0.25, 0.0]) < 1.0\n"
             "assert checks.check_cutoff_product(params).passed\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, check=True, env=package_env(),
        )
        assert proc.stdout.strip() == "[]"

    def test_product_contract(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        u = PowerAlpha(0.5)
        z = Point(0.2, [0.01, 0.0])
        got = extend_global_points(spec, params, u, [0.2, -0.7], [[0.01, 0.0], [0.1, 0.0]])
        assert got.tolist() == [u.value_t(np.array([z.t]))[0], 0.0]


def dense_dist_to_domain(s, t, r):
    """Profile distance from (t, r) to the closed domain: a 20001-node grid
    in tau, golden-section search across the two cells around its best node,
    and the ball in closed form."""
    def gap(tau):
        return math.hypot(t - tau, max(0.0, r - tau**s))

    taus = np.linspace(0.0, 1.0, 20001)
    i = int(np.argmin(np.hypot(t - taus, np.maximum(0.0, r - taus**s))))
    a, b = taus[max(i - 1, 0)], taus[min(i + 1, taus.size - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        c, d = b - g * (b - a), a + g * (b - a)
        if gap(c) < gap(d):
            b = d
        else:
            a = c
    best = min(gap(taus[i]), gap(0.5 * (a + b)))
    return min(best, max(0.0, math.hypot(t - 2.0, r) - math.sqrt(2.0)))


class TestCutoffAccuracy:
    @pytest.mark.parametrize("n,s", [(3, 2.0), (5, 1.2), (6, 4.0)])
    def test_distance_and_psi_match_dense_search(self, n, s):
        params = CuspParams(n, s)
        rng = np.random.default_rng(31)
        t = rng.uniform(-0.5, 0.5, 600)
        r = rng.uniform(0.0, 0.5, 600)
        off = (t <= 0.0) | (r > np.abs(t) ** s)  # the collar off the closed domain
        t, r = t[off][:150], r[off][:150]
        want = np.array([dense_dist_to_domain(s, a, b) for a, b in zip(t, r)])
        assert np.max(np.abs(extension._dist_to_domain(params, t, r) - want)) <= 1e-8
        d_out = extension._dist_to_collar_complement(params, t, r)
        X = r[:, None] * random_directions(t.size, n - 1, rng)
        psi = extension.cutoff_psi_points(params, t, X)
        assert np.max(np.abs(psi - d_out / (d_out + want))) <= 1e-8

    def test_two_near_equal_minima_near_the_tip(self):
        # for s < 2 the gap has minima at tau = 0 (0.07150919) and at
        # tau ~ 0.0051 (0.07150677); a search even in tau followed the first
        params = CuspParams(4, 1.5)
        t, r = np.array([-0.002506688]), np.array([0.071465243])
        want = dense_dist_to_domain(1.5, t[0], r[0])
        assert want == pytest.approx(0.0715068, abs=1e-7)
        assert abs(extension._dist_to_domain(params, t, r)[0] - want) <= 1e-8


class TestMembershipOracle:
    @pytest.mark.parametrize("alpha,expect", [(0.5, True), (1.4, True), (1.6, False)])
    def test_examples(self, alpha, expect):
        assert membership_oracle(PowerAlpha(alpha), 2.0, 3, 2.0) is expect

    def test_numeric_oracle(self):
        # finiteness of int t^(s(n-1) - (alpha+1)p) dt, decided by whether the
        # per-decade mass towards t = 0 decays or grows
        n, s, p = 3, 2.0, 2.0
        for alpha in (0.5, 1.4, 1.6):
            expo = s * (n - 1) - (alpha + 1.0) * p
            decades = []
            for hi, lo in ((1e-3, 1e-6), (1e-6, 1e-9)):
                t = np.geomspace(lo, hi, 4000)
                decades.append(np.trapezoid(t**expo, t))
            converges = bool(decades[1] < decades[0])
            assert membership_oracle(PowerAlpha(alpha), p, n, s) is converges

    def test_type_guard(self):
        with pytest.raises(TypeError):
            membership_oracle(ClampT(), 2.0, 3, 2.0)


class TestNormExperiment:
    def test_bracketing_verdicts(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        u = PowerAlpha(1.4)
        rep = extension_norm_experiment(params, spec, u, 2.0, 1.1, shells(5, 30), 2048, 42)
        assert rep.verdict.kind == "Convergent"
        rep = extension_norm_experiment(params, spec, u, 2.0, 1.3, shells(5, 30), 2048, 42)
        assert rep.verdict.kind == "Divergent"

    def test_gradient_tail_rate(self, params):
        # gradient shells scale like t^(2 - 2.4 q): ratio 2^-(e+1)
        spec = ExtensionSpec("R1", Direction.FromInside)
        u = PowerAlpha(1.4)
        rep = extension_norm_experiment(params, spec, u, 2.0, 1.3, shells(5, 30), 2048, 42)
        e = 2.0 - 2.4 * 1.3
        expect = 2.0 ** -(e + 1.0)
        for r in rep.grad_sum.ratios[-4:]:
            assert r == pytest.approx(expect, rel=0.02)

    def test_constant_converges_with_zero_gradient(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        rep = extension_norm_experiment(params, spec, Constant(1.0), 3.0, 1.2,
                                        shells(5, 12), 256, 42)
        assert rep.verdict.kind == "Convergent"
        assert rep.grad_sum.total == 0.0

    def test_inadmissible_u_rejected(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        with pytest.raises(WindowError):
            extension_norm_experiment(params, spec, PowerAlpha(1.6), 2.0, 1.1,
                                      shells(5, 12), 256, 42)

    def test_r2_scheme_runs(self, params):
        spec = ExtensionSpec("R2", Direction.FromInside)
        rep = extension_norm_experiment(params, spec, PowerAlpha(1.4), 2.0, 1.3,
                                        shells(5, 24), 1024, 42)
        # q = 1.3 < q_max_r2 = 10/7: admissible through the second reflection
        assert rep.verdict.kind == "Convergent"

    def test_ratio_where_both_norms_underflow(self):
        # at n = 200 both norms are below the floats; the ratio is read from
        # their logs, not as 0 / 0
        params = CuspParams(200, 2.0)
        spec = ExtensionSpec("R1", Direction.FromInside)
        u, p, q, shl = PowerAlpha(1.4), 2.0, 1.2, shells(5, 30)
        rep = extension_norm_experiment(params, spec, u, p, q, shl, 256, 42)
        [(lp, semi)] = sobolev.function_shell_loops(params, [extension._window_loop(u, p)], shl,
                                                    256, 42)
        log_u = np.logaddexp(lp.log_total / p, semi.log_total / p)
        log_ext = np.logaddexp(rep.value_sum.log_total / q, rep.grad_sum.log_total / q)
        assert rep.u_norm == 0.0
        assert 0.0 < rep.ratio < math.inf
        assert rep.ratio == pytest.approx(math.exp(log_ext - log_u), rel=1e-12)

    def test_report_carries_the_norms_logs(self, params):
        # at n = 200 the norm of u underflows to 0 and its log stays finite;
        # where the norms are normal floats, the logs are theirs
        spec = ExtensionSpec("R1", Direction.FromInside)
        rep = extension_norm_experiment(CuspParams(200, 2.0), spec, PowerAlpha(1.4), 2.0, 1.2,
                                        shells(5, 30), 256, 42)
        assert rep.u_norm == 0.0
        assert math.isfinite(rep.log_u_norm) and math.isfinite(rep.log_ext_norm)
        assert rep.ratio == pytest.approx(math.exp(rep.log_ext_norm - rep.log_u_norm), rel=1e-12)
        rep = extension_norm_experiment(params, spec, PowerAlpha(1.4), 2.0, 1.1,
                                        shells(5, 12), 256, 42)
        assert math.exp(rep.log_u_norm) == pytest.approx(rep.u_norm, rel=1e-12)
        assert math.exp(rep.log_ext_norm) == pytest.approx(rep.ratio * rep.u_norm, rel=1e-12)


def clampt_region_e_grad(n, s, q, k):
    """Exact gradient L^q mass of clamp(t, 0, 1) o R over region E /\\ shell k:
    T = r^(1/s) has grad T = (0, r^(1/s-1)/s) and u'(T) = 1, so the mass is
    s^-q times the integral of r^((1/s-1)q) over |t| in [a, b],
    |t|^s <= r <= 2^-s, in the measure |S^(n-2)| r^(n-2) dr dt."""
    a, b = 2.0 ** (-k - 1), 2.0 ** (-k)
    sphere = (n - 1) * geometry.unit_ball_volume(n - 1)
    beta = (1.0 / s - 1.0) * q + n - 1.0  # exponent of the radial antiderivative
    e = s * beta + 1.0
    inner = ((b - a) * 0.5 ** (s * beta) - (b**e - a**e) / e) / beta
    return 2.0 * sphere * s**-q * inner


class TestClampRegionE:
    """Region E's gradient term of clamp(t, 0, 1) is sampled with its radial
    power r^((1/s-1)q), so its shells match the closed form on both sides of
    the threshold q = (1 + (n-1)s)/(s-1) = 5 (n = 3, s = 2)."""

    @pytest.mark.parametrize("q", [3.5, 5.5])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_grad_shells_match_closed_form(self, params, q, seed):
        shl = shells(5, 30)
        loop = extension._region_loop(params, ClampT(), q, RegionLabel.RegionE)
        _, grad = sobolev.function_shell_loops(params, [loop], shl, 1024, seed)[0]
        for sh in shl:
            want = clampt_region_e_grad(3, 2.0, q, sh.k)
            assert grad.contributions[sh.k] == pytest.approx(want, rel=5e-3), sh.k

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_divergent_past_threshold(self, params, seed):
        rep = extension_norm_experiment(params, ExtensionSpec("R2", Direction.FromInside),
                                        ClampT(), 8.0, 5.5, shells(5, 30), 1024, seed)
        assert rep.verdict.kind == "Divergent"


class TestDrawCount:
    """Each (region, shell) of a norm experiment is drawn once for all its
    terms: the collar regions under "extval", the cusp window under "lp"."""

    @pytest.mark.parametrize("scheme,u", [("R1", PowerAlpha(1.4)), ("R2", PowerAlpha(1.4)),
                                          ("R2", ClampT())], ids=["R1", "R2", "R2-clampt"])
    def test_one_draw_per_region_and_shell(self, monkeypatch, params, scheme, u):
        calls = spy_rng(monkeypatch)
        spec = ExtensionSpec(scheme, Direction.FromInside)
        shl = shells(5, 12)
        extension_norm_experiment(params, spec, u, 2.0, 1.3, shl, 64, 3)
        regions = geometry.chart_regions(spec.outer_chart)
        assert len(calls) == (len(regions) + 1) * len(shl)
        drawn = {(label, k) for _, k, label, _ in calls}
        assert drawn == {(label, sh.k) for label in (*regions, RegionLabel.CuspInterior)
                         for sh in shl}
        assert {salt for *_, salt in calls} <= {"extval", "lp"}

    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_every_draw_goes_through_sample_profile(self, monkeypatch, params, scheme):
        # serial (one allowed CPU), so that every draw is made here: one
        # `sample_profile` call per (region, shell), E's tilted terms too
        force_split(monkeypatch, False)
        draws = spy_draws(monkeypatch)
        spec = ExtensionSpec(scheme, Direction.FromInside)
        shl = shells(5, 12)
        extension_norm_experiment(params, spec, PowerAlpha(1.4), 2.0, 1.3, shl, 64, 3)
        regions = (*geometry.chart_regions(spec.outer_chart), RegionLabel.CuspInterior)
        got = [(region, k) for region, k, _ in draws]
        assert sorted(got, key=str) == sorted(((region, sh.k) for region in regions
                                               for sh in shl), key=str)


class TestNormReadsOnlyTheTRow:
    """The norm integrands read T, T_t and T_r alone: no chart piece's full
    profile, and the radius only where T depends on it."""

    @pytest.mark.parametrize("u,p,q", [(PowerAlpha(1.4), 2.0, 1.1), (ClampT(), 3.0, 2.0)],
                             ids=["power", "clampt"])
    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_radius_read_only_on_b_and_e(self, monkeypatch, params, scheme, u, p, q):
        def refuse(*args, **kwargs):
            raise AssertionError("piece_profile called")

        monkeypatch.setattr(reflections, "piece_profile", refuse)
        calls = spy_rng(monkeypatch)
        read = set()
        radius = geometry.ProfileSample.r

        def spy(prof):
            read.add(calls[-1][2])
            return radius.__get__(prof, geometry.ProfileSample)

        monkeypatch.setattr(geometry.ProfileSample, "r", property(spy))
        spec = ExtensionSpec(scheme, Direction.FromInside)
        extension_norm_experiment(params, spec, u, p, q, shells(5, 12), 64, 3)
        want = {"R1": RegionLabel.RegionB, "R2": RegionLabel.RegionE}[scheme]
        assert read == {want}

    @pytest.mark.parametrize("u,p,q", [(PowerAlpha(1.4), 2.0, 1.1), (ClampT(), 3.0, 2.0)],
                             ids=["power", "clampt"])
    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_t_only_shells_never_form_the_band(self, monkeypatch, params, scheme, u, p, q):
        # the radial band of a draw is formed on the first read of a radius:
        # of A, C, D and the cusp window, whose integrands read t alone, none
        draws = spy_draws(monkeypatch)
        spec = ExtensionSpec(scheme, Direction.FromInside)
        extension_norm_experiment(params, spec, u, p, q, shells(5, 12), 64, 3)
        t_only = {"R1": {RegionLabel.RegionA, RegionLabel.RegionC},
                  "R2": {RegionLabel.RegionD}}[scheme] | {RegionLabel.CuspInterior}
        assert t_only <= {region for region, _, _ in draws}
        formed = {region for region, _, draw in draws if "_band" in vars(draw)}
        assert formed == ({RegionLabel.RegionE} if scheme == "R2" else set())

    @pytest.mark.parametrize("u,p,q", [(PowerAlpha(1.4), 2.0, 1.1), (ClampT(), 3.0, 2.0)],
                             ids=["power", "clampt"])
    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_no_collar_region_calls_hypot(self, monkeypatch, params, scheme, u, p, q):
        # every collar T-row has a constant zero entry, so |grad T| is the
        # other entry's modulus
        calls = []
        hypot = np.hypot

        def spy(*args, **kwargs):
            calls.append(args)
            return hypot(*args, **kwargs)

        monkeypatch.setattr(np, "hypot", spy)
        spec = ExtensionSpec(scheme, Direction.FromInside)
        extension_norm_experiment(params, spec, u, p, q, shells(5, 12), 64, 3)
        assert calls == []
        extension._log_grad_T(np.ones(3), np.ones(3))  # the spy sees an array pair
        assert len(calls) == 1

    @pytest.mark.parametrize("label", list(geometry.COLLAR_REGIONS))
    def test_log_grad_T_matches_log_hypot(self, params, label):
        prof = sample_profile(params, label, [Shell(6)], 256, [derive_rng(2, 6, label)])
        _, T_t, T_r = reflections.piece_T_row(label, params, prof.t, lambda: prof.r)
        shape = prof.t.shape
        want = np.log(np.hypot(np.broadcast_to(T_t, shape), np.broadcast_to(T_r, shape)))
        got = extension._log_grad_T(T_t, T_r)
        assert np.array_equal(np.broadcast_to(got, shape), want)
        assert np.ndim(got) == (label is RegionLabel.RegionE)


def _plant_nan(monkeypatch, region):
    """Make `piece_T_row` return a nan in the first T_t of the region's
    piece, so that only the gradient integrand of the region meets one."""
    row = reflections.piece_T_row

    def planted(label, prm, t, radius):
        T, T_t, T_r = row(label, prm, t, radius)
        if label is region:
            T_t = np.full(np.shape(T), T_t)
            T_t.flat[0] = np.nan
        return T, T_t, T_r

    monkeypatch.setattr(reflections, "piece_T_row", planted)


class TestNonFiniteNorm:
    """A nan in a norm integrand raises at once, with no redraw: the shell is
    drawn in its block of shells, and once more alone when the block is rerun
    shell by shell to find the first failing shell."""

    def test_raises_after_one_draw(self, monkeypatch, params):
        _plant_nan(monkeypatch, RegionLabel.RegionE)
        calls = spy_rng(monkeypatch)
        spec = ExtensionSpec("R2", Direction.FromInside)
        with pytest.raises(sobolev.NonFiniteIntegrandError, match="RegionE, shell 5$"):
            extension_norm_experiment(params, spec, PowerAlpha(1.4), 2.0, 1.3,
                                      shells(5, 12), 64, 3)
        shell_calls = [c for c in calls if c[1:3] == (5, RegionLabel.RegionE)
                       and c[3].startswith("extval")]
        assert shell_calls == [(3, 5, RegionLabel.RegionE, "extval")] * 2
        assert calls[-1] == shell_calls[0]

    def test_extendnorm_exits_3(self, monkeypatch, tmp_path, capsys):
        from cuspreflect.cli import main

        _plant_nan(monkeypatch, RegionLabel.RegionE)
        out = tmp_path / "out.csv"
        assert main(["extendnorm", "--scheme", "r2", "--p", "2", "--q", "1.3",
                     "--samples", "64", "--k-max", "12", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: non-finite integrand values on RegionE, shell 5\n"
        assert not out.exists()


class TestNormSplit:
    """The norm shells split with the shell worker against the serial loop:
    the same bits and the same first error."""

    @pytest.mark.parametrize("k_max", [16, 15])
    @pytest.mark.parametrize("u", [PowerAlpha(0.4), ClampT(), Constant(2.0)],
                             ids=["power", "clampt", "const"])
    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_experiment_bit_identical(self, monkeypatch, params, scheme, u, k_max):
        spec = ExtensionSpec(scheme, Direction.FromInside)
        shl = shells(5, k_max)
        runs = []
        for split in (False, True):
            force_split(monkeypatch, split)
            rep = extension_norm_experiment(params, spec, u, 3.0, 1.5, shl, 256, 11)
            loops = [extension._region_loop(params, u, 1.5, region)
                     for region in geometry.chart_regions(spec.outer_chart)]
            regions = [sobolev.function_shell_loops(params, [loop], shl, 256, 11)[0]
                       for loop in loops]
            window = sobolev.function_shell_loops(params, [extension._window_loop(u, 3.0)], shl,
                                                  256, 11)[0]
            sums = [rep.value_sum, rep.grad_sum, rep.total_sum, *window]
            sums += [ss for pair in regions for ss in pair]
            assert {ss.processes for ss in sums} == {1 + split}
            assert rep.processes == 1 + split
            runs.append((hex_sums(sums), rep.u_norm.hex(), rep.ratio.hex(), rep.verdict))
        assert runs[0] == runs[1]

    def test_seminorm_bit_identical(self, monkeypatch, params):
        runs = []
        for split in (False, True):
            force_split(monkeypatch, split)
            ss = sobolev.sobolev_seminorm(params, PowerAlpha(0.5), RegionLabel.CuspInterior,
                                          2.0, shells(1, 40), 512, 9)
            assert ss.processes == 1 + split
            runs.append(hex_sums([ss]))
        assert runs[0] == runs[1]

    def test_split_draws_the_even_shells_here(self, monkeypatch, params):
        force_split(monkeypatch, True)
        calls = spy_rng(monkeypatch)
        spec = ExtensionSpec("R1", Direction.FromInside)
        extension_norm_experiment(params, spec, PowerAlpha(1.4), 2.0, 1.1, shells(5, 12), 64, 3)
        regions = (*geometry.chart_regions(spec.outer_chart), RegionLabel.CuspInterior)
        assert [(label, k) for _, k, label, _ in calls] == [
            (label, k) for label in regions for k in range(5, 13, 2)]

    @pytest.mark.parametrize("planted", [{8}, {7}, {8, 9}, {7, 8}])
    def test_first_error_matches_serial(self, monkeypatch, params, planted):
        # shell 8 is the worker's, shell 7 this process's; region D meets it first
        plant_nan_on_shells(monkeypatch, planted)
        spec = ExtensionSpec("R2", Direction.FromInside)
        errors = []
        for split in (False, True):
            force_split(monkeypatch, split)
            with pytest.raises(sobolev.NonFiniteIntegrandError) as exc:
                extension_norm_experiment(params, spec, PowerAlpha(1.4), 2.0, 1.3,
                                          shells(5, 12), 64, 3)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == (
            f"non-finite integrand values on RegionD, shell {min(planted)}")

    @pytest.mark.parametrize("planted", [{8}, {7}])
    def test_extendnorm_exits_3_with_the_serial_stderr(self, monkeypatch, tmp_path, capsys,
                                                       planted):
        from cuspreflect.cli import main

        plant_nan_on_shells(monkeypatch, planted)
        errs = []
        for split in (False, True):
            force_split(monkeypatch, split)
            out = tmp_path / "out.csv"
            assert main(["extendnorm", "--scheme", "r2", "--p", "2", "--q", "1.3",
                         "--samples", "64", "--k-max", "12", "--out", str(out)]) == 3
            assert not out.exists()
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            f"error: non-finite integrand values on RegionD, shell {min(planted)}\n")

    def test_cli_same_bytes_split_or_not(self, monkeypatch, tmp_path):
        from cuspreflect.cli import main

        outputs = []
        for split in (True, False):
            force_split(monkeypatch, split)
            out = tmp_path / f"{split}.csv"
            assert main(["extendnorm", "--scheme", "r2", "--function", "clampt", "--p", "3",
                         "--q", "2", "--samples", "256", "--k-max", "20", "--out",
                         str(out)]) == 0
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert manifest["processes"] == 1 + split
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestShellBlocks:
    """A norm loop evaluates blocks of consecutive shells in one pass, at
    most BLOCK_VALUES values (terms x shells x samples) each: any block size
    gives the one-shell blocks' bits and first error."""

    _SHELLS = shells(5, 16)
    _SAMPLES = 1024

    def _all_sums(self, params, scheme, u):
        spec = ExtensionSpec(scheme, Direction.FromInside)
        loops = [extension._region_loop(params, u, 1.3, region)
                 for region in geometry.chart_regions(spec.outer_chart)]
        sums = sobolev.function_shell_loops(params, [*loops, extension._window_loop(u, 2.0)],
                                            self._SHELLS, self._SAMPLES, 5)
        semi = sobolev.sobolev_seminorm(params, u, RegionLabel.CuspInterior, 2.0, self._SHELLS,
                                        self._SAMPLES, 5)
        return [ss for pair in sums for ss in pair] + [semi]

    @pytest.mark.parametrize("u", [PowerAlpha(1.4), ClampT(), Constant(0.0)],
                             ids=["power", "clampt", "const0"])
    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_block_size_keeps_the_bits(self, monkeypatch, params, scheme, u):
        # one shell per block (the per-shell loop), the default (blocks of 8
        # shells, 4 on region E's two tilts) and a whole loop per block
        whole = 2 * len(self._SHELLS) * self._SAMPLES
        runs = {}
        for values in (1, sobolev.BLOCK_VALUES, whole):
            monkeypatch.setattr(sobolev, "BLOCK_VALUES", values)
            for split in (False, True):
                force_split(monkeypatch, split)
                sums = self._all_sums(params, scheme, u)
                assert {ss.processes for ss in sums} == {1 + split}
                runs[values, split] = hex_sums(sums)
                sobolev._stop_worker()  # the next worker forks with the next block size
        assert len({str(run) for run in runs.values()}) == 1

    def test_blocks_hold_several_shells(self, monkeypatch, params):
        sizes = []
        estimate = sobolev.shell_estimate

        def spy(params, region, shells, *args, **kwargs):
            sizes.append((region, len(shells)))
            return estimate(params, region, shells, *args, **kwargs)

        monkeypatch.setattr(sobolev, "shell_estimate", spy)
        force_split(monkeypatch, False)
        self._all_sums(params, "R2", PowerAlpha(1.4))
        assert sizes == [(RegionLabel.RegionD, 8), (RegionLabel.RegionD, 4),
                         (RegionLabel.RegionE, 4), (RegionLabel.RegionE, 4),
                         (RegionLabel.RegionE, 4), (RegionLabel.CuspInterior, 8),
                         (RegionLabel.CuspInterior, 4), (RegionLabel.CuspInterior, 8),
                         (RegionLabel.CuspInterior, 4)]

    @pytest.mark.parametrize("split", [False, True])
    def test_nan_in_the_middle_of_a_block_names_its_shell(self, monkeypatch, params, split):
        # serial, shell 9 sits in region A's block of shells 5-12; split, in
        # this process's block of shells 5, 7, ..., 15 (the worker has 6, 8, ...)
        plant_nan_on_shells(monkeypatch, {9})
        draws = spy_draws(monkeypatch)
        force_split(monkeypatch, split)
        spec = ExtensionSpec("R1", Direction.FromInside)
        with pytest.raises(sobolev.NonFiniteIntegrandError) as exc:
            extension_norm_experiment(params, spec, PowerAlpha(1.4), 2.0, 1.3, self._SHELLS,
                                      self._SAMPLES, 5)
        assert str(exc.value) == "non-finite integrand values on RegionA, shell 9"
        # the block, then its shells one at a time up to shell 9
        block = list(range(5, 13)) if not split else list(range(5, 17, 2))
        reruns = list(range(5, 10)) if not split else [5, 7, 9]
        assert [k for region, k, _ in draws if region is RegionLabel.RegionA] == block + reruns


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_non_finite_p_is_refused_before_any_draw(monkeypatch, params, p):
    # p = inf is no window: a WindowError, not a nan exponent or a
    # NonFiniteIntegrandError on the first shell
    draws = spy_draws(monkeypatch)
    with pytest.raises(WindowError, match="1 <= q < p < inf"):
        sobolev.predicted_shell_exponent(RegionLabel.RegionA, p, 2.0, 3, 2.0)
    with pytest.raises(WindowError, match="1 <= q < p < inf"):
        sobolev.distortion_integral(params, geometry.ChartId.R1Outer, RegionLabel.RegionA, p, 2.0,
                                    shells(5, 12), 64, 3)
    for scheme in ("R1", "R2"):
        with pytest.raises(WindowError, match="1 <= q < p < inf"):
            extension_norm_experiment(params, ExtensionSpec(scheme, Direction.FromInside),
                                      PowerAlpha(0.4), p, 2.0, shells(5, 12), 64, 3)
    assert draws == []


# ---------------------------------------------------------------------------
# The direction-drawing integrands that the t-only integrands replaced, kept
# as the reference: each sample draws a uniform cross-section direction after
# the profile and projects the gradient onto it and its complement.
# ---------------------------------------------------------------------------

def reference_shell_estimate(params, region, shell, integrand, samples, seed_parts,
                             radial_tilt=0.0):
    """`shell_estimate` with an integrand that also takes the shell's rng."""
    seed, k, salt = seed_parts
    rng = derive_rng(seed, k, region, salt=salt)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        prof = sample_profile(params, region, [shell], samples, [rng]).profile(radial_tilt)
        weighted = np.exp(prof.log_weight) * integrand(prof.t, prof.r, rng)
        if np.isnan(weighted).any():
            raise sobolev.NonFiniteIntegrandError(region, shell)
        return math.exp(prof.log_measure) * float(np.mean(weighted))


def reference_composed_terms(params, u, q, region, shell, samples, seed):
    n, s = params.n, params.s
    dim = n - 1
    tilts = (0.0, 0.0)
    if region is RegionLabel.RegionE and isinstance(u, PowerAlpha):
        tilts = (u.alpha * q / s, (u.alpha + s) * q / s)
    elif region is RegionLabel.RegionE and isinstance(u, ClampT):
        tilts = (0.0, (s - 1.0) * q / s)

    def value_integrand(t, r, rng):
        T = reflections.profile_jet(region, params, t, r)[0]
        return np.abs(u.value_t(T)) ** q

    def grad_integrand(t, r, rng):
        T, T_t, T_r, phi, phi_t, phi_r = reflections.piece_profile(region, params, t, r)
        dirs = random_directions(t.size, dim, rng)
        g_t, g_x = u.deriv_t(T), np.zeros((t.size, dim))
        g_par = np.sum(g_x * dirs, axis=1)
        g_perp = g_x - g_par[:, None] * dirs
        with np.errstate(invalid="ignore", divide="ignore"):
            tang = np.where(r > 0.0, phi / np.where(r > 0.0, r, 1.0), phi_r)
        d_t = g_t * T_t + g_par * phi_t
        d_rad = g_t * T_r + g_par * phi_r
        d_perp2 = tang**2 * np.sum(g_perp**2, axis=1)
        return (d_t**2 + d_rad**2 + d_perp2) ** (q / 2.0)

    return tuple(
        reference_shell_estimate(params, region, shell, f, samples, (seed, shell.k, salt), tilt)
        for f, salt, tilt in ((value_integrand, "extval", tilts[0]),
                              (grad_integrand, "extval", tilts[1]))
    )


def reference_function_shells(params, u, p, shl, samples, seed, semi_salt):
    """(L^p, seminorm) contributions over the cusp window, the seminorm drawn
    under `semi_salt`."""
    dim = params.n - 1

    def lp(t, X):
        return np.abs(u.value_t(t)) ** p

    def semi(t, X):
        g_t, g_x = u.deriv_t(t), np.zeros_like(X)
        return np.sqrt(g_t**2 + np.sum(g_x**2, axis=1)) ** p

    def shells_of(pointwise, salt):
        def integrand(t, r, rng):
            return pointwise(t, r[:, None] * random_directions(t.size, dim, rng))

        return [reference_shell_estimate(params, RegionLabel.CuspInterior, sh, integrand,
                                         samples, (seed, sh.k, salt)) for sh in shl]

    return shells_of(lp, "lp"), shells_of(semi, semi_salt)


_FUNCTIONS = [PowerAlpha(1.2), ClampT(), Constant(2.5)]
_PARAMS = [(3, 2.0), (4, 1.5)]


def _matches(got, want) -> bool:
    """A log-form shell against the float reference: within 1e-12 relative
    where the reference is finite and nonzero, exactly at 0 and inf."""
    if math.isfinite(want) and want != 0.0:
        return got == pytest.approx(want, rel=1e-12)
    return got == want


class TestProfileIntegrands:
    """The t-only integrands match the direction-drawing reference."""

    @pytest.mark.parametrize("n,s", _PARAMS)
    @pytest.mark.parametrize("u", _FUNCTIONS, ids=["power", "clampt", "const"])
    @pytest.mark.parametrize("scheme", ["R1", "R2"])
    def test_composed_terms_match_reference(self, n, s, u, scheme):
        params = CuspParams(n, s)
        spec = ExtensionSpec(scheme, Direction.FromInside)
        q = 1.3
        shl = shells(5, 10)
        for region in geometry.chart_regions(spec.outer_chart):
            loop = extension._region_loop(params, u, q, region)
            got_value, got_grad = sobolev.function_shell_loops(params, [loop], shl, 256, 7)[0]
            for sh in shl:
                got = (got_value.contributions[sh.k], got_grad.contributions[sh.k])
                want = reference_composed_terms(params, u, q, region, sh, 256, 7)
                assert all(map(_matches, got, want)), (region, sh.k, got, want)

    @pytest.mark.parametrize("n,s", _PARAMS)
    @pytest.mark.parametrize("u", _FUNCTIONS, ids=["power", "clampt", "const"])
    def test_function_shells_match_reference(self, n, s, u):
        params = CuspParams(n, s)
        shl = shells(3, 10)
        lp, semi = sobolev.function_shell_loops(params, [extension._window_loop(u, 2.0)], shl,
                                                256, 7)[0]
        want_lp, want_semi = reference_function_shells(params, u, 2.0, shl, 256, 7, "lp")
        assert all(map(_matches, lp.contributions.values(), want_lp))
        assert all(map(_matches, semi.contributions.values(), want_semi))
        semi = sobolev.sobolev_seminorm(params, u, RegionLabel.CuspInterior, 2.0, shl, 256, 7)
        want_semi = reference_function_shells(params, u, 2.0, shl, 256, 7, "semi")[1]
        assert all(map(_matches, semi.contributions.values(), want_semi))


# Float hex of extension_norm_experiment(n=3, s=2, power:1.4, p=2, k=5..12,
# 256 samples, seed 7), recorded with one draw per (region, shell) for all
# its terms, the sampler's inverse CDF scaled to the top of its interval,
# the shells reduced and summed in log form, and the integrands read from
# the chart T-row and the test function's log form.
_PINNED = {
    ("R1", 1.1): (
        ["0x1.aab7a017a114ep-5", "0x1.379848a0933cep-6", "0x1.c3581434b3bdap-8",
         "0x1.484972b88760fp-9", "0x1.de1eb5f9acfa3p-11", "0x1.5b57c9ef74762p-12",
         "0x1.f7cfa09085dc0p-14", "0x1.6e48a014103ecp-15"],
        ["0x1.32b7887e5f530p+2", "0x1.e2e73c242d156p+1", "0x1.753985925c9ddp+1",
         "0x1.23214a5914830p+1", "0x1.c78936723989fp+0", "0x1.6244306d31282p+0",
         "0x1.1292990847fb2p+0", "0x1.abe22d14adca7p-1"],
        "0x1.9f1b3870baa04p+1", "0x1.1e8e14c6eb95ap+2",
    ),
    ("R2", 1.3): (
        ["0x1.455559b6ed866p-5", "0x1.4593f7203adbfp-6", "0x1.45a1e0c971614p-7",
         "0x1.45a4ef67132e4p-8", "0x1.45a59ba64346bp-9", "0x1.45a5c171e9795p-10",
         "0x1.45a5c9d84f2aep-11", "0x1.45a5cbb3602c8p-12"],
        ["0x1.0c0d152b976a9p+1", "0x1.882068c700894p+0", "0x1.1781c06eb4e09p+0",
         "0x1.86d159ce38c35p-1", "0x1.0df7478892e5dp-1", "0x1.71b5a4e0ba4d8p-2",
         "0x1.f6ff9b5cc7340p-3", "0x1.5484cc342c29dp-3"],
        "0x1.9f1b3870baa04p+1", "0x1.636099271db39p+0",
    ),
}


class TestDeterminism:
    @pytest.mark.parametrize("scheme,q", sorted(_PINNED))
    def test_pinned_float_hex(self, params, scheme, q):
        values, grads, u_norm, ratio = _PINNED[(scheme, q)]
        rep = extension_norm_experiment(params, ExtensionSpec(scheme, Direction.FromInside),
                                        PowerAlpha(1.4), 2.0, q, shells(5, 12), 256, 7)
        assert [v.hex() for v in rep.value_sum.contributions.values()] == values
        assert [v.hex() for v in rep.grad_sum.contributions.values()] == grads
        assert (rep.u_norm.hex(), rep.ratio.hex()) == (u_norm, ratio)

    def test_norm_terms_draw_no_directions(self, params, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random_directions called")

        original = geometry.random_directions
        for name, module in list(sys.modules.items()):
            if name.startswith("cuspreflect") and \
                    getattr(module, "random_directions", None) is original:
                monkeypatch.setattr(module, "random_directions", refuse)
        u = PowerAlpha(1.4)
        for scheme, q in sorted(_PINNED):
            extension_norm_experiment(params, ExtensionSpec(scheme, Direction.FromInside), u,
                                      2.0, q, shells(5, 10), 64, 7)
        sobolev.sobolev_seminorm(params, ClampT(), RegionLabel.CuspInterior, 2.0, shells(3, 8),
                                 64, 7)
        sobolev.function_shell_loops(params, [extension._window_loop(ClampT(), 2.0)],
                                     shells(3, 8), 64, 7)


class TestHolderProbe:
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_exponent(self, s):
        probe = holder_probe(CuspParams(3, s), [2.0 ** (-k) for k in range(3, 11)])
        assert probe.exponent == pytest.approx(1.0 / s, abs=0.02)
        assert probe.residual < 1e-3

    def test_exact_oscillation(self, params):
        probe = holder_probe(params, [0.1, 0.05, 0.025])
        for t, osc, diam in zip(probe.t_values, probe.oscillations, probe.diameters):
            assert osc == pytest.approx(t, rel=1e-12)
            assert diam == pytest.approx(2.0 * t**2, rel=1e-15)

    def test_degenerate_heights_rejected(self, params):
        with pytest.raises(ValueError):
            holder_probe(params, [0.1, 0.1, 0.1])
        with pytest.raises(WindowError):
            holder_probe(params, [0.1, 0.2, 0.7])


def test_trace_continuity_through_wall(params):
    # continuous data: inner and outer limits agree across the wall
    spec = ExtensionSpec("R1", Direction.FromInside)
    u = ClampT()
    for t in np.geomspace(1e-4, 0.45, 40):
        wall = t**params.s
        lo = extend_eval(spec, params, u, Point(t, [wall * (1 - 1e-10), 0.0]))
        hi = extend_eval(spec, params, u, Point(t, [wall * (1 + 1e-10), 0.0]))
        assert abs(lo - hi) < 1e-8
