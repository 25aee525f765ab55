import subprocess
import sys

import numpy as np
import pytest
from conftest import package_env

from cuspreflect.errors import ChartDomainError, WindowError
from cuspreflect.extension import (
    ClampT,
    Constant,
    Direction,
    ExtensionSpec,
    PowerAlpha,
    RadialBump,
    cutoff_psi,
    extend_eval,
    extend_global,
    extend_gradient,
    extension_norm_experiment,
    holder_probe,
    membership_oracle,
)
from cuspreflect.geometry import CuspParams, Point, RegionLabel, Shell, sample_region, shells


class TestTestFunctions:
    def test_power_value_and_gradient(self):
        u = PowerAlpha(1.4)
        z = Point(0.3, [0.01, 0.0])
        assert u.value(z) == pytest.approx(0.3**-1.4)
        g = u.gradient(z)
        assert g[0] == pytest.approx(-1.4 * 0.3**-2.4)
        assert np.all(g[1:] == 0.0)

    def test_power_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            PowerAlpha(1.0).value(Point(-0.1, [0.0, 0.0]))
        with pytest.raises(WindowError):
            PowerAlpha(-1.0)

    def test_clamp(self):
        u = ClampT()
        assert u.value(Point(-0.5, [0.0, 0.0])) == 0.0
        assert u.value(Point(0.4, [0.0, 0.0])) == 0.4
        assert u.value(Point(1.5, [0.0, 0.0])) == 1.0
        assert u.gradient(Point(0.4, [0.0, 0.0]))[0] == 1.0
        assert u.gradient(Point(-0.4, [0.0, 0.0]))[0] == 0.0

    def test_constant(self):
        u = Constant(2.5)
        assert u.value(Point(0.1, [0.2, 0.0])) == 2.5
        assert np.all(u.gradient(Point(0.1, [0.2, 0.0])) == 0.0)

    def test_bump_support_and_peak(self):
        u = RadialBump(center=[0.0, 0.0, 0.0], radius=0.5)
        assert u.value(Point(0.0, [0.0, 0.0])) == pytest.approx(1.0)
        assert u.value(Point(0.6, [0.0, 0.0])) == 0.0
        assert u.value(Point(0.0, [0.51, 0.0])) == 0.0

    @pytest.mark.parametrize("u,z", [
        (PowerAlpha(1.2), Point(0.3, [0.05, 0.02])),
        (ClampT(), Point(0.4, [0.1, 0.0])),
        (RadialBump([0.1, 0.0, 0.0], 0.4), Point(0.2, [0.1, 0.05])),
        (RadialBump([0.1, 0.02, 0.0], 0.4), Point(0.25, [0.12, -0.04])),
    ])
    def test_gradient_matches_fd(self, u, z):
        # central-difference oracle away from kinks
        h = 1e-6
        base = z.as_array()
        g = u.gradient(z)
        for j in range(3):
            zp, zm = base.copy(), base.copy()
            zp[j] += h
            zm[j] -= h
            fd = (u.value(Point(zp[0], zp[1:])) - u.value(Point(zm[0], zm[1:]))) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestExtensionSpec:
    def test_valid(self):
        ExtensionSpec("R1", Direction.FromInside)
        ExtensionSpec("r2", Direction.FromInside)
        ExtensionSpec("R1", Direction.FromOutside)

    def test_r2_inward_rejected(self):
        with pytest.raises(WindowError):
            ExtensionSpec("R2", Direction.FromOutside)


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
        assert extend_eval(spec, params, u, z) == u.value(z)

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

    def test_import_leaves_scipy_optimize_unloaded(self):
        # cutoff_psi imports the minimiser on first use, not at package import
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cuspreflect; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, check=True, env=package_env(),
        )
        assert proc.stdout.strip() == "False"

    def test_product_contract(self, params):
        spec = ExtensionSpec("R1", Direction.FromInside)
        u = PowerAlpha(0.5)
        z = Point(0.2, [0.01, 0.0])
        assert extend_global(spec, params, u, z) == u.value(z)
        assert extend_global(spec, params, u, Point(-0.7, [0.1, 0.0])) == 0.0


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
