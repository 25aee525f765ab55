import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspreflect.errors import EmptyRegionError, WindowError
from cuspreflect.geometry import (
    CuspParams,
    Point,
    RegionLabel,
    Shell,
    classify,
    classify_profile,
    sample_region,
    shell_measure,
    unit_ball_volume,
)
import cuspreflect.geometry as geometry
from cuspreflect import checks


def _set_quad(monkeypatch, label, quad):
    """Give the region's row of the region table the sampling row `quad`."""
    chart, _, shape = geometry._REGIONS[label]
    monkeypatch.setitem(geometry._REGIONS, label, (chart, quad, shape))


class TestParams:
    def test_valid(self):
        CuspParams(3, 1.5)
        CuspParams(7, 10.0)

    @pytest.mark.parametrize("n,s", [(2, 2.0), (3, 1.0), (3, 0.5), (3, math.nan)])
    def test_rejects_bad_window(self, n, s):
        with pytest.raises(WindowError):
            CuspParams(n, s)

    def test_point_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Point(math.nan, [0.0, 0.0])
        with pytest.raises(ValueError):
            Point(0.1, [math.inf, 0.0])

    @pytest.mark.parametrize("kind", [np.array, list, tuple])
    @pytest.mark.parametrize("size", [2, 399])
    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_screen_rejects_each_non_finite_entry(self, kind, size, where, bad):
        # the first or last entry of x, in a cross section of n = 3 or n = 400
        x = [0.25] * size
        x[where] = bad
        with pytest.raises(ValueError, match="^point has non-finite coordinates$"):
            Point(0.1, kind(x))
        with pytest.raises(ValueError, match="^point has non-finite coordinates$"):
            Point(1, kind(x))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_point_screen_rejects_non_finite_t(self, t):
        for x in ([0.0, 0.0], (1, 2), np.zeros(399)):
            with pytest.raises(ValueError, match="^point has non-finite coordinates$"):
                Point(t, x)

    @pytest.mark.parametrize("x", [[0.0, 0.0], (1, 2), [3, -4], (1e308, -1e308),
                                   np.full(399, 5e-324), np.arange(399), [[0.5], [0.25]]])
    def test_point_screen_passes_finite_points(self, x):
        p = Point(2, x)
        assert p.t == 2 and p.x.dtype == float
        assert np.array_equal(p.x, np.asarray(x, dtype=float).reshape(-1))

    def test_shell_interval(self):
        sh = Shell(2)
        assert sh.lo == 0.125 and sh.hi == 0.25
        with pytest.raises(ValueError):
            Shell(0)


class TestClassify:
    def test_cusp_interior(self, params):
        # |x| = 0 < t^s and t = 1/2 sits outside the inner-piece core
        assert classify(params, "R1", Point(0.5, [0.0, 0.0])) is RegionLabel.CuspInterior

    def test_region_a(self, params):
        # t in (-1/2, 0], |x| = 0.1 <= |t| = 0.25
        assert classify(params, "R1", Point(-0.25, [0.1, 0.0])) is RegionLabel.RegionA

    def test_boundary(self, params):
        # |x| = t^s exactly
        assert classify(params, "R1", Point(0.25, [0.0625, 0.0])) is RegionLabel.BoundaryCusp
        assert classify(params, "R2", Point(0.25, [0.0625, 0.0])) is RegionLabel.BoundaryCusp

    def test_region_e(self, params):
        # |t|^s = 0.01 < 0.09 < (1/2)^s = 0.25
        assert classify(params, "R2", Point(0.1, [0.09, 0.0])) is RegionLabel.RegionE

    def test_origin(self, params):
        assert classify(params, "R1", Point(0.0, [0.0, 0.0])) is RegionLabel.Origin
        assert classify(params, "R1", Point(1e-13, [0.0, 0.0])) is RegionLabel.Origin

    def test_outside(self, params):
        assert classify(params, "R1", Point(-0.9, [0.0, 0.0])) is RegionLabel.OutsideNeighborhood
        assert classify(params, "R2", Point(0.1, [0.3, 0.0])) is RegionLabel.OutsideNeighborhood

    def test_ball_interior(self, params):
        assert classify(params, "R1", Point(2.0, [0.5, 0.0])) is RegionLabel.BallInterior

    def test_inner_pieces_r1_only(self, params):
        z = Point(0.25, [0.005, 0.0])  # |x| < t^s/6
        assert classify(params, "R1", z) is RegionLabel.InnerPiece1
        assert classify(params, "R2", z) is RegionLabel.CuspInterior

    def test_inner_breakpoints(self, params):
        t = 0.25
        ts = t**2
        assert classify(params, "R1", Point(t, [ts / 6 * 0.99, 0])) is RegionLabel.InnerPiece1
        assert classify(params, "R1", Point(t, [ts / 6 * 1.01, 0])) is RegionLabel.InnerPiece2
        assert classify(params, "R1", Point(t, [ts / 3 * 1.01, 0])) is RegionLabel.InnerPiece3

    def test_tie_breaks_to_earlier_region(self, params):
        # A before B on |x| = |t|, B before C on |x| = t
        assert classify(params, "R1", Point(-0.2, [0.2, 0.0])) is RegionLabel.RegionA
        assert classify(params, "R1", Point(0.2, [0.2, 0.0])) is RegionLabel.RegionB
        assert classify(params, "R2", Point(-0.3, [0.09, 0.0])) is RegionLabel.RegionD

    def test_rejects_nonfinite(self, params):
        with pytest.raises(ValueError):
            classify(params, "R1", Point(0.1, [0.0, 0.0]) and (math.nan, (0.0, 0.0)))

    def test_rejects_bad_scheme(self, params):
        with pytest.raises(ValueError):
            classify(params, "R3", Point(0.1, [0.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.floats(-0.49, 0.49),
        frac=st.floats(0.01, 0.99),
        s=st.sampled_from([1.5, 2.0, 3.0]),
    )
    def test_wall_always_boundary(self, t, frac, s):
        params = CuspParams(3, s)
        tt = abs(t) + 1e-3
        z = Point(tt, [tt**s, 0.0])
        assert classify(params, "R1", z) is RegionLabel.BoundaryCusp
        assert classify(params, "R2", z) is RegionLabel.BoundaryCusp

    @settings(max_examples=60, deadline=None)
    @given(
        tsign=st.sampled_from([-1.0, 1.0]),
        tmag=st.floats(0.01, 0.48),
        frac=st.floats(0.05, 0.95),
    )
    def test_partition_r1_interior(self, tsign, tmag, frac):
        # every collar point away from interfaces lands in exactly one of A, B, C
        params = CuspParams(3, 2.0)
        t = tsign * tmag
        if t <= 0:
            r = frac * tmag  # inside the cone: A
            want = RegionLabel.RegionA if r < tmag * 0.999 else RegionLabel.RegionA
            got = classify(params, "R1", Point(t, [r, 0.0]))
            assert got in (RegionLabel.RegionA, RegionLabel.RegionB)
            assert (got is RegionLabel.RegionA) == (r <= tmag)
        else:
            r = t**2.0 + frac * (t - t**2.0)
            got = classify(params, "R1", Point(t, [r, 0.0]))
            if abs(r - t**2.0) < 1e-12 * t**2.0:
                assert got is RegionLabel.BoundaryCusp
            else:
                assert got is RegionLabel.RegionC


class TestShellMeasure:
    def test_cusp_slab_closed_form(self, params):
        # n = 3 cross-section is a disk of radius t^s: volume = pi * int t^(2s)
        sh = Shell(1)
        expect = math.pi * (sh.hi**5 - sh.lo**5) / 5.0
        assert shell_measure(params, RegionLabel.CuspInterior, sh) == pytest.approx(expect, rel=1e-14)

    def test_cone_slab_closed_form(self, params):
        sh = Shell(2)
        expect = math.pi * (sh.hi**3 - sh.lo**3) / 3.0
        assert shell_measure(params, RegionLabel.RegionA, sh) == pytest.approx(expect, rel=1e-14)

    def test_shell_outside_region_is_zero(self, params, monkeypatch):
        # shrink a region's scale range so shell 1 misses it entirely
        _set_quad(monkeypatch, RegionLabel.RegionA,
                  geometry._RegionQuad("cone", sign=-1, scale_hi=0.01))
        assert shell_measure(params, RegionLabel.RegionA, Shell(1)) == 0.0

    def test_non_sampleable_label_rejected(self, params):
        with pytest.raises(ValueError):
            shell_measure(params, RegionLabel.BoundaryCusp, Shell(1))

    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5), (5, 3.0)])
    def test_shell_sums_converge_to_volume(self, n, s):
        params = CuspParams(n, s)
        for label in (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC,
                      RegionLabel.RegionD, RegionLabel.RegionE, RegionLabel.InnerPiece2):
            total = sum(shell_measure(params, label, Shell(k)) for k in range(1, 41))
            exact = shell_measure(params, label, (0.0, 0.5))
            assert total == pytest.approx(exact, rel=1e-6)

    def test_brute_force_volume_oracle(self, params):
        # midpoint-quadrature oracle agrees with the closed forms
        from conftest import brute_shell_integral

        for label in (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC,
                      RegionLabel.RegionE, RegionLabel.InnerPiece3):
            vol = brute_shell_integral(params, label, 3, lambda t, r: np.ones_like(r))
            assert vol == pytest.approx(shell_measure(params, label, Shell(3)), rel=1e-3)


def _scalar_log_shell_measure(params, label, shell):
    """The one-shell log measure as plain `math` steps around scalar
    `_log_power_norm` calls: the reference for `_log_shell_masses`."""
    n, s = params.n, params.s
    lo, hi = (shell.lo, shell.hi) if isinstance(shell, Shell) else shell
    a, b = geometry._shell_scale_interval(label, lo, hi)
    if b <= a:
        return -math.inf
    log_a, log_b = math.log(a) if a > 0.0 else -math.inf, math.log(b)
    log_cn = math.log(unit_ball_volume(n - 1))
    q = geometry._REGIONS[label][1]
    norm = geometry._log_power_norm
    if q.kind == "cone":
        return log_cn + float(norm(log_a, log_b, n - 1))
    if q.kind == "slab":
        return math.log(2.0 * (n - 1)) + log_cn + float(norm(log_a, log_b, n - 1))
    if q.kind == "band":
        frac = q.c_hi ** (n - 1) - q.c_lo ** (n - 1)
        return log_cn + math.log(frac) + float(norm(log_a, log_b, s * (n - 1)))
    cusp = float(norm(log_a, log_b, s * (n - 1)))
    if q.kind == "cwedge":
        whole = float(norm(log_a, log_b, n - 1))
    else:
        log_cn += math.log(2.0)
        whole = s * (n - 1) * math.log(0.5) + math.log(b - a)
    return log_cn + whole + math.log(-math.expm1(cusp - whole))


class TestLogShellMeasures:
    # shells k = 1..250, scale intervals (the covered volume, a slice, one
    # past every region's scale_hi) and an empty interval
    SHELLS = [Shell(k) for k in range(1, 251)] + [(0.0, 0.5), (0.1, 0.3), (0.0, 1.0),
                                                   (1.5, 2.0), (0.2, 0.2)]

    @pytest.mark.parametrize("label", geometry.SAMPLEABLE)
    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5), (6, 4.0)])
    def test_equal_the_one_shell_values_bit_for_bit(self, label, n, s):
        params = CuspParams(n, s)
        got = geometry._log_shell_masses(params, label, self.SHELLS)[0]
        want = [_scalar_log_shell_measure(params, label, sh) for sh in self.SHELLS]
        assert got.tolist() == want
        assert [geometry._log_shell_masses(params, label, [sh])[0][0]
                for sh in self.SHELLS] == want
        assert got[-2] == got[-1] == -math.inf
        assert np.isfinite(got[:250]).all()

    def test_shells_past_the_scale_range_are_empty(self, params, monkeypatch):
        _set_quad(monkeypatch, RegionLabel.RegionC, geometry._RegionQuad("cwedge", scale_hi=0.01))
        # scale range [0, 0.01]: shells 1 and 5 miss it, shell 6 straddles it
        shl = [Shell(k) for k in (1, 5, 6, 7)]
        got = geometry._log_shell_masses(params, RegionLabel.RegionC, shl)[0]
        assert got[:2].tolist() == [-math.inf, -math.inf]
        assert got[2:].tolist() == [_scalar_log_shell_measure(params, RegionLabel.RegionC, sh)
                                    for sh in shl[2:]]
        assert np.isfinite(got[2:]).all()
        assert geometry._log_shell_masses(params, RegionLabel.RegionC, [Shell(1)])[0].tolist() \
            == [-math.inf]

    def test_non_sampleable_label_rejected(self, params):
        with pytest.raises(ValueError):
            geometry._log_shell_masses(params, RegionLabel.Origin, [Shell(1)])

    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5), (5, 3.0), (6, 4.0)])
    def test_proposal_masses_bit_for_bit(self, n, s):
        # the log total masses of regions C's and E's scale proposals against
        # the draw-time expressions they replace: cn times the integral of
        # xi^(n-1) over the shell on C, 2 cn (1/2)^(s(n-1)) (b - a) on E
        params = CuspParams(n, s)
        shl = [Shell(k) for k in range(1, 251)] + [(0.1, 0.3), (0.2, 0.2)]
        log_cn = math.log(unit_ball_volume(n - 1))
        for label in (RegionLabel.RegionC, RegionLabel.RegionE):
            want = []
            for sh in shl[:-1]:
                a, b = geometry._shell_scale_interval(label, *((sh.lo, sh.hi)
                                                               if isinstance(sh, Shell) else sh))
                if label is RegionLabel.RegionC:
                    want.append(log_cn + float(geometry._log_power_norm(math.log(a), math.log(b),
                                                                         n - 1.0)))
                else:
                    want.append(math.log(2.0 * (b - a)) + log_cn + s * (n - 1) * math.log(0.5))
            proposals = geometry._log_shell_masses(params, label, shl)[1]
            assert proposals.tolist() == want + [-math.inf]
        for label in geometry.SAMPLEABLE:
            if label not in (RegionLabel.RegionC, RegionLabel.RegionE):
                assert geometry._log_shell_masses(params, label, shl)[1] is None

    @pytest.mark.parametrize("label", [RegionLabel.RegionC, RegionLabel.RegionE])
    def test_handed_proposal_mass_gives_the_same_draw(self, params, monkeypatch, label):
        measures, proposals = geometry._log_shell_masses(params, label, [Shell(4)])
        own = geometry.sample_profile(params, label, Shell(4), 64, np.random.default_rng(4))
        own_weight, own_measure = own.log_weight, own.log_measure  # formed on the first read
        # a draw handed its measure and proposal mass makes no power integral
        monkeypatch.setattr(geometry, "_log_power_norm", None)
        handed = geometry.sample_profile(params, label, Shell(4), 64, np.random.default_rng(4),
                                         log_measure=measures[0], log_proposal=proposals[0])
        assert np.array_equal(handed.log_weight, own_weight)
        assert handed.log_measure == own_measure


class TestSampler:
    def test_containment_region_a(self, params):
        pts = sample_region(params, "R1", RegionLabel.RegionA, Shell(2), 10, 7)
        assert len(pts) == 10
        for p in pts:
            assert -0.25 <= p.t <= -0.125
            assert p.r <= -p.t

    def test_containment_inner_piece1(self, params):
        pts = sample_region(params, "R1", RegionLabel.InnerPiece1, Shell(3), 25, 11)
        for p in pts:
            assert 0.0625 <= p.t <= 0.125
            assert p.r < p.t**2 / 6.0

    def test_determinism(self, params):
        a = sample_region(params, "R1", RegionLabel.RegionB, Shell(4), 20, 123)
        b = sample_region(params, "R1", RegionLabel.RegionB, Shell(4), 20, 123)
        assert all(np.array_equal(x.as_array(), y.as_array()) for x, y in zip(a, b))
        c = sample_region(params, "R1", RegionLabel.RegionB, Shell(4), 20, 124)
        assert not all(np.array_equal(x.as_array(), y.as_array()) for x, y in zip(a, c))

    def test_classify_hit_rate(self, params):
        for scheme, label in [("R1", RegionLabel.RegionC), ("R2", RegionLabel.RegionE),
                              ("R1", RegionLabel.InnerPiece2)]:
            for k in (1, 6, 15):
                pts = sample_region(params, scheme, label, Shell(k), 200, 5)
                assert all(classify(params, scheme, p) is label for p in pts)

    def test_empty_shell_signals(self, params, monkeypatch):
        _set_quad(monkeypatch, RegionLabel.RegionA,
                  geometry._RegionQuad("cone", sign=-1, scale_hi=0.01))
        with pytest.raises(EmptyRegionError):
            sample_region(params, "R1", RegionLabel.RegionA, Shell(1), 10, 7)

    def test_scheme_label_mismatch(self, params):
        with pytest.raises(ValueError):
            sample_region(params, "R2", RegionLabel.RegionA, Shell(1), 10, 7)

    @pytest.mark.parametrize("label", [RegionLabel.RegionA, RegionLabel.RegionC,
                                       RegionLabel.RegionD, RegionLabel.RegionE,
                                       RegionLabel.CuspInterior, RegionLabel.InnerPiece2])
    def test_untilted_radius_drawn_on_first_read(self, monkeypatch, params, label):
        # the band's radius is drawn once, on the first read of `r`, from the
        # variate u2 fixed by the scale draw; the untilted profile is the
        # sample itself, and a tilted one draws its radii at once
        draw = geometry.sample_profile(params, label, Shell(5), 64, np.random.default_rng(3))
        calls = []
        icdf = geometry._power_icdf
        monkeypatch.setattr(geometry, "_power_icdf",
                            lambda *args: calls.append(args) or icdf(*args))
        assert draw.profile(0.0) is draw
        assert calls == []
        r = draw.r
        assert len(calls) == 1 and draw.r is r
        assert np.array_equal(r, icdf(draw.lo_r, draw.hi_r, params.n - 2.0, draw.u2))
        tilted = draw.profile(0.5)
        assert len(calls) == 2 and tilted.profile(1.5) is tilted

    def test_non_sampleable(self, params):
        with pytest.raises(ValueError):
            sample_region(params, "R1", RegionLabel.Origin, Shell(1), 10, 7)

    @pytest.mark.parametrize("label", geometry.SAMPLEABLE)
    def test_band_formed_on_first_read(self, monkeypatch, params, label):
        # the draw takes the whole stream at once; the band [lo_r, hi_r] and
        # u2's squeeze wait for the first read and are then kept
        rng = np.random.default_rng(4)
        draw = geometry.sample_profile(params, label, Shell(4), 64, rng)
        after = rng.random()
        formed = []
        band = draw.band
        draw.band = lambda: formed.append(1) or band()
        draw.profile(0.0)
        assert formed == []
        lo_r, hi_r, u2 = draw.lo_r, draw.hi_r, draw.u2
        assert formed == [1] and draw.u2 is u2
        # a tilted sample reads its parent's band and squeezes u2 no second time
        assert draw.profile(0.5).u2 is u2 and formed == [1]
        _, raw_u2 = _plain_strata(8, 8, np.random.default_rng(4))
        assert np.array_equal(u2, 1e-9 + (1.0 - 2e-9) * raw_u2)
        if label is not RegionLabel.RegionB:
            assert np.all(lo_r <= hi_r)
        ref = np.random.default_rng(4)
        ref.random((2, 8, 8))
        if label is RegionLabel.RegionE:
            ref.random(64)  # the sign draw
        assert ref.random() == after

    @pytest.mark.parametrize("label", geometry.SAMPLEABLE)
    def test_exact_scale_laws_weigh_with_a_scalar_zero(self, params, label):
        draw = geometry.sample_profile(params, label, Shell(4), 64, np.random.default_rng(4))
        proposal = label in (RegionLabel.RegionC, RegionLabel.RegionE)
        assert np.ndim(draw.log_weight) == proposal
        if not proposal:
            assert draw.log_weight == 0.0 and draw.profile(0.0).log_weight == 0.0

    def test_handed_measure_is_used(self, params):
        for label in (RegionLabel.RegionA, RegionLabel.RegionC):
            draw = geometry.sample_profile(params, label, Shell(4), 64, np.random.default_rng(4),
                                           log_measure=-7.25)
            own = geometry.sample_profile(params, label, Shell(4), 64, np.random.default_rng(4))
            assert draw.log_measure == -7.25
            assert own.log_measure == geometry._log_shell_masses(params, label, [Shell(4)])[0][0]

    def test_tilt_frame_made_once_per_draw(self, monkeypatch, params):
        # the tilt cap, log lo_r, log hi_r and the untilted normaliser z_r do
        # not depend on the tilt: every block of tilts reads them from the draw
        def draw():
            return geometry.sample_profile(params, RegionLabel.RegionE, Shell(6), 256,
                                           geometry.derive_rng(5, 6, RegionLabel.RegionE))

        shared = draw()
        shared.log_weight  # the shell measure, formed on the first read
        untilted = []
        norm = geometry._log_power_norm
        monkeypatch.setattr(geometry, "_log_power_norm", lambda lo, hi, m: (
            np.ndim(m) == 0 and untilted.append(m)) or norm(lo, hi, m))
        columns = [np.array([[1.25], [2.75]]), np.array([[0.6], [3.3], [40.0]])]
        profiles = [shared.profile(column) for column in columns]
        assert untilted == [params.n - 2.0]
        for column, prof in zip(columns, profiles):
            for row, tilt in enumerate(column[:, 0]):
                one = draw().profile(np.array([[tilt]]))
                assert np.array_equal(prof.r[row], one.r[0])
                assert np.array_equal(prof.log_weight[row], one.log_weight[0])


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


@pytest.mark.parametrize("dim", [2, 3, 50, 250, 341, 342, 400, 2000])
def test_log_unit_ball_volume_past_the_float_range(dim):
    # the log of c_dim stays finite past dim = 341, where the gamma of its
    # direct form overflows (c_dim itself underflows past dim = 435), and
    # keeps the direct form's bits below
    want = dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0)
    got = geometry._log_unit_ball_volume(dim)
    assert got == pytest.approx(want, rel=1e-12)
    if dim <= 341:
        assert got == math.log(unit_ball_volume(dim))


def test_shell_measure_sums_check_where_the_volume_underflows():
    # at n = 200 a region's exact volume is below the floats: the check
    # compares the shell sums in logs
    for n in (3, 200, 400):
        assert checks.check_shell_measure_sums(CuspParams(n, 2.0)).passed


def test_classify_profile_vectorised(params):
    t = np.array([-0.25, 0.5, 0.25, 0.1])
    r = np.array([0.1, 0.0, 0.0625, 0.09])
    labels = classify_profile(params, "R1", t, r)
    assert labels[0] is RegionLabel.RegionA
    assert labels[1] is RegionLabel.CuspInterior
    assert labels[2] is RegionLabel.BoundaryCusp


# The sampler kernels as plain numpy expressions, every intermediate a fresh
# array: the references for the kernels, which write into their own buffers.
def _plain_power_icdf(lo, hi, m, u):
    p = m + 1.0
    log = geometry._log_branch(p)
    low = (lo / hi) ** p
    if log is None:
        return hi * (low + u * (1.0 - low)) ** (1.0 / p)
    return np.where(log, lo * (hi / lo) ** u, hi * (low + u * (1.0 - low)) ** np.reciprocal(p))


def _plain_log_power_norm(log_lo, log_hi, m):
    p = m + 1.0
    log = geometry._log_branch(p)
    span = log_hi - log_lo
    out = (np.where(p > 0.0, p * log_hi, p * log_lo)
           + np.log(-np.expm1(-np.abs(p) * span)) - np.log(np.abs(p)))
    return out if log is None else np.where(log, np.log(span), out)


def _plain_strata(m1, m2, rng):
    u1 = (np.arange(m1)[:, None] + rng.random((m1, m2))) / m1
    u2 = (np.arange(m2) + rng.random((m1, m2))) / m2
    return u1.ravel(), u2.ravel()


class TestSamplerKernels:
    # p = m + 1 of mixed sign, the log branch p = 0, and the special-cased
    # reciprocal powers 1/p = -1, 1/2 and 2
    M_COLUMN = np.array([[-4.5], [-2.0], [-1.0], [-0.5], [0.0], [1.0], [2.0], [39.0]])

    def _band(self):
        draw = geometry.sample_profile(CuspParams(4, 1.5), RegionLabel.RegionE, Shell(9), 200,
                                       geometry.derive_rng(8, 9, RegionLabel.RegionE))
        return draw, draw.lo_r, draw.hi_r, draw.u2

    def test_power_icdf_matches_plain_expressions(self):
        _, lo, hi, u = self._band()
        with np.errstate(all="ignore"):
            for m in [2.0, -3.0, self.M_COLUMN, *self.M_COLUMN[:, 0]]:
                assert np.array_equal(geometry._power_icdf(lo, hi, m, u),
                                      _plain_power_icdf(lo, hi, m, u))
            # scalar bounds, as the scale draw has them, and a cone's lo = 0
            for lo_, hi_ in ((2.0**-10, 2.0**-9), (0.0, 0.25)):
                for m in (3.0, 20.0, -0.5):
                    assert np.array_equal(geometry._power_icdf(lo_, hi_, m, u),
                                          _plain_power_icdf(lo_, hi_, m, u))

    def test_log_power_norm_matches_plain_expressions(self):
        _, lo, hi, _ = self._band()
        log_lo, log_hi = np.log(lo), np.log(hi)
        log_lo[::5] = -np.inf  # lo = 0, as on cones and inner band 1
        with np.errstate(all="ignore"):
            for m in [2.0, -3.0, self.M_COLUMN, *self.M_COLUMN[:, 0]]:
                assert np.array_equal(geometry._log_power_norm(log_lo, log_hi, m),
                                      _plain_log_power_norm(log_lo, log_hi, m))
            for m in (0.0, -1.0, 2.5):  # scalar bounds, as the shell measure has them
                assert np.array_equal(geometry._log_power_norm(-9.0, -8.5, m),
                                      _plain_log_power_norm(-9.0, -8.5, m))

    def test_tilted_weight_matches_plain_expression(self):
        draw, lo, hi, u = self._band()
        cap, log_lo, log_hi, log_z_r = draw._tilt_frame
        for tilt in (1.75, np.array([[0.4], [-2.0], [3.0], [5.5], [1e6]])):
            prof = draw.profile(tilt)
            tilt = np.minimum(tilt, cap)
            with np.errstate(all="ignore"):  # tilt 3 is the log branch
                r = _plain_power_icdf(lo, hi, 2.0 - tilt, u)
                want = draw.log_weight + tilt * np.log(r) + (
                    _plain_log_power_norm(log_lo, log_hi, 2.0 - tilt) - log_z_r)
            assert np.array_equal(prof.r, r)
            assert np.array_equal(prof.log_weight, want)

    @pytest.mark.parametrize("label", [RegionLabel.RegionA, RegionLabel.RegionD,
                                       RegionLabel.CuspInterior, RegionLabel.InnerPiece1])
    def test_axis_bands_match_the_zeros_array_expressions(self, label):
        # a band from the axis carries lo_r as the scalar 0; its radii, tilt
        # frame and tilted weights are those of an array of zeros bit for bit
        params = CuspParams(5, 1.5)
        draw = geometry.sample_profile(params, label, Shell(7), 300,
                                       geometry.derive_rng(2, 7, label))
        assert isinstance(draw.lo_r, float) and draw.lo_r == 0.0
        zeros, hi, u = np.zeros(draw.count), draw.hi_r, draw.u2
        assert np.array_equal(draw.profile(0.0).r, _plain_power_icdf(zeros, hi, 3.0, u))
        cap, log_lo, log_hi, log_z_r = draw._tilt_frame
        with np.errstate(divide="ignore"):
            log_zeros = np.log(zeros)
        assert cap == 3.99 and log_lo == -np.inf and np.array_equal(log_hi, np.log(hi))
        assert np.array_equal(log_z_r, _plain_log_power_norm(log_zeros, log_hi, 3.0))
        for tilt in (1.5, np.array([[-2.0], [0.5], [3.0], [1e6]])):
            prof = draw.profile(tilt)
            tilt = np.minimum(tilt, cap)
            r = _plain_power_icdf(zeros, hi, 3.0 - tilt, u)
            want = tilt * np.log(r) + (
                _plain_log_power_norm(log_zeros, log_hi, 3.0 - tilt) - log_z_r)
            assert np.array_equal(prof.r, r)
            assert np.array_equal(prof.log_weight, want)

    def test_scalar_low_with_a_column_of_exponents(self):
        _, _, hi, u = self._band()
        m = np.array([[-0.5], [0.0], [0.5], [1.0], [7.0]])
        assert np.array_equal(geometry._power_icdf(0.0, hi, m, u),
                              _plain_power_icdf(np.zeros_like(hi), hi, m, u))

    @pytest.mark.parametrize("m1,m2", [(1, 1), (3, 5), (4, 4), (7, 2)])
    def test_strata_are_two_consecutive_draws(self, m1, m2):
        got = geometry._strata(m1, m2, np.random.default_rng(17))
        want = _plain_strata(m1, m2, np.random.default_rng(17))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # and the draw leaves the stream where two draws of (m1, m2) leave it
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        geometry._strata(m1, m2, rng)
        ref.random((m1, m2))
        ref.random((m1, m2))
        assert rng.random() == ref.random()
        # the offsets are made once per grid shape and cannot be written
        assert geometry._strata_offsets(m1, m2) is geometry._strata_offsets(m1, m2)
        assert not geometry._strata_offsets(m1, m2)[0].flags.writeable

    def test_scale_draw_keeps_u2_off_the_band_edges(self, params):
        draw = geometry.sample_profile(params, RegionLabel.RegionA, Shell(3), 12,
                                       np.random.default_rng(5))
        _, u2 = _plain_strata(3, 4, np.random.default_rng(5))
        assert np.array_equal(draw.u2, 1e-9 + (1.0 - 2e-9) * u2)
