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
        monkeypatch.setitem(
            geometry._QUAD, RegionLabel.RegionA, geometry._RegionQuad("cone", sign=-1, scale_hi=0.01)
        )
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
        monkeypatch.setitem(
            geometry._QUAD, RegionLabel.RegionA, geometry._RegionQuad("cone", sign=-1, scale_hi=0.01)
        )
        with pytest.raises(EmptyRegionError):
            sample_region(params, "R1", RegionLabel.RegionA, Shell(1), 10, 7)

    def test_scheme_label_mismatch(self, params):
        with pytest.raises(ValueError):
            sample_region(params, "R2", RegionLabel.RegionA, Shell(1), 10, 7)

    def test_non_sampleable(self, params):
        with pytest.raises(ValueError):
            sample_region(params, "R1", RegionLabel.Origin, Shell(1), 10, 7)


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_classify_profile_vectorised(params):
    t = np.array([-0.25, 0.5, 0.25, 0.1])
    r = np.array([0.1, 0.0, 0.0625, 0.09])
    labels = classify_profile(params, "R1", t, r)
    assert labels[0] is RegionLabel.RegionA
    assert labels[1] is RegionLabel.CuspInterior
    assert labels[2] is RegionLabel.BoundaryCusp
