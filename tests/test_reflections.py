import math

import numpy as np
import pytest
from conftest import negate_entry
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspreflect.reflections as refl
from cuspreflect.errors import ChartDomainError, InterfaceError
from cuspreflect.geometry import CuspParams, Point, RegionLabel, Shell, sample_region
from cuspreflect.reflections import (
    ChartId,
    apply,
    differential,
    differential_fd,
    invert,
)

CHART_REGIONS = {
    ChartId.R1Outer: ("R1", [RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC]),
    ChartId.R1Inner: ("R1", [RegionLabel.InnerPiece1, RegionLabel.InnerPiece2,
                             RegionLabel.InnerPiece3]),
    ChartId.R2Outer: ("R2", [RegionLabel.RegionD, RegionLabel.RegionE]),
}


class TestApply:
    def test_piece_a(self, params):
        # (-t, |t|^(s-1) x / 6): image radius 0.25 * 0.1 / 6 = 1/240
        img = apply(ChartId.R1Outer, params, Point(-0.25, [0.1, 0.0]))
        assert img.t == pytest.approx(0.25, abs=0)
        assert img.x[0] == pytest.approx(1.0 / 240.0, rel=1e-14)
        assert img.x[1] == 0.0

    def test_piece_b(self, params):
        # (|x|, (t/6)|x|^(s-2) x + (1/3)|x|^(s-1) x) at s=2: radius 1/60
        img = apply(ChartId.R1Outer, params, Point(0.1, [0.2, 0.0]))
        assert img.t == pytest.approx(0.2)
        assert img.x[0] == pytest.approx(1.0 / 60.0, rel=1e-14)

    def test_piece_c(self, params):
        # radial coefficient lam = -1/3 and offset mu = 16/75 at t = 0.4
        img = apply(ChartId.R1Outer, params, Point(0.4, [0.3, 0.0]))
        assert img.t == pytest.approx(0.4)
        assert img.x[0] == pytest.approx(17.0 / 150.0, rel=1e-13)

    def test_piece_d(self, params):
        img = apply(ChartId.R2Outer, params, Point(-0.25, [0.01, 0.0]))
        assert img.t == pytest.approx(0.25)
        assert img.x[0] == pytest.approx(0.005, rel=1e-14)

    def test_inner_middle_band(self, params):
        # (12|x|/t^(s-1) - 3t, t x/|x|) at t = 1/2, |x| = 0.05
        img = apply(ChartId.R1Inner, params, Point(0.5, [0.05, 0.0]))
        assert img.t == pytest.approx(-0.3, rel=1e-14)
        assert img.x[0] == pytest.approx(0.5, rel=1e-14)

    def test_boundary_identity_all_charts(self, params):
        z = Point(0.25, [0.0625, 0.0])
        for chart in ChartId:
            img = apply(chart, params, z)
            assert np.array_equal(img.as_array(), z.as_array())

    def test_domain_error_carries_label(self, params):
        with pytest.raises(ChartDomainError) as ei:
            apply(ChartId.R1Outer, params, Point(0.9, [0.5, 0.0]))
        assert ei.value.label is RegionLabel.CuspInterior

    def test_direction_preserved(self, params):
        x = np.array([0.06, 0.08])
        img = apply(ChartId.R1Outer, params, Point(-0.25, x))
        cross = img.x[0] * x[1] - img.x[1] * x[0]
        assert cross == pytest.approx(0.0, abs=1e-18)
        assert img.x @ x > 0

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.floats(0.05, 0.45),
        frac=st.floats(0.02, 0.98),
        s=st.sampled_from([1.5, 2.0, 3.0]),
        theta=st.floats(0.0, 2.0 * math.pi),
    )
    def test_equivariance_rotation(self, t, frac, s, theta):
        params = CuspParams(3, s)
        r = frac * t**s
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        x = np.array([r, 0.0])
        img = apply(ChartId.R1Inner, params, Point(t, x))
        img_rot = apply(ChartId.R1Inner, params, Point(t, rot @ x))
        assert img_rot.t == pytest.approx(img.t, abs=1e-15)
        assert np.allclose(img_rot.x, rot @ img.x, atol=1e-15)


class TestImageBands:
    @pytest.mark.parametrize("label,piece,lo,hi", [
        (RegionLabel.RegionA, ChartId.R1Outer, 0.0, 1.0 / 6.0),
        (RegionLabel.RegionB, ChartId.R1Outer, 1.0 / 6.0, 0.5),
        (RegionLabel.RegionC, ChartId.R1Outer, 0.5, 1.0),
        (RegionLabel.RegionD, ChartId.R2Outer, 0.0, 0.5),
        (RegionLabel.RegionE, ChartId.R2Outer, 0.5, 1.0),
    ])
    def test_band(self, params, label, piece, lo, hi):
        scheme = "R2" if piece is ChartId.R2Outer else "R1"
        for k in (1, 5):
            for z in sample_region(params, scheme, label, Shell(k), 100, 3):
                img = apply(piece, params, z)
                ts = img.t**params.s
                assert lo * ts - 1e-12 <= img.r <= hi * ts + 1e-12


class TestDifferential:
    def test_inner_piece1_exact(self, params):
        # |DR| = 6/t^(s-1) and |J| = (6/t^(s-1))^(n-1) on the first band
        jet = differential(ChartId.R1Inner, params, Point(0.5, [1e-9, 0.0]))
        assert jet.opnorm == pytest.approx(12.0, rel=1e-10)
        assert abs(jet.det) == pytest.approx(144.0, rel=1e-10)

    def test_inner_piece1_off_axis(self, params):
        # at |x| = 0.01 the top singular value exceeds 6/t^(s-1) only by O(|x|^2)
        jet = differential(ChartId.R1Inner, params, Point(0.5, [0.01, 0.0]))
        assert jet.opnorm == pytest.approx(12.0, rel=1e-3)
        assert abs(jet.det) == pytest.approx(144.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_piece_d_exact(self, n):
        params = CuspParams(n, 2.0)
        jet = differential(ChartId.R2Outer, params, Point(-0.25, list([0.01] + [0.0] * (n - 2))))
        assert jet.opnorm == 1.0
        assert abs(jet.det) == pytest.approx(2.0 ** -(n - 1), rel=0, abs=0)
        assert jet.det < 0  # orientation reversing

    def test_piece_a_det(self, params):
        jet = differential(ChartId.R1Outer, params, Point(-0.25, [0.1, 0.0]))
        assert abs(jet.det) == pytest.approx((0.25 / 6.0) ** 2, rel=1e-14)

    def test_matrix_det_consistency(self, params):
        # stored det matches a recomputation from the stored matrix
        for chart, (scheme, labels) in CHART_REGIONS.items():
            for label in labels:
                for z in sample_region(params, scheme, label, Shell(3), 25, 9):
                    jet = differential(chart, params, z)
                    assert np.linalg.det(jet.differential) == pytest.approx(jet.det, rel=1e-10)
                    assert jet.opnorm >= abs(jet.det) ** (1.0 / params.n) - 1e-12

    def test_interface_point_rejected(self, params):
        t = 0.25
        with pytest.raises(InterfaceError):
            differential(ChartId.R1Inner, params, Point(t, [t**2 / 6.0, 0.0]))
        with pytest.raises(InterfaceError):
            differential(ChartId.R1Outer, params, Point(-0.2, [0.2, 0.0]))

    def test_boundary_rejected(self, params):
        with pytest.raises(InterfaceError):
            differential(ChartId.R1Outer, params, Point(0.25, [0.0625, 0.0]))


class TestFiniteDifferences:
    def test_matches_analytic_on_a(self, params):
        z = Point(-0.25, [0.1, 0.0])
        A = differential(ChartId.R1Outer, params, z).differential
        F = differential_fd(ChartId.R1Outer, params, z, h=1e-6)
        assert np.max(np.abs(A - F)) / np.max(np.abs(A)) < 1e-5

    def test_affine_piece_exact(self, params):
        # D-piece map is affine, so central differences are exact
        F = differential_fd(ChartId.R2Outer, params, Point(-0.3, [0.05, 0.02]))
        assert np.allclose(F, np.diag([-1.0, 0.5, 0.5]), atol=1e-10)

    def test_inner_piece1_at_half(self, params):
        F = differential_fd(ChartId.R1Inner, params, Point(0.5, [0.001, 0.0005]))
        top = np.linalg.svd(F, compute_uv=False)[0]
        assert top == pytest.approx(12.0, abs=1e-4)

    def test_too_close_to_interface(self, params):
        t = 0.25
        z = Point(t, [t**2 / 6.0 - 1e-8, 0.0])
        with pytest.raises(InterfaceError):
            differential_fd(ChartId.R1Inner, params, z)

    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5), (3, 3.0)])
    def test_all_pieces_agree(self, n, s):
        params = CuspParams(n, s)
        for chart, (scheme, labels) in CHART_REGIONS.items():
            for label in labels:
                pts = sample_region(params, scheme, label, Shell(2), 40, 17)
                checked = 0
                for z in pts:
                    piece = refl.piece_of_region(label)
                    if min(refl.piece_gaps(piece, params, z.t, z.r)) < 4e-6:
                        continue
                    A = differential(chart, params, z).differential
                    F = differential_fd(chart, params, z)
                    assert np.max(np.abs(A - F)) <= 1e-5 * max(np.max(np.abs(A)), 1e-30)
                    checked += 1
                assert checked > 10


class TestInvert:
    def test_examples(self, params):
        back = invert(ChartId.R1Outer, params, Point(0.25, [1.0 / 240.0, 0.0]))
        assert back.t == pytest.approx(-0.25, rel=1e-12)
        assert back.x[0] == pytest.approx(0.1, rel=1e-12)
        back = invert(ChartId.R2Outer, params, Point(0.25, [0.005, 0.0]))
        assert back.t == pytest.approx(-0.25)
        assert back.x[0] == pytest.approx(0.01, rel=1e-13)

    def test_boundary_identity(self, params):
        z = Point(0.3, [0.09, 0.0])
        for chart in ChartId:
            assert np.array_equal(invert(chart, params, z).as_array(), z.as_array())

    def test_outside_image_rejected(self, params):
        with pytest.raises(ChartDomainError):
            invert(ChartId.R1Outer, params, Point(-0.25, [0.1, 0.0]))

    @pytest.mark.parametrize("n,s", [(3, 2.0), (4, 3.0), (3, 1.5)])
    def test_round_trip_all_pieces(self, n, s):
        params = CuspParams(n, s)
        for chart, (scheme, labels) in CHART_REGIONS.items():
            for label in labels:
                for k in (1, 5, 12):
                    for z in sample_region(params, scheme, label, Shell(k), 40, 23):
                        w = apply(chart, params, z)
                        zz = invert(chart, params, w)
                        assert np.max(np.abs(zz.as_array() - z.as_array())) < 1e-8
                        ww = apply(chart, params, zz)
                        assert np.max(np.abs(ww.as_array() - w.as_array())) < 1e-8


class TestBoundaryAndInterfaces:
    def test_boundary_fixity_fine(self):
        for n, s in [(3, 1.5), (3, 2.0), (4, 3.0)]:
            params = CuspParams(n, s)
            ts = np.exp(np.linspace(np.log(2.0**-20), np.log(0.499), 200))
            for chart in ChartId:
                for t in ts:
                    x = np.zeros(n - 1)
                    x[0] = t**s
                    z = Point(float(t), x)
                    img = apply(chart, params, z)
                    assert np.max(np.abs(img.as_array() - z.as_array())) <= 1e-12

    def test_interface_limits_agree(self, params):
        # adjacent formulas evaluated at the same interface point
        s = params.s
        for t in np.linspace(0.02, 0.48, 50):
            for minus, plus, r in [("P1", "P2", t**s / 6), ("P2", "P3", t**s / 3)]:
                Tm, _, _, Pm, _, _ = refl.piece_profile(minus, params, t, r)
                Tp, _, _, Pp, _, _ = refl.piece_profile(plus, params, t, r)
                assert math.hypot(Tm - Tp, Pm - Pp) < 1e-9
            # wall identity limits
            for piece in ("P3", "C", "E"):
                T, _, _, P, _, _ = refl.piece_profile(piece, params, t, t**s)
                assert math.hypot(T - t, P - t**s) < 1e-12
        for t in np.linspace(-0.48, -0.02, 50):
            Tm, _, _, Pm, _, _ = refl.piece_profile("A", params, t, -t)
            Tp, _, _, Pp, _, _ = refl.piece_profile("B", params, t, -t)
            assert math.hypot(Tm - Tp, Pm - Pp) < 1e-12
            Tm, _, _, Pm, _, _ = refl.piece_profile("D", params, t, (-t) ** s)
            Tp, _, _, Pp, _, _ = refl.piece_profile("E", params, t, (-t) ** s)
            assert math.hypot(Tm - Tp, Pm - Pp) < 1e-12


def test_fault_hook_breaks_fd_agreement(params, monkeypatch):
    z = Point(-0.25, [0.1, 0.0])
    clean = differential(ChartId.R1Outer, params, z).differential
    F = differential_fd(ChartId.R1Outer, params, z)
    assert np.max(np.abs(clean - F)) < 1e-6
    monkeypatch.setattr(refl, "_jacobian_matrices", negate_entry(1, 1))
    corrupt = differential(ChartId.R1Outer, params, z).differential
    assert np.max(np.abs(corrupt - F)) > 1e-3
