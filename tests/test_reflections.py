import math

import numpy as np
import pytest
from conftest import negate_entry
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspreflect.reflections as refl
from cuspreflect.errors import ChartDomainError, InterfaceError
from cuspreflect.geometry import (
    ChartId,
    CuspParams,
    Point,
    RegionLabel,
    Shell,
    derive_rng,
    sample_profile,
    sample_region,
)
from cuspreflect.reflections import (
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
                    if min(refl.piece_gaps(label, params, z.t, z.r)) < 4e-6:
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
        s, L = params.s, RegionLabel
        for t in np.linspace(0.02, 0.48, 50):
            for minus, plus, r in [(L.InnerPiece1, L.InnerPiece2, t**s / 6),
                                   (L.InnerPiece2, L.InnerPiece3, t**s / 3)]:
                Tm, _, _, Pm, _, _ = refl.piece_profile(minus, params, t, r)
                Tp, _, _, Pp, _, _ = refl.piece_profile(plus, params, t, r)
                assert math.hypot(Tm - Tp, Pm - Pp) < 1e-9
            # wall identity limits
            for label in (L.InnerPiece3, L.RegionC, L.RegionE):
                T, _, _, P, _, _ = refl.piece_profile(label, params, t, t**s)
                assert math.hypot(T - t, P - t**s) < 1e-12
        for t in np.linspace(-0.48, -0.02, 50):
            Tm, _, _, Pm, _, _ = refl.piece_profile(L.RegionA, params, t, -t)
            Tp, _, _, Pp, _, _ = refl.piece_profile(L.RegionB, params, t, -t)
            assert math.hypot(Tm - Tp, Pm - Pp) < 1e-12
            Tm, _, _, Pm, _, _ = refl.piece_profile(L.RegionD, params, t, (-t) ** s)
            Tp, _, _, Pp, _, _ = refl.piece_profile(L.RegionE, params, t, (-t) ** s)
            assert math.hypot(Tm - Tp, Pm - Pp) < 1e-12


def test_fault_hook_breaks_fd_agreement(params, monkeypatch):
    z = Point(-0.25, [0.1, 0.0])
    clean = differential(ChartId.R1Outer, params, z).differential
    F = differential_fd(ChartId.R1Outer, params, z)
    assert np.max(np.abs(clean - F)) < 1e-6
    monkeypatch.setattr(refl, "_jacobian_matrices", negate_entry(1, 1))
    corrupt = differential(ChartId.R1Outer, params, z).differential
    assert np.max(np.abs(corrupt - F)) > 1e-3


# Textbook power forms of every piece's profile, each power taken by `**`:
# the reference for `piece_profile`, which takes each power once.  Each
# returns the six profile scalars and the powers it took.
def _reference_profile(label, s, t, r):
    L = RegionLabel
    one, zero = np.ones_like(t * r), np.zeros_like(t * r)
    if label in (L.RegionA, L.RegionD, L.InnerPiece1):
        T_row = (-t + zero, -one, zero)
    elif label in (L.RegionC, L.InnerPiece3):
        T_row = (t + zero, one, zero)
    if label is L.RegionA:
        xi = -t
        powers = (xi ** (s - 1.0), xi ** (s - 2.0))
        phi_row = (powers[0] * r / 6.0, -(s - 1.0) * powers[1] * r / 6.0, powers[0] / 6.0 + zero)
    elif label is L.RegionB:
        powers = (r ** (s - 1.0), r**s, r ** (s - 2.0))
        T_row = (r + zero, zero, one)
        phi_row = ((t / 6.0) * powers[0] + powers[1] / 3.0, powers[0] / 6.0,
                   (s - 1.0) * (t / 6.0) * powers[2] + s * powers[0] / 3.0)
    elif label is L.RegionC:
        powers = (t ** (s - 1.0), t**s, t ** (2.0 * s - 1.0), t ** (s - 2.0),
                  t ** (2.0 * s - 2.0), t ** (3.0 * s - 3.0))
        g, ts, t2s1, ts2, t2s2, t3s3 = powers
        den = 2.0 * (g - 1.0)
        lam, mu = g / den, ts - t2s1 / den
        lam_p = -(s - 1.0) * ts2 / (2.0 * (g - 1.0) ** 2)
        mu_p = s * g - (2.0 * s - 1.0) * t2s2 / den + (s - 1.0) * t3s3 / (2.0 * (g - 1.0) ** 2)
        phi_row = (lam * r + mu, lam_p * r + mu_p, lam + zero)
    elif label is L.RegionD:
        powers = ()
        phi_row = (r / 2.0 + zero, zero, 0.5 * one)
    elif label is L.RegionE:
        powers = (r ** (1.0 / s), r ** (1.0 / s - 1.0), r ** (1.0 - 1.0 / s), r ** (-1.0 / s))
        T_row = (powers[0] + zero, zero, powers[1] / s + zero)
        phi_row = ((t / 4.0) * powers[2] + 0.75 * r, powers[2] / 4.0 + zero,
                   (t / 4.0) * (1.0 - 1.0 / s) * powers[3] + 0.75)
    elif label is L.InnerPiece1:
        powers = (t ** (1.0 - s), t ** (-s))
        phi_row = (6.0 * r * powers[0], 6.0 * (1.0 - s) * r * powers[1], 6.0 * powers[0] + zero)
    elif label is L.InnerPiece2:
        powers = (t ** (1.0 - s), t ** (-s))
        T_row = (12.0 * r * powers[0] - 3.0 * t, 12.0 * (1.0 - s) * r * powers[1] - 3.0,
                 12.0 * powers[0] + zero)
        phi_row = (t + zero, one, zero)
    else:  # InnerPiece3
        powers = (t ** (1.0 - s), t ** (-s), t**s, t ** (s - 1.0))
        a, a_p = 1.5 * (1.0 - powers[0]), 1.5 * (s - 1.0) * powers[1]
        b, b_p = (3.0 * t - powers[2]) / 2.0, (3.0 - s * powers[3]) / 2.0
        phi_row = (a * r + b, a_p * r + b_p, a + zero)
    return (*T_row, *phi_row), powers


def _reference_log_jet(n, r, T_t, T_r, phi, phi_t, phi_r):
    """(log opnorm, log|det|): the 2x2 profile block's top singular value from
    a LAPACK SVD against the tangential stretch |phi/r|, and log|det2x2| +
    (n-2) log|phi/r|."""
    block = np.stack([np.stack([T_t, T_r], -1), np.stack([phi_t, phi_r], -1)], -2)
    top = np.linalg.svd(block, compute_uv=False)[..., 0]
    tang = np.abs(phi / r)
    return (np.log(np.maximum(top, tang)),
            np.log(np.abs(T_t * phi_r - T_r * phi_t)) + (n - 2) * np.log(tang))


@pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5), (5, 3.0), (6, 4.0)])
def test_pieces_match_textbook_powers(n, s):
    # interior points of every piece from shell 1 down to the deep shell
    # 2^-250, with radii from the whole radial band and crowded to its foot,
    # kept where t, r and every power of the reference are normal numbers
    params = CuspParams(n, s)
    tiny = np.finfo(float).tiny
    for label in [RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC,
                  RegionLabel.RegionD, RegionLabel.RegionE, RegionLabel.InnerPiece1,
                  RegionLabel.InnerPiece2, RegionLabel.InnerPiece3]:
        for k in (1, 2, 4, 9, 20, 45, 90, 140, 200, 250):
            draw = sample_profile(params, label, [Shell(k)], 256, [derive_rng(11, k, label)])
            for tilt in (0.0, n - 2.0 + 0.9):
                with np.errstate(all="ignore"):  # deep radii leave the normal range
                    prof = draw.profile(tilt)
                    t, r = prof.t, prof.r
                    ref, powers = _reference_profile(label, s, t, r)
                normal = np.ones(t.shape, dtype=bool)
                for power in (t, r, *powers):
                    normal &= (np.abs(power) >= tiny) & np.isfinite(power)
                t, r, ref = t[normal], r[normal], [row[normal] for row in ref]
                new = refl.piece_profile(label, params, t, r)
                for got, want in zip(new, ref):
                    got = np.broadcast_to(got, want.shape)
                    assert np.isfinite(got[np.isfinite(want)]).all(), (label, k)
                    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0,
                                               err_msg=f"{label.value} k={k}")
                # the jet algebra's range: block entries below 2^511
                fits = np.all(np.abs(ref[1:]) < 2.0**511, axis=0)
                with np.errstate(over="ignore"):
                    new_log = refl.profile_log_jet(label, params, t[fits], r[fits])
                ref_log = _reference_log_jet(n, r[fits], *[row[fits] for row in ref[1:]])
                # a log's absolute error is its argument's relative error
                for got, want in zip(new_log, ref_log):
                    assert np.isfinite(got).all(), (label, k)
                    assert (np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))).all(), \
                        (label, k)


# The jet algebra as plain numpy expressions, every intermediate a fresh
# array: the reference for `_jet_algebra`, which writes into its own buffers.
def _plain_jet_algebra(n, r, T_t, T_r, phi, phi_t, phi_r, log=False):
    with np.errstate(divide="ignore", invalid="ignore"):
        tang = np.where(r > 0.0, phi / r, phi_r)
    abs_tang = np.abs(tang)
    det2 = T_t * phi_r - T_r * phi_t
    sig_max = 0.5 * (np.sqrt((T_t + phi_r) ** 2 + (T_r - phi_t) ** 2)
                     + np.sqrt((T_t - phi_r) ** 2 + (T_r + phi_t) ** 2))
    opnorm = np.maximum(sig_max, abs_tang)
    if log:
        with np.errstate(divide="ignore"):
            return tang, np.log(opnorm), np.log(np.abs(det2)) + (n - 2) * np.log(abs_tang)
    return tang, opnorm, det2 * tang ** (n - 2)


def _bitwise_equal(got, want):
    return all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))


class TestJetAlgebraKernel:
    def _block(self, shape, scale, seed):
        # mixed-sign entries over many octaves, with axis rows r = 0
        rng = np.random.default_rng(seed)
        rows = [scale * rng.uniform(-1.0, 1.0, shape) * 2.0 ** rng.integers(-40, 1, shape)
                for _ in range(5)]
        r = np.abs(rng.uniform(-1.0, 1.0, shape))
        r[..., ::7] = 0.0
        return r, rows

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("scale", [1.0, 2.0**510])
    @pytest.mark.parametrize("log", [False, True])
    def test_matches_plain_expressions(self, n, scale, log):
        r, (T_t, T_r, phi, phi_t, phi_r) = self._block((3, 64), scale, n)
        with np.errstate(over="ignore"):  # squares of entries near 2^511 reach inf
            got = refl._jet_algebra(n, r, T_t, T_r, phi, phi_t, phi_r, log)
            want = _plain_jet_algebra(n, r, T_t, T_r, phi, phi_t, phi_r, log)
        assert _bitwise_equal(got, want)

    def test_broadcast_T_row(self):
        # A, D and P1 give a T-row shaped like t against a full-shape phi-row
        r, (_, _, phi, phi_t, phi_r) = self._block((2, 16), 1.0, 5)
        T_t, T_r = -np.ones(16), np.zeros(16)
        for log in (False, True):
            assert _bitwise_equal(refl._jet_algebra(4, r, T_t, T_r, phi, phi_t, phi_r, log),
                                  _plain_jet_algebra(4, r, T_t, T_r, phi, phi_t, phi_r, log))

    @pytest.mark.parametrize("label", [RegionLabel.RegionA, RegionLabel.RegionB,
                                       RegionLabel.RegionC, RegionLabel.RegionD,
                                       RegionLabel.RegionE, RegionLabel.InnerPiece1,
                                       RegionLabel.InnerPiece2, RegionLabel.InnerPiece3])
    def test_piece_jets_match_plain_expressions(self, label):
        # region E's sweep applies a column of tilts, one row of radii each;
        # every piece takes such a column, P2 too, whose phi is t itself
        params = CuspParams(5, 3.0)
        draw = sample_profile(params, label, [Shell(6)], 256, [derive_rng(3, 6, label)])
        tilts = [0.0, 3.9, np.array([[-0.7], [2.9]])]
        for tilt in tilts:
            prof = draw.profile(tilt)
            T, T_t, T_r, phi, phi_t, phi_r = refl.piece_profile(label, params, prof.t, prof.r)
            _, opnorm, det = _plain_jet_algebra(5, prof.r, T_t, T_r, phi, phi_t, phi_r)
            assert _bitwise_equal(refl.profile_jet(label, params, prof.t, prof.r),
                                  (T, phi, opnorm, det))
            want = _plain_jet_algebra(5, prof.r, T_t, T_r, phi, phi_t, phi_r, log=True)
            assert _bitwise_equal(refl.profile_log_jet(label, params, prof.t, prof.r), want[1:])


# An interior profile point (t, r) of every piece at n = 3, s = 2.
PIECE_POINTS = {RegionLabel.RegionA: (-0.2, 0.1), RegionLabel.RegionB: (0.1, 0.2),
                RegionLabel.RegionC: (0.3, 0.2), RegionLabel.RegionD: (-0.2, 0.01),
                RegionLabel.RegionE: (0.1, 0.2), RegionLabel.InnerPiece1: (0.3, 0.001),
                RegionLabel.InnerPiece2: (0.3, 0.02), RegionLabel.InnerPiece3: (0.3, 0.05)}

# The entries of (T, T_t, T_r, phi, phi_t, phi_r) that are constant on each
# piece, by index.
CONSTANT_ENTRIES = {RegionLabel.RegionA: {1: -1.0, 2: 0.0}, RegionLabel.RegionB: {1: 0.0, 2: 1.0},
                    RegionLabel.RegionC: {1: 1.0, 2: 0.0},
                    RegionLabel.RegionD: {1: -1.0, 2: 0.0, 4: 0.0, 5: 0.5},
                    RegionLabel.RegionE: {1: 0.0}, RegionLabel.InnerPiece1: {1: -1.0, 2: 0.0},
                    RegionLabel.InnerPiece2: {4: 1.0, 5: 0.0},
                    RegionLabel.InnerPiece3: {1: 1.0, 2: 0.0}}


def _same_bits(got, want):
    """Equal values, nan where nan, and equal signs of zeros."""
    return all(np.array_equal(a, b, equal_nan=True)
               and np.array_equal(np.signbit(a), np.signbit(b)) for a, b in zip(got, want))


class TestConstantEntries:
    @pytest.mark.parametrize("label", PIECE_POINTS)
    def test_constant_entries_are_floats(self, label):
        # a constant entry made as an array (ones_like, zeros_like) fails
        params = CuspParams(3, 2.0)
        t, r = (np.full(5, x) for x in PIECE_POINTS[label])
        row = refl.piece_profile(label, params, t, r)
        T_row = refl.piece_T_row(label, params, t, lambda: r)
        constants = CONSTANT_ENTRIES[label]
        for i, entry in enumerate(row):
            if i in constants:
                assert type(entry) is float and entry == constants[i], (label, i)
                if i < 3:
                    assert type(T_row[i]) is float and T_row[i] == constants[i]
            else:
                assert isinstance(entry, np.ndarray) and entry.shape == (5,), (label, i)

    @pytest.mark.parametrize("label", [RegionLabel.RegionA, RegionLabel.RegionB,
                                       RegionLabel.RegionC, RegionLabel.RegionD,
                                       RegionLabel.RegionE, RegionLabel.InnerPiece1,
                                       RegionLabel.InnerPiece2, RegionLabel.InnerPiece3])
    @pytest.mark.parametrize("log", [False, True])
    def test_jets_match_full_array_expressions(self, label, log):
        # the float entries against the plain expressions on full arrays of
        # the same values, on a row of radii and on a column of them
        params = CuspParams(5, 3.0)
        draw = sample_profile(params, label, [Shell(6)], 256, [derive_rng(3, 6, label)])
        for tilt in (0.0, np.array([[-0.7], [2.9]])):
            prof = draw.profile(tilt)
            r = prof.r
            _, *entries = refl.piece_profile(label, params, prof.t, r)
            shape = np.broadcast(r, *entries).shape
            full = [np.array(np.broadcast_to(x, shape)) for x in entries]
            assert _same_bits(refl._jet_algebra(5, r, *entries, log),
                              _plain_jet_algebra(5, r, *full, log))

    @pytest.mark.parametrize("label", PIECE_POINTS)
    @pytest.mark.parametrize("log", [False, True])
    def test_zero_dimensional_input(self, label, log):
        params = CuspParams(3, 2.0)
        t, r = (np.asarray(x) for x in PIECE_POINTS[label])
        _, *entries = refl.piece_profile(label, params, t, r)
        got = refl._jet_algebra(3, r, *entries, log)
        assert all(type(x) is np.float64 for x in got[1:])
        full = [np.asarray(x, dtype=float) for x in entries]
        assert _same_bits(got, _plain_jet_algebra(3, r, *full, log))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("log", [False, True])
    def test_signed_zero_entries(self, zero, log):
        # each entry in turn, and pairs of them, a 0-d zero of either sign
        rng = np.random.default_rng(8)
        r = rng.uniform(0.0, 1.0, 64)
        r[::9] = 0.0
        block = [rng.uniform(-1.0, 1.0, 64) * 2.0 ** rng.integers(-30, 1, 64) for _ in range(5)]
        for zeros in ([0], [1], [3], [4], [0, 1], [0, 3], [1, 4], [3, 4], [0, 1, 3, 4]):
            T_t, T_r, phi, phi_t, phi_r = [zero if i in zeros else x for i, x in enumerate(block)]
            full = [np.full(64, x) for x in (T_t, T_r, phi, phi_t, phi_r)]
            assert _bitwise_equal(refl._jet_algebra(4, r, T_t, T_r, phi, phi_t, phi_r, log),
                                  _plain_jet_algebra(4, r, *full, log)), zeros

    def test_infinite_entry_beside_a_zero(self):
        # phi_r = inf beside T_t = 0: the plain det2 forms 0 * inf = nan, the
        # algebra drops that product and keeps -T_r phi_t
        r = np.array([0.5, 0.25])
        T_r, phi, phi_t, phi_r = np.array([2.0, 3.0]), np.array([0.1, 0.2]), \
            np.array([0.5, -4.0]), np.array([np.inf, 1.5])
        _, opnorm, det = refl._jet_algebra(4, r, 0.0, T_r, phi, phi_t, phi_r)
        with np.errstate(invalid="ignore"):
            _, plain_op, plain_det = _plain_jet_algebra(4, r, np.zeros(2), T_r, phi, phi_t,
                                                        phi_r)
        assert np.isnan(plain_det[0]) and det[0] == -(T_r[0] * phi_t[0]) * (phi[0] / r[0]) ** 2
        assert det[1] == plain_det[1]
        assert np.array_equal(opnorm, plain_op)
        _, log_op, log_det = refl._jet_algebra(4, r, 0.0, T_r, phi, phi_t, phi_r, log=True)
        assert log_op[0] == np.inf
        assert log_det[0] == np.log(T_r[0] * phi_t[0]) + 2.0 * np.log(phi[0] / r[0])

    def test_signed_det_past_float_range(self):
        # at n = 200 the inner band 1's stretch 6 t^(1-s) = 600 makes
        # det2 * tang^198 overflow: the signed det reads -inf, without a numpy
        # warning (an error under this suite's filter), the log form stays finite
        params = CuspParams(200, 2.0)
        t, X = np.array([0.01, 0.02]), np.array([[1e-5] + [0.0] * 198, [2e-5] + [0.0] * 198])
        _, _, _, det = refl.profile_jet(RegionLabel.InnerPiece1, params, t, X[:, 0])
        assert np.array_equal(det, [-np.inf, -np.inf])
        _, _, _, det, _ = refl.differential_points(ChartId.R1Inner, params, t, X)
        assert np.array_equal(det, [-np.inf, -np.inf])
        _, log_det = refl.profile_log_jet(RegionLabel.InnerPiece1, params, t, X[:, 0])
        assert np.isfinite(log_det).all()


@pytest.mark.parametrize("label", PIECE_POINTS)
@pytest.mark.parametrize("evaluate", [refl.piece_profile, refl.profile_jet, refl.profile_log_jet])
def test_scalar_input_matches_one_element_arrays(label, evaluate):
    params = CuspParams(3, 2.0)
    t, r = PIECE_POINTS[label]
    scalar = evaluate(label, params, t, r)
    row = evaluate(label, params, np.array([t]), np.array([r]))
    for got, want in zip(scalar, row):
        assert np.ndim(got) == 0
        assert np.array_equal(np.reshape(got, 1), np.broadcast_to(want, 1))
