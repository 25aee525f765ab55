"""The array chart core against its one-row wrappers and per-point loops.

Batched maps on mixed-piece batches must equal the wrapper calls bit for
bit, and every check that runs on point batches must reproduce its
per-point formulation, kept below as the reference, at small budgets.
"""

import math
from functools import partial

import numpy as np
import pytest

from cuspreflect import checks, extension, geometry, reflections
from cuspreflect.errors import ChartDomainError
from cuspreflect.extension import ClampT, Direction, ExtensionSpec, PowerAlpha
from cuspreflect.geometry import (
    ChartId,
    CuspParams,
    Point,
    RegionLabel,
    Shell,
    classify,
    classify_profile,
    derive_rng,
    radii,
    random_directions,
    sample_region,
    sample_region_points,
)

PARAMS = [(3, 2.0), (4, 1.5), (3, 3.0)]
R1_COLLAR = (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC)
R2_COLLAR = (RegionLabel.RegionD, RegionLabel.RegionE)
INNER = (RegionLabel.InnerPiece1, RegionLabel.InnerPiece2, RegionLabel.InnerPiece3)
CHART_CASES = {
    ChartId.R1Outer: ("R1", R1_COLLAR),
    ChartId.R1Inner: ("R1", INNER),
    ChartId.R2Outer: ("R2", R2_COLLAR),
}


def batch(params, scheme, labels, count=25, wall=0, seed=5):
    """Points of several regions and shells, plus `wall` cusp-wall points,
    shuffled into one mixed batch."""
    ts, Xs = [], []
    for label in labels:
        for k in (2, 5):
            t, X = sample_region_points(params, scheme, label, Shell(k), count, seed)
            ts.append(t)
            Xs.append(X)
    rng = np.random.default_rng(seed)
    if wall:
        t = rng.uniform(0.01, 0.49, wall)
        ts.append(t)
        Xs.append(t[:, None] ** params.s * random_directions(wall, params.n - 1, rng))
    t, X = np.concatenate(ts), np.concatenate(Xs)
    order = rng.permutation(t.size)
    return t[order], X[order]


def rows(t, X):
    return [Point(ti, xi) for ti, xi in zip(t, X)]


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("n,s", PARAMS)
class TestBatchesEqualWrappers:
    def test_apply_and_invert(self, n, s):
        params = CuspParams(n, s)
        for chart, (scheme, labels) in CHART_CASES.items():
            t, X = batch(params, scheme, labels, wall=10)
            T, X_img = reflections.apply_points(chart, params, t, X)
            for i, z in enumerate(rows(t, X)):
                img = reflections.apply(chart, params, z)
                assert img.t == T[i] and same(img.x, X_img[i])
            t_src, X_src = reflections.invert_points(chart, params, T, X_img)
            for i, w in enumerate(rows(T, X_img)):
                src = reflections.invert(chart, params, w)
                assert src.t == t_src[i] and same(src.x, X_src[i])

    def test_differential(self, n, s):
        params = CuspParams(n, s)
        for chart, (scheme, labels) in CHART_CASES.items():
            t, X = batch(params, scheme, labels)
            T, X_img, M, det, opnorm = reflections.differential_points(chart, params, t, X)
            for i, z in enumerate(rows(t, X)):
                jet = reflections.differential(chart, params, z)
                assert jet.image.t == T[i] and same(jet.image.x, X_img[i])
                assert same(jet.differential, M[i])
                assert jet.det == det[i] and jet.opnorm == opnorm[i]
            # the FD oracle needs room for its stencil
            pts = [checks._fd_points(params, chart, label, 20, 5) for label in labels]
            t, X = np.concatenate([p[0] for p in pts]), np.concatenate([p[1] for p in pts])
            fd = reflections.differential_fd_points(chart, params, t, X)
            for i, z in enumerate(rows(t, X)):
                assert same(reflections.differential_fd(chart, params, z), fd[i])

    def test_classify(self, n, s):
        params = CuspParams(n, s)
        labels = (*R1_COLLAR, *R2_COLLAR, *INNER, RegionLabel.CuspInterior)
        for scheme in ("R1", "R2"):
            ts, Xs = [], []
            for label in labels:
                t, X = sample_region_points(params, geometry._scheme_of_label(label) or scheme,
                                            label, Shell(3), 20, 1)
                ts.append(t)
                Xs.append(X)
            t, X = np.concatenate(ts), np.concatenate(Xs)
            got = classify_profile(params, scheme, t, radii(X))
            assert [classify(params, scheme, z) for z in rows(t, X)] == list(got)

    def test_extend_eval_and_gradient(self, n, s):
        params = CuspParams(n, s)
        cases = [
            (ExtensionSpec("R1", Direction.FromInside), PowerAlpha(0.7),
             (*R1_COLLAR, RegionLabel.InnerPiece2, RegionLabel.CuspInterior)),
            (ExtensionSpec("R2", Direction.FromInside), PowerAlpha(0.7),
             (*R2_COLLAR, RegionLabel.CuspInterior)),
            (ExtensionSpec("R1", Direction.FromOutside), ClampT(), (*INNER, *R1_COLLAR)),
        ]
        for spec, u, labels in cases:
            ts, Xs = [], []
            for label in labels:
                scheme = geometry._scheme_of_label(label) or spec.scheme
                t, X = sample_region_points(params, scheme, label, Shell(3), 20, 2)
                ts.append(t)
                Xs.append(X)
            t, X = np.concatenate(ts), np.concatenate(Xs)
            values = extension.extend_eval_points(spec, params, u, t, X)
            grads = extension.extend_gradient_points(spec, params, u, t, X)
            for i, z in enumerate(rows(t, X)):
                assert extension.extend_eval(spec, params, u, z) == values[i]
                assert same(extension.extend_gradient(spec, params, u, z), grads[i])
            # boundary points extend by 0
            wall = np.full(3, 0.2)
            X_wall = wall[:, None] ** s * random_directions(3, n - 1, np.random.default_rng(0))
            assert same(extension.extend_eval_points(spec, params, u, wall, X_wall), np.zeros(3))

    def test_cutoff_psi(self, n, s):
        params = CuspParams(n, s)
        t, X = batch(params, "R1", (*R1_COLLAR, *INNER, RegionLabel.CuspInterior), count=10,
                     wall=10)
        # ball, far outside, the wall point (0.25, 0.0625), t = 0, r = 1/2,
        # t = +-1/2 and the origin
        pinned_t = [2.0, 1.2, -0.6, 0.1, 0.25, 0.0, 0.1, 0.5, -0.5, 0.0]
        pinned_r = [1.0, 0.3, 0.1, 0.6, 0.0625, 0.25, 0.5, 0.3, 0.2, 0.0]
        rng = np.random.default_rng(8)
        t = np.concatenate([t, pinned_t])
        X = np.concatenate([X, np.array(pinned_r)[:, None]
                            * random_directions(len(pinned_r), n - 1, rng)])
        psi = extension.cutoff_psi_points(params, t, X)
        assert same(psi, [extension.cutoff_psi(params, z) for z in rows(t, X)])
        assert ((psi > 0.0) & (psi < 1.0)).sum() >= 10  # collar rows reach the distance search
        assert (psi == 0.0).any() and (psi == 1.0).any()


def test_key_rows():
    keys = np.array([2, -1, 0, 2])
    got = geometry.key_rows(keys, range(3))
    assert [k for k, _ in got] == [0, 2]  # key 1 holds no row, -1 is no key
    assert same(got[0][1], [2]) and same(got[1][1], [0, 3])
    assert geometry.key_rows(np.full(4, 1), range(3)) == [(1, slice(None))]
    assert geometry.key_rows(np.array([True, True]), (True,)) == [(True, slice(None))]
    assert geometry.key_rows(np.array([False, False]), (True,)) == []
    assert geometry.key_rows(np.empty(0, dtype=int), range(3)) == []


SPECS = {
    "R1": ((ExtensionSpec("R1", Direction.FromInside), PowerAlpha(0.7)),
           (ExtensionSpec("R1", Direction.FromOutside), ClampT())),
    "R2": ((ExtensionSpec("R2", Direction.FromInside), PowerAlpha(0.7)),),
}


@pytest.mark.parametrize("n,s", PARAMS)
class TestOneKeyBatches:
    """Batches that lie in one chart piece, or are empty, take the dispatch
    without a gather or scatter; they must still equal the one-row wrappers."""

    def test_empty_batches(self, n, s):
        params = CuspParams(n, s)
        t, X = np.empty(0), np.empty((0, n - 1))
        for chart in ChartId:
            for got in (*reflections.apply_points(chart, params, t, X),
                        *reflections.invert_points(chart, params, t, X)):
                assert got.shape[0] == 0 and got.shape[1:] in ((), (n - 1,))
            T, X_img, M, det, opnorm = reflections.differential_points(chart, params, t, X)
            assert (T.shape, X_img.shape, M.shape) == ((0,), (0, n - 1), (0, n, n))
            assert det.shape == opnorm.shape == (0,)
            assert reflections.differential_fd_points(chart, params, t, X).shape == (0, n, n)
        for scheme, cases in SPECS.items():
            assert classify_profile(params, scheme, t, np.empty(0)).shape == (0,)
            for spec, u in cases:
                assert extension.extend_eval_points(spec, params, u, t, X).shape == (0,)
                assert extension.extend_gradient_points(spec, params, u, t, X).shape == (0, n)
                assert extension.extend_global_points(spec, params, u, t, X).shape == (0,)
        assert extension.cutoff_psi_points(params, t, X).shape == (0,)

    def test_one_piece_batches_equal_wrappers(self, n, s):
        params = CuspParams(n, s)
        for chart, (scheme, labels) in CHART_CASES.items():
            for i, label in enumerate(labels):
                t, X = sample_region_points(params, scheme, label, Shell(3), 12, 4)
                idx = reflections.piece_index(chart, params, t, radii(X))
                assert geometry.key_rows(idx, range(len(labels))) == [(i, slice(None))]
                T, X_img = reflections.apply_points(chart, params, t, X)
                t_src, X_src = reflections.invert_points(chart, params, T, X_img)
                T_d, X_d, M, det, opnorm = reflections.differential_points(chart, params, t, X)
                labels_got = classify_profile(params, scheme, t, radii(X))
                psi = extension.cutoff_psi_points(params, t, X)
                for j, z in enumerate(rows(t, X)):
                    img = reflections.apply(chart, params, z)
                    assert img.t == T[j] and same(img.x, X_img[j])
                    src = reflections.invert(chart, params, img)
                    assert src.t == t_src[j] and same(src.x, X_src[j])
                    jet = reflections.differential(chart, params, z)
                    assert jet.image.t == T_d[j] and same(jet.image.x, X_d[j])
                    assert same(jet.differential, M[j])
                    assert jet.det == det[j] and jet.opnorm == opnorm[j]
                    assert classify(params, scheme, z) is labels_got[j]
                    assert extension.cutoff_psi(params, z) == psi[j]
                for spec, u in SPECS[scheme]:
                    values = extension.extend_eval_points(spec, params, u, t, X)
                    grads = extension.extend_gradient_points(spec, params, u, t, X)
                    for j, z in enumerate(rows(t, X)):
                        assert extension.extend_eval(spec, params, u, z) == values[j]
                        assert same(extension.extend_gradient(spec, params, u, z), grads[j])
                t, X = checks._fd_points(params, chart, label, 8, 5)
                fd = reflections.differential_fd_points(chart, params, t, X)
                for j, z in enumerate(rows(t, X)):
                    assert same(reflections.differential_fd(chart, params, z), fd[j])


def test_batch_errors_name_the_first_bad_point(params):
    t = np.array([-0.25, 0.9, -0.3])
    X = np.array([[0.1, 0.0], [0.5, 0.0], [0.1, 0.0]])
    with pytest.raises(ChartDomainError) as batch_err:
        reflections.apply_points(ChartId.R1Outer, params, t, X)
    with pytest.raises(ChartDomainError) as one_err:
        reflections.apply(ChartId.R1Outer, params, Point(0.9, [0.5, 0.0]))
    assert str(batch_err.value) == str(one_err.value)
    assert batch_err.value.label is RegionLabel.CuspInterior
    with pytest.raises(ValueError):
        reflections.apply_points(ChartId.R1Outer, params, t, X[:, :1])


def _entry_points(params):
    """Every batch entry point, as a call on (t, X)."""
    spec, u = SPECS["R1"][0]
    calls = {f"classify_profile {scheme}": lambda t, X, scheme=scheme: classify_profile(
        params, scheme, t, radii(X)) for scheme in ("R1", "R2")}
    for chart in ChartId:
        for name in ("apply_points", "differential_points", "differential_fd_points",
                     "invert_points"):
            calls[f"{name} {chart.value}"] = partial(getattr(reflections, name), chart, params)
    for name in ("extend_eval_points", "extend_gradient_points", "extend_global_points"):
        calls[name] = partial(getattr(extension, name), spec, params, u)
    calls["cutoff_psi_points"] = partial(extension.cutoff_psi_points, params)
    return calls


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_non_finite_points_fail_loudly(params, bad, column):
    # a non-finite coordinate in row 1 of a batch raises a ValueError that
    # names the row at every entry point, never a label or a value
    t = np.array([-0.25, -0.2, -0.3])
    X = np.array([[0.1, 0.0], [0.05, 0.02], [0.1, 0.0]])
    Z = np.column_stack([t, X])
    Z[1, column] = bad
    for name, call in _entry_points(params).items():
        for rows, row in ((slice(None), 1), (slice(1, 2), 0)):  # and the one-row batch
            with pytest.raises(ValueError, match=rf"^row {row} of the point batch has "
                                                 r"non-finite coordinates \[") as exc:
                call(Z[rows, 0], Z[rows, 1:])
            assert str(abs(bad)) in str(exc.value), name  # classify_profile reads |x|


def test_non_finite_profile_coordinates_fail_loudly(params):
    # classify_profile's own (t, r), a one-row batch included
    with pytest.raises(ValueError, match=r"^row 0 .* \[nan, 0\.05\]$"):
        classify_profile(params, "R1", [math.nan], [0.05])
    with pytest.raises(ValueError, match=r"^row 2 .* \[0\.3, inf\]$"):
        classify_profile(params, "R2", [0.1, 0.2, 0.3], [0.01, 0.02, math.inf])
    with pytest.raises(ValueError, match=r"^row 0 .* \[nan, 0\.1\]$"):
        classify_profile(params, "R1", math.nan, 0.1)


@pytest.mark.parametrize("t0,x0", [(1e200, 0.0), (-1e200, 0.0), (-0.1, 1e300), (0.3, -1e300),
                                   (1e308, 1e308), (-1e308, -1e308)])
def test_huge_finite_points_lie_outside(params, t0, x0):
    # a finite point past the float range of |t|^s or of |x|^2 (and one whose
    # coordinate sum overflows the one-row finiteness check) is
    # OutsideNeighborhood, has psi 0 and raises ChartDomainError from every
    # chart and the outward extension, without a numpy warning, which the
    # suite makes an error; alone and in row 1 of a batch
    t, X = np.array([-0.25, t0]), np.array([[0.1, 0.0], [x0, 0.0]])
    outside = RegionLabel.OutsideNeighborhood
    for scheme in ("R1", "R2"):
        assert classify(params, scheme, Point(t0, X[1])) is outside
        for rows in (slice(None), slice(1, 2)):
            assert classify_profile(params, scheme, t[rows], np.abs(X[rows, 0]))[-1] is outside
    assert extension.cutoff_psi_points(params, t, X)[1] == 0.0
    assert extension.cutoff_psi(params, Point(t0, X[1])) == 0.0
    calls = [partial(getattr(reflections, name), chart, params)
             for chart in ChartId for name in ("apply_points", "invert_points")]
    calls += [partial(extension.extend_eval_points, spec, params, u)
              for spec, u in (SPECS["R1"][0], SPECS["R2"][0])]
    for call in calls:
        with pytest.raises(ChartDomainError) as exc:
            call(t[1:], X[1:])
        assert exc.value.label is outside
    # inward, the complement is the extension's native side
    spec, u = SPECS["R1"][1]
    assert extension.extend_eval_points(spec, params, u, t[1:], X[1:])[0] == min(max(t0, 0.0),
                                                                                 1.0)


@pytest.mark.parametrize("x", [[1e300, 0.0], [-1e200, 1e200], [1e308, 1e308], [1e-170, 0.0],
                               [3e-320, -4e-320], [5e-324, 0.0]])
def test_radii_of_rows_whose_squares_leave_the_normal_floats(x):
    # a finite nonzero row whose square sum over- or underflows has a finite
    # nonzero |x|, the Python hypot's to rounding, without a numpy warning
    # (an error in the suite): alone, as one row, as Point.r and in row 1 of
    # a batch, whose other rows keep the bits of the plain square-sum form
    want = math.hypot(*x)
    plain = np.array([[0.3, 0.4], [0.0, 0.0], [1e-3, -2e-3]])
    X = np.vstack([plain[:1], [x], plain[1:]])
    for got in (radii(np.array(x)), radii(np.array([x]))[0], Point(0.1, x).r, radii(X)[1]):
        assert 0.0 < got < math.inf
        assert got == pytest.approx(want, rel=1e-15, abs=5e-324)
    assert np.array_equal(radii(X)[[0, 2, 3]],
                          np.sqrt((plain[:, None, :] @ plain[:, :, None])[:, 0, 0]))


# ---------------------------------------------------------------------------
# Per-point formulations of the batched checks, as references
# ---------------------------------------------------------------------------

def ref_boundary_fixity(params, samples, seed):
    rng = derive_rng(seed, 0, "fixity")
    t = np.exp(rng.uniform(np.log(2.0**-20), np.log(0.5), samples))
    dirs = random_directions(samples, params.n - 1, rng)
    worst = 0.0
    for chart in ChartId:
        for i in range(samples):
            z = Point(float(t[i]), t[i] ** params.s * dirs[i])
            img = reflections.apply(chart, params, z)
            worst = max(worst, float(np.max(np.abs(img.as_array() - z.as_array()))))
    return 3 * samples, worst


def ref_sampler_hit_rate(params, count, seed):
    misses = 0
    total = 0
    cases = [("R1", lab) for lab in (*R1_COLLAR, *INNER)]
    cases += [("R2", lab) for lab in R2_COLLAR]
    cases += [("R2", RegionLabel.CuspInterior)]
    for scheme, label in cases:
        for k in (1, 3, 8, 20):
            pts = sample_region(params, scheme, label, Shell(k), count, seed)
            total += len(pts)
            misses += sum(classify(params, scheme, p) is not label for p in pts)
    return total, misses


def ref_equivariance(params, samples, seed):
    rng = derive_rng(seed, 0, "equivariance")
    n = params.n
    worst = 0.0
    total = 0
    cases = [(ChartId.R1Outer, lab) for lab in R1_COLLAR]
    cases += [(ChartId.R2Outer, lab) for lab in R2_COLLAR]
    cases += [(ChartId.R1Inner, lab) for lab in INNER]
    for chart, label in cases:
        pts = sample_region(params, "R2" if chart is ChartId.R2Outer else "R1",
                            label, Shell(3), samples, seed)
        q, _ = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
        for z in pts:
            img = reflections.apply(chart, params, z)
            rot = reflections.apply(chart, params, Point(z.t, q @ z.x))
            worst = max(worst, float(np.max(np.abs(rot.as_array()
                        - np.concatenate(([img.t], q @ img.x))))))
            total += 1
    return total, worst


def _interface_gap(params, label, t, r):
    s, L = params.s, RegionLabel
    if label is L.RegionA:
        return (-t) - r
    if label is L.RegionB:
        return r - abs(t)
    if label is L.RegionC:
        return min(r - t**s, t - r)
    if label is L.RegionD:
        return (-t) ** s - r
    if label is L.RegionE:
        return r - abs(t) ** s
    ts = t**s
    if label is L.InnerPiece1:
        return ts / 6.0 - r
    if label is L.InnerPiece2:
        return min(r - ts / 6.0, ts / 3.0 - r)
    return min(r - ts / 3.0, ts - r)


def _smoothness_gap(label, t, r):
    L = RegionLabel
    if label is L.RegionA:
        return -t
    if label in (L.RegionB, L.RegionE):
        return r
    if label is L.RegionD:
        return math.inf
    if label is L.InnerPiece1:
        return t
    return min(t, r)


PIECES = (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC, RegionLabel.RegionD,
          RegionLabel.RegionE, RegionLabel.InnerPiece1, RegionLabel.InnerPiece2,
          RegionLabel.InnerPiece3)


def _fd_points(params, label, count, seed):
    scheme = "R2" if label in (RegionLabel.RegionD, RegionLabel.RegionE) else "R1"
    pts = []
    k = 2
    while len(pts) < count and k < 7:
        got = sample_region(params, scheme, label, Shell(k), count, seed + k)
        for z in got:
            gap = min(_interface_gap(params, label, z.t, z.r), _smoothness_gap(label, z.t, z.r))
            if gap > 4.0 * max(1e-6, 1e-6 * math.hypot(z.t, z.r)):
                pts.append(z)
            if len(pts) >= count:
                break
        k += 1
    return pts


def ref_fd_agreement(params, per_piece, seed):
    worst = 0.0
    total = 0
    for label in PIECES:
        chart = geometry.chart_of_region(label)
        for z in _fd_points(params, label, per_piece, seed):
            jet = reflections.differential(chart, params, z)
            fd = reflections.differential_fd(chart, params, z)
            scale = float(np.max(np.abs(jet.differential)))
            worst = max(worst, float(np.max(np.abs(jet.differential - fd))) / scale)
            total += 1
    return total, worst


def ref_round_trip(params, per_piece, seed):
    worst = 0.0
    total = 0
    for label in PIECES:
        chart = geometry.chart_of_region(label)
        scheme = "R2" if chart is ChartId.R2Outer else "R1"
        for k in (1, 4, 9):
            for z in sample_region(params, scheme, label, Shell(k), per_piece // 3 + 1, seed):
                w = reflections.apply(chart, params, z)
                back = reflections.invert(chart, params, w)
                worst = max(worst, float(np.max(np.abs(back.as_array() - z.as_array()))))
                fwd = reflections.apply(chart, params, reflections.invert(chart, params, w))
                worst = max(worst, float(np.max(np.abs(fwd.as_array() - w.as_array()))))
                total += 1
    return total, worst


def ref_native_identity(params, samples, seed):
    u = PowerAlpha(0.7)
    spec = ExtensionSpec("R1", Direction.FromInside)
    worst = 0.0
    total = 0
    for label in (RegionLabel.CuspInterior, RegionLabel.InnerPiece2, RegionLabel.InnerPiece3):
        for z in sample_region(params, "R1", label, Shell(2), samples, seed):
            want = u.value_t(np.array([z.t]))[0]
            worst = max(worst, abs(extension.extend_eval(spec, params, u, z) - want))
            total += 1
    spec_out = ExtensionSpec("R1", Direction.FromOutside)
    u2 = ClampT()
    for label in R1_COLLAR:
        for z in sample_region(params, "R1", label, Shell(2), samples, seed):
            want = u2.value_t(np.array([z.t]))[0]
            worst = max(worst, abs(extension.extend_eval(spec_out, params, u2, z) - want))
            total += 1
    return total, worst


def ref_trace_matching(params, samples, seed):
    u = ClampT()
    eps = 1e-10
    rng = derive_rng(seed, 0, "trace")
    t = np.exp(rng.uniform(np.log(1e-4), np.log(0.49), samples))
    worst = 0.0
    e1 = np.zeros(params.n - 1)
    e1[0] = 1.0
    for scheme in ("R1", "R2"):
        spec = ExtensionSpec(scheme, Direction.FromInside)
        for ti in t:
            wall = ti**params.s
            inner = extension.extend_eval(spec, params, u, Point(ti, (wall * (1 - eps)) * e1))
            outer = extension.extend_eval(spec, params, u, Point(ti, (wall * (1 + eps)) * e1))
            worst = max(worst, abs(inner - outer))
    return 2 * samples, worst


def ref_winfty_positive(params, per_shell, seed):
    u = ClampT()
    spec = ExtensionSpec("R1", Direction.FromInside)
    maxima = []
    total = 0
    for k in range(5, 21):
        mx = 0.0
        for label in R1_COLLAR:
            for z in sample_region(params, "R1", label, Shell(k), per_shell, seed):
                g = extension.extend_gradient(spec, params, u, z)
                mx = max(mx, float(np.linalg.norm(g)))
                total += 1
        maxima.append(mx)
    return total, max(maxima) / max(maxima[:8])


def cutoff_loop_points(params, samples, seed):
    """The points of the per-point cutoff product check, in its order."""
    points = sample_region(params, "R1", RegionLabel.CuspInterior, Shell(2), samples, seed)
    rng = derive_rng(seed, 0, "cutoffout")
    for _ in range(samples):
        points.append(Point(float(rng.uniform(-2.0, -0.6)), rng.uniform(0.6, 2.0, params.n - 1)))
    return points


def ref_cutoff_product(params, samples, seed):
    u = PowerAlpha(0.4)
    spec = ExtensionSpec("R1", Direction.FromInside)
    worst = 0.0
    points = cutoff_loop_points(params, samples, seed)
    for i, z in enumerate(points):
        psi = extension.cutoff_psi(params, z)
        got = 0.0 if psi == 0.0 else psi * extension.extend_eval(spec, params, u, z)
        want = u.value_t(np.array([z.t]))[0] if i < samples else 0.0  # the domain, then far outside
        worst = max(worst, abs(got - want))
    return len(points), worst


REFERENCES = [
    (checks.check_boundary_fixity, ref_boundary_fixity, 200),
    (checks.check_sampler_hit_rate, ref_sampler_hit_rate, 40),
    (checks.check_equivariance, ref_equivariance, 30),
    (checks.check_fd_agreement, ref_fd_agreement, 30),
    (checks.check_round_trip, ref_round_trip, 30),
    (checks.check_native_identity, ref_native_identity, 40),
    (checks.check_trace_matching, ref_trace_matching, 100),
    (checks.check_winfty_positive, ref_winfty_positive, 8),
    (checks.check_cutoff_product, ref_cutoff_product, 40),
]


@pytest.mark.parametrize("n,s", PARAMS)
@pytest.mark.parametrize("check,reference,budget", REFERENCES,
                         ids=[c.__name__ for c, _, _ in REFERENCES])
def test_check_matches_per_point_loop(check, reference, budget, n, s):
    params = CuspParams(n, s)
    res = check(params, budget, 3)
    samples, worst = reference(params, budget, 3)
    assert res.samples == samples
    assert res.passed == (worst <= res.threshold)
    assert abs(res.worst_error - worst) <= 4 * np.spacing(max(abs(worst), abs(res.worst_error)))


def test_shifted_wall_image_fails_fixity(params, monkeypatch):
    assert checks.check_boundary_fixity(params, 200, 1).passed
    apply_points = reflections.apply_points

    def shifted(chart, params, t, X):
        T, X_img = apply_points(chart, params, t, X)
        return T + 1e-9, X_img

    monkeypatch.setattr(reflections, "apply_points", shifted)
    res = checks.check_boundary_fixity(params, 200, 1)
    assert not res.passed and res.worst_error >= 1e-9


def test_mislabelled_sample_fails_hit_rate(params, monkeypatch):
    assert checks.check_sampler_hit_rate(params, 20, 1).passed
    calls = []

    def mislabel(params, scheme, t, r):
        # row 0 of every 20-point draw of the scheme's joined batch
        calls.append(scheme)
        labels = classify_profile(params, scheme, t, r)
        labels[::20] = RegionLabel.OutsideNeighborhood
        return labels

    monkeypatch.setattr(checks, "classify_profile", mislabel)
    res = checks.check_sampler_hit_rate(params, 20, 1)
    assert not res.passed and res.worst_error == 36  # one per (region, shell) draw
    assert calls == ["R1", "R2"]  # one classification per scheme


@pytest.mark.parametrize("n,s", PARAMS)
def test_cutoff_product_draws_the_loop_points(n, s, monkeypatch):
    # the batched check sees the points of the per-point loop, in its order
    params = CuspParams(n, s)
    seen = []
    extend_global_points = extension.extend_global_points

    def record(spec, params, u, t, X):
        seen.append((t, X))
        return extend_global_points(spec, params, u, t, X)

    monkeypatch.setattr(extension, "extend_global_points", record)
    checks.check_cutoff_product(params, 30, 3)
    t, X = np.concatenate([p[0] for p in seen]), np.concatenate([p[1] for p in seen])
    want = cutoff_loop_points(params, 30, 3)
    assert same(t, [z.t for z in want]) and same(X, [z.x for z in want])


def test_checks_call_the_chart_core_once_per_chart(params, monkeypatch):
    # the batched checks make one chart-core call per chart, not one per draw
    calls = {}

    def spy(module, name):
        call = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return call(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((extension, "extend_gradient_points"), (reflections, "apply_points"),
                         (reflections, "invert_points"), (reflections, "differential_points"),
                         (reflections, "differential_fd_points")):
        spy(module, name)
    checks.check_winfty_positive(params, 8, 3)
    checks.check_round_trip(params, 30, 3)
    checks.check_fd_agreement(params, 30, 3)
    charts = len(ChartId)
    assert calls == {"extend_gradient_points": 1, "apply_points": 2 * charts,
                     "invert_points": charts, "differential_points": charts,
                     "differential_fd_points": charts}
