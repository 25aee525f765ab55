"""The array chart core against its one-row wrappers and per-point loops.

Batched maps on mixed-piece batches must equal the wrapper calls bit for
bit, and every check that runs on point batches must reproduce its
per-point formulation, kept below as the reference, at small budgets.
"""

import math

import numpy as np
import pytest

from cuspreflect import checks, extension, geometry, reflections
from cuspreflect.errors import ChartDomainError
from cuspreflect.extension import ClampT, Direction, ExtensionSpec, PowerAlpha
from cuspreflect.geometry import (
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
from cuspreflect.reflections import ChartId

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


def _interface_gap(params, piece, t, r):
    s = params.s
    if piece == "A":
        return (-t) - r
    if piece == "B":
        return r - abs(t)
    if piece == "C":
        return min(r - t**s, t - r)
    if piece == "D":
        return (-t) ** s - r
    if piece == "E":
        return r - abs(t) ** s
    ts = t**s
    if piece == "P1":
        return ts / 6.0 - r
    if piece == "P2":
        return min(r - ts / 6.0, ts / 3.0 - r)
    return min(r - ts / 3.0, ts - r)


def _smoothness_gap(piece, t, r):
    if piece == "A":
        return -t
    if piece in ("B", "E"):
        return r
    if piece == "D":
        return math.inf
    if piece == "P1":
        return t
    return min(t, r)


PIECE_REGION = {"A": RegionLabel.RegionA, "B": RegionLabel.RegionB, "C": RegionLabel.RegionC,
                "D": RegionLabel.RegionD, "E": RegionLabel.RegionE,
                "P1": RegionLabel.InnerPiece1, "P2": RegionLabel.InnerPiece2,
                "P3": RegionLabel.InnerPiece3}


def _fd_points(params, piece, count, seed):
    label = PIECE_REGION[piece]
    scheme = "R2" if piece in ("D", "E") else "R1"
    pts = []
    k = 2
    while len(pts) < count and k < 7:
        got = sample_region(params, scheme, label, Shell(k), count, seed + k)
        for z in got:
            gap = min(_interface_gap(params, piece, z.t, z.r), _smoothness_gap(piece, z.t, z.r))
            if gap > 4.0 * max(1e-6, 1e-6 * math.hypot(z.t, z.r)):
                pts.append(z)
            if len(pts) >= count:
                break
        k += 1
    return pts


def ref_fd_agreement(params, per_piece, seed):
    worst = 0.0
    total = 0
    for piece, label in PIECE_REGION.items():
        chart = reflections.chart_of_region(label)
        for z in _fd_points(params, piece, per_piece, seed):
            jet = reflections.differential(chart, params, z)
            fd = reflections.differential_fd(chart, params, z)
            scale = float(np.max(np.abs(jet.differential)))
            worst = max(worst, float(np.max(np.abs(jet.differential - fd))) / scale)
            total += 1
    return total, worst


def ref_round_trip(params, per_piece, seed):
    worst = 0.0
    total = 0
    for label in PIECE_REGION.values():
        chart = reflections.chart_of_region(label)
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
            worst = max(worst, abs(extension.extend_eval(spec, params, u, z) - u.value(z)))
            total += 1
    spec_out = ExtensionSpec("R1", Direction.FromOutside)
    u2 = ClampT()
    for label in R1_COLLAR:
        for z in sample_region(params, "R1", label, Shell(2), samples, seed):
            worst = max(worst, abs(extension.extend_eval(spec_out, params, u2, z) - u2.value(z)))
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


REFERENCES = [
    (checks.check_boundary_fixity, ref_boundary_fixity, 200),
    (checks.check_sampler_hit_rate, ref_sampler_hit_rate, 40),
    (checks.check_equivariance, ref_equivariance, 30),
    (checks.check_fd_agreement, ref_fd_agreement, 30),
    (checks.check_round_trip, ref_round_trip, 30),
    (checks.check_native_identity, ref_native_identity, 40),
    (checks.check_trace_matching, ref_trace_matching, 100),
    (checks.check_winfty_positive, ref_winfty_positive, 8),
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

    def mislabel(params, scheme, t, r):
        labels = classify_profile(params, scheme, t, r)
        labels[0] = RegionLabel.OutsideNeighborhood
        return labels

    monkeypatch.setattr(checks, "classify_profile", mislabel)
    res = checks.check_sampler_hit_rate(params, 20, 1)
    assert not res.passed and res.worst_error == 36  # one per (region, shell) draw
