"""One region-table pass per point batch.

`classify_profile`, the extension's evaluation sites and its chart dispatch
all read one pass over the region table (`geometry._locate`), which computes
the masks of the charts its caller reads: both of the scheme's for the
classification, the chart each extension direction composes through for the
extension.  The guard tests record the `region_masks` calls per batch call;
the reference tests keep the site rule the extension used before the pass,
which read the labels of `classify_profile` one by one and located the chart
points with `piece_index`, and require the same sites, piece indices, values
and errors on mixed batches that reach every label.
"""

import numpy as np
import pytest

from cuspreflect import extension, geometry, reflections
from cuspreflect.errors import ChartDomainError
from cuspreflect.extension import ClampT, Direction, ExtensionSpec, PowerAlpha
from cuspreflect.geometry import (
    BALL_CENTER_T,
    BALL_RADIUS,
    REL_TOL,
    ChartId,
    CuspParams,
    RegionLabel,
    Shell,
    chart_regions,
    classify_profile,
    on_cusp_wall,
    radii,
    random_directions,
    sample_region_points,
    select_first,
)
from cuspreflect.reflections import piece_index

PARAMS = [(3, 2.0), (4, 1.5), (3, 3.0)]
SPECS = [
    ExtensionSpec("R1", Direction.FromInside),
    ExtensionSpec("R1", Direction.FromOutside),
    ExtensionSpec("R2", Direction.FromInside),
]


# ---------------------------------------------------------------------------
# Guard: one region-table pass per batch
# ---------------------------------------------------------------------------

def spy_region_masks(monkeypatch) -> list:
    """Record the chart of every `region_masks` call, through `geometry` or
    through the name `reflections` imported."""
    calls = []
    real = geometry.region_masks

    def spy(params, chart, *args):
        calls.append(chart)
        return real(params, chart, *args)

    monkeypatch.setattr(geometry, "region_masks", spy)
    monkeypatch.setattr(reflections, "region_masks", spy)
    return calls


def probe(spec):
    """t^(-0.7) outward; clamp(t, 0, 1) inward, where images reach t < 0."""
    return PowerAlpha(0.7) if spec.direction is Direction.FromInside else ClampT()


def spec_chart(spec):
    """The chart the extension composes through."""
    return spec.outer_chart if spec.direction is Direction.FromInside else ChartId.R1Inner


def chart_batch(params, spec, count=20, seed=3):
    """Points of every piece of the chart the extension composes through."""
    chart = spec_chart(spec)
    ts, Xs = [], []
    for label in chart_regions(chart):
        t, X = sample_region_points(params, spec.scheme, label, Shell(3), count, seed)
        ts.append(t)
        Xs.append(X)
    return np.concatenate(ts), np.concatenate(Xs)


@pytest.mark.parametrize("spec", SPECS)
def test_extend_eval_points_locates_once(monkeypatch, params, spec):
    # one mask list, of the chart the direction composes through (outward the
    # outer chart, inward R1Inner), from the one locate pass; the chart
    # evaluation reads the pass's piece index
    t, X = chart_batch(params, spec)
    calls = spy_region_masks(monkeypatch)
    extension.extend_eval_points(spec, params, probe(spec), t, X)
    assert calls == [spec_chart(spec)]


@pytest.mark.parametrize("spec", SPECS)
def test_extend_gradient_points_locates_once(monkeypatch, params, spec):
    t, X = chart_batch(params, spec)
    calls = spy_region_masks(monkeypatch)
    extension.extend_gradient_points(spec, params, probe(spec), t, X)
    assert calls == [spec_chart(spec)]


@pytest.mark.parametrize("scheme", ["R1", "R2"])
def test_classify_profile_locates_once(monkeypatch, params, scheme):
    # the classification reads the masks of every chart of the scheme, once
    t, X = chart_batch(params, SPECS[0] if scheme == "R1" else SPECS[2])
    calls = spy_region_masks(monkeypatch)
    classify_profile(params, scheme, t, radii(X))
    assert calls == list(geometry.SCHEME_CHARTS[scheme])


@pytest.mark.parametrize("chart", list(ChartId))
def test_chart_maps_dispatch_once(monkeypatch, params, chart):
    t, X = chart_batch(params, ExtensionSpec(geometry.scheme_of(chart),
                                             Direction.FromOutside if chart is ChartId.R1Inner
                                             else Direction.FromInside))
    calls = spy_region_masks(monkeypatch)
    reflections.apply_points(chart, params, t, X)
    assert calls == [chart]
    calls.clear()
    reflections.differential_points(chart, params, t, X)
    assert calls == [chart]


# ---------------------------------------------------------------------------
# Reference: the site rule of the label-by-label formulation
# ---------------------------------------------------------------------------

_NATIVE_INSIDE = (RegionLabel.CuspInterior, RegionLabel.BallInterior,
                  *chart_regions(ChartId.R1Inner))
_BOUNDARYISH = (RegionLabel.BoundaryCusp, RegionLabel.Origin)


def _among(labels, group) -> np.ndarray:
    return np.array([label in group for label in labels], dtype=bool)


def ref_eval_site(spec, params, t, X):
    """(site, chart, labels, ChartDomainError or None): the site of every
    point, and the error of the first point out of reach."""
    r = radii(X)
    labels = classify_profile(params, spec.scheme, t, r)
    if spec.direction is Direction.FromInside:
        chart = spec.outer_chart
        on_chart = piece_index(chart, params, t, r) >= 0
        site = select_first(
            [_among(labels, _BOUNDARYISH), _among(labels, _NATIVE_INSIDE), on_chart],
            [0, 1, 2], -1,
        )
        reason = "is outside the extension neighbourhood"
    else:
        chart = ChartId.R1Inner
        on_chart = piece_index(chart, params, t, r) >= 0
        site = select_first(
            [on_cusp_wall(params, t, r) | (np.hypot(t, r) <= 1e-12), on_chart,
             _among(labels, (RegionLabel.CuspInterior, RegionLabel.BallInterior))],
            [0, 2, -1], 1,
        )
        reason = "lies in the domain beyond the inner chart"
    error = None
    if (site < 0).any():
        i = int(np.argmax(site < 0))
        z = geometry.Point(t[i], X[i])
        error = ChartDomainError(f"{z!r} {reason} ({labels[i].value})", label=labels[i])
    return site, chart, labels, error


def mixed_batch(params, seed=0):
    """At least 2000 points reaching every label: the origin and its
    neighbours, the cusp wall inside and outside the ball, every interface
    and the closure edge t = 1/2, random points of the collar, the cusp and
    the ball, and points far outside."""
    rng = np.random.default_rng(seed)
    s = params.s
    t_rand = rng.uniform(-0.7, 1.2, 900)
    t_cusp = rng.uniform(1e-4, 1.0, 500)
    t_wall = rng.uniform(1e-3, 1.0, 150)
    t_edge = np.full(60, 0.5)
    t_iface = rng.uniform(-0.49, 0.49, 40)
    a_iface = np.abs(t_iface)
    t_ball = rng.uniform(BALL_CENTER_T - BALL_RADIUS, BALL_CENTER_T + BALL_RADIUS, 200)
    t = np.concatenate([[0.0, 1e-13, -1e-13, 0.0], t_rand, t_cusp, t_wall, t_edge,
                        np.tile(t_iface, 6), t_ball, rng.uniform(1.0, 4.0, 50)])
    r = np.concatenate([
        [0.0, 0.0, 1e-13, 5e-13],
        rng.uniform(0.0, 0.7, 900),
        t_cusp**s * rng.uniform(0.0, 1.2, 500),
        t_wall**s,
        0.5**s * np.concatenate([rng.uniform(0.0, 1.0, 57), [1.0 / 6.0, 1.0 / 3.0, 0.5]]),
        np.concatenate([a_iface, a_iface**s, a_iface**s / 6.0, a_iface**s / 3.0,
                        np.full(40, 0.5), np.full(40, 0.5**s)]),
        rng.uniform(0.0, BALL_RADIUS, 200),
        rng.uniform(1.5, 3.0, 50),
    ])
    X = r[:, None] * random_directions(t.size, params.n - 1, rng)
    return t, X


@pytest.mark.parametrize("n,s", PARAMS)
def test_mixed_batch_reaches_every_label(n, s):
    params = CuspParams(n, s)
    t, X = mixed_batch(params)
    r = radii(X)
    assert t.size >= 2000
    labels = set(classify_profile(params, "R1", t, r)) | set(classify_profile(params, "R2", t, r))
    assert labels == set(RegionLabel)
    wall = on_cusp_wall(params, t, r)
    in_ball = np.hypot(t - BALL_CENTER_T, r) < BALL_RADIUS * (1.0 - REL_TOL)
    assert (wall & in_ball).any() and (wall & ~in_ball).any()
    edge = (t == 0.5) & (piece_index(ChartId.R1Inner, params, t, r) >= 0)
    assert edge.any()


@pytest.mark.parametrize("n,s", PARAMS)
@pytest.mark.parametrize("spec", SPECS)
def test_sites_and_pieces_match_reference(n, s, spec):
    params = CuspParams(n, s)
    t, X = mixed_batch(params)
    want, chart, _, _ = ref_eval_site(spec, params, t, X)
    keep = want >= 0
    assert keep.sum() >= 1000
    t, X, want = t[keep], X[keep], want[keep]
    _, _, r, ts = geometry.as_points(t, X, params)
    assert np.array_equal(r, radii(X))
    site, got_chart, wall, idx = extension._eval_site(spec, params, t, X, r, ts)
    assert got_chart is chart
    assert np.array_equal(site, want)
    assert set(site) == {0, 1, 2}
    assert np.array_equal(wall, on_cusp_wall(params, t, r))
    via = site == 2
    assert np.array_equal(idx[via], piece_index(chart, params, t[via], r[via]))
    assert set(idx[via]) == set(range(len(chart_regions(chart))))
    # and the values: u on native points, u(T) of the chart image, 0 on the boundary
    u = probe(spec)
    values = np.zeros(t.size)
    values[site == 1] = u.value_t(t[site == 1])
    values[via] = u.value_t(reflections.apply_points(chart, params, t[via], X[via])[0])
    assert np.array_equal(extension.extend_eval_points(spec, params, u, t, X), values)


@pytest.mark.parametrize("n,s", PARAMS)
@pytest.mark.parametrize("spec", SPECS)
def test_out_of_reach_errors_match_reference(n, s, spec):
    params = CuspParams(n, s)
    t, X = mixed_batch(params, seed=1)
    site, _, labels, _ = ref_eval_site(spec, params, t, X)
    reach = np.flatnonzero(site >= 0)
    unreachable = np.flatnonzero(site < 0)
    seen = set()
    for i in unreachable:
        if labels[i] in seen:
            continue
        seen.add(labels[i])
        # the first unreachable row of a batch raises, wherever it sits
        rows = np.concatenate([reach[:5], [i], reach[5:10], unreachable[-1:]])
        *_, want = ref_eval_site(spec, params, t[rows], X[rows])
        with pytest.raises(ChartDomainError) as got:
            extension.extend_eval_points(spec, params, probe(spec), t[rows], X[rows])
        assert str(got.value) == str(want)
        assert got.value.label is want.label is labels[i]
    assert seen
