"""The region tables against the formulas they replaced.

`classify_profile`, `piece_index` and the collar bands of
`invert_points(R1Inner)` each used to state the region inequalities
themselves.  Those formulations are kept below as the references, and the
table-driven functions must equal them bit for bit on every interface, every
closure edge and the cusp wall, in both schemes and all three charts.

Likewise `sobolev`'s shell exponent, radial tilt and det slope, and the
inverse of region E's exponent in `checks`, each used to branch on the
region; they now read the exponent table `sobolev._EXPONENTS`, and must
equal the closed forms they had bit for bit, signs of zero included.
"""

import ast
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from conftest import spy_draws

from cuspreflect import checks, geometry, reflections, sobolev
from cuspreflect.errors import ChartDomainError
from cuspreflect.geometry import (
    BALL_CENTER_T,
    BALL_RADIUS,
    ORIGIN_TOL,
    REL_TOL,
    ChartId,
    CuspParams,
    RegionLabel,
    Shell,
    classify_profile,
    on_cusp_wall,
    radii,
    select_first,
)
from cuspreflect.reflections import piece_index

PARAMS = [(3, 2.0), (4, 1.5), (3, 3.0), (5, 1.2)]


# ---------------------------------------------------------------------------
# References: the region inequalities as each function stated them
# ---------------------------------------------------------------------------

def _inside_ball(t, r, slack=0.0):
    return np.hypot(t - BALL_CENTER_T, r) < BALL_RADIUS * (1.0 - slack)


def ref_classify_profile(params, scheme, t, r):
    s = params.s
    out = np.full(np.broadcast(t, r).shape, RegionLabel.OutsideNeighborhood, dtype=object)
    unset = np.ones(out.shape, dtype=bool)

    def take(mask, label):
        nonlocal unset
        m = mask & unset
        out[m] = label
        unset &= ~m

    take(np.hypot(t, r) <= ORIGIN_TOL, RegionLabel.Origin)
    take(on_cusp_wall(params, t, r) & ~_inside_ball(t, r, REL_TOL), RegionLabel.BoundaryCusp)
    with np.errstate(invalid="ignore"):
        ts = np.where(t > 0, t, np.nan) ** s
    in_cusp = (t > 0) & (t <= 1.0) & (r < ts)
    if scheme == "R1":
        core = in_cusp & (t < 0.5)
        take(core & (r <= ts / 6.0), RegionLabel.InnerPiece1)
        take(core & (r <= ts / 3.0), RegionLabel.InnerPiece2)
        take(core, RegionLabel.InnerPiece3)
    take(in_cusp, RegionLabel.CuspInterior)
    take(_inside_ball(t, r), RegionLabel.BallInterior)
    if scheme == "R1":
        take((t > -0.5) & (t <= 0) & (r <= -t), RegionLabel.RegionA)
        take((np.abs(t) < 0.5) & (np.abs(t) <= r) & (r < 0.5), RegionLabel.RegionB)
        take((t >= 0) & (t < 0.5) & (ts <= r) & (r <= t), RegionLabel.RegionC)
    else:
        abs_ts = np.abs(t) ** s
        take((t > -0.5) & (t <= 0) & (r <= abs_ts), RegionLabel.RegionD)
        take((np.abs(t) < 0.5) & (abs_ts < r) & (r < 0.5**s), RegionLabel.RegionE)
    return out


def ref_piece_index(chart, params, t, r):
    s = params.s
    at = np.abs(t)
    ats = at**s
    if chart is ChartId.R1Outer:
        masks = [
            (-0.5 < t) & (t <= 0.0) & (r <= -t),
            (at < 0.5) & (at <= r) & (r < 0.5),
            (0.0 <= t) & (t < 0.5) & (ats <= r) & (r <= t),
        ]
    elif chart is ChartId.R1Inner:
        core = (0.0 < t) & (t <= 0.5) & (r < ats)
        masks = [core & (r <= ats / 6.0), core & (r <= ats / 3.0), core]
    else:
        masks = [
            (-0.5 < t) & (t <= 0.0) & (r <= ats),
            (at < 0.5) & (ats <= r) & (r < 0.5**s),
        ]
    return select_first(masks, range(len(masks)), -1)


def ref_invert_r1_inner(params, t, X):
    """(accepted, T, X_src) of the inner chart's inverse with its own bands."""
    s = params.s
    r = radii(X)
    wall = on_cusp_wall(params, t, r)
    at = np.abs(t)
    ts = at**s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = 1.5 * (1.0 - t ** (1.0 - s))
        b = (3.0 * t - ts) / 2.0
        bands = [
            (t <= 0.0) & (r <= -t) & (t > -0.5),
            (0.0 < t) & (t < 0.5) & (ts <= r) & (r <= t),
            (at <= r) & (r < 0.5) & (at < 0.5),
        ]
        src_t = [-t, t, r]
        src_r = [r * (-t) ** (s - 1.0) / 6.0, (r - b) / a,
                 (t + 3.0 * r) * r ** (s - 1.0) / 12.0]
    accepted = wall | select_first(bands, [True] * 3, False)
    phi = select_first(bands, src_r, 0.0)
    pos = r > 0.0
    along = np.where(pos[:, None], phi[:, None] * (X / np.where(pos, r, 1.0)[:, None]), 0.0)
    T = np.where(wall, t, select_first(bands, src_t, 0.0))
    return accepted, T, np.where(wall[:, None], X, along)


# ---------------------------------------------------------------------------
# Edge families
# ---------------------------------------------------------------------------

def _both_sides(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def profile_points(s, seed=0):
    """Profile points (t, r) on every interface, closure edge and the cusp
    wall, their floating-point neighbours, and random points of the collar,
    the cusp and the ball."""
    rng = np.random.default_rng(seed)
    t = _both_sides([0.0, 0.5, -0.5, 1.0, 1e-3, -1e-3, 0.25, -0.25])
    t = np.concatenate([t, [-0.0], rng.uniform(-0.6, 1.1, 40)])
    at = np.abs(t)
    ts = at**s
    families = [
        np.zeros_like(t), np.full_like(t, 0.5), np.full_like(t, 0.5**s),
        at, ts, ts / 6.0, ts / 3.0, ts / 2.0,
        ts * (1.0 + 1e-13), ts * (1.0 - 1e-13),
    ]
    tt = np.tile(t, 3 * len(families))
    rr = np.concatenate([_both_sides(f) for f in families])
    rr = np.abs(rr)  # nextafter below r = 0 gives -tiny
    rand_t = rng.uniform(-0.6, 1.1, 4000)
    rand_r = np.concatenate([rng.uniform(0.0, 0.6, 2000),
                             np.abs(rand_t[2000:]) ** s * rng.uniform(0.0, 1.2, 2000)])
    ball_t = rng.uniform(BALL_CENTER_T - BALL_RADIUS, BALL_CENTER_T + BALL_RADIUS, 500)
    ball_r = rng.uniform(0.0, BALL_RADIUS, 500)
    return np.concatenate([tt, rand_t, ball_t]), np.concatenate([rr, rand_r, ball_r])


@pytest.mark.parametrize("n,s", PARAMS)
@pytest.mark.parametrize("scheme", ["R1", "R2"])
def test_classify_profile_matches_reference(n, s, scheme):
    params = CuspParams(n, s)
    t, r = profile_points(s)
    got = classify_profile(params, scheme, t, r)
    want = ref_classify_profile(params, scheme, t, r)
    assert got.shape == want.shape
    assert np.all(got == want)
    # every label of the scheme is reached, so the edge families are not vacuous
    reached = set(want)
    assert set(geometry.chart_regions(geometry.outer_chart(scheme))) <= reached
    assert {RegionLabel.Origin, RegionLabel.BoundaryCusp, RegionLabel.BallInterior} <= reached


@pytest.mark.parametrize("n,s", PARAMS)
@pytest.mark.parametrize("chart", list(ChartId))
def test_piece_index_matches_reference(n, s, chart):
    params = CuspParams(n, s)
    t, r = profile_points(s, seed=1)
    got = piece_index(chart, params, t, r)
    want = ref_piece_index(chart, params, t, r)
    assert np.array_equal(got, want)
    assert set(np.unique(want)) == {-1, *range(len(geometry.chart_regions(chart)))}


@pytest.mark.parametrize("n,s", PARAMS)
def test_invert_r1_inner_matches_reference(n, s):
    params = CuspParams(n, s)
    t, r = profile_points(s, seed=2)
    rng = np.random.default_rng(3)
    X = np.zeros((t.size, n - 1))
    X[:, 0] = r  # exact radii on the edge families
    half = t.size // 2
    dirs = rng.standard_normal((t.size - half, n - 1))
    X[half:] = r[half:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    accepted, T_ref, X_ref = ref_invert_r1_inner(params, t, X)
    T, X_src = reflections.invert_points(ChartId.R1Inner, params, t[accepted], X[accepted])
    assert np.array_equal(T, T_ref[accepted], equal_nan=True)
    assert np.array_equal(X_src, X_ref[accepted], equal_nan=True)
    rejected = np.flatnonzero(~accepted)
    assert rejected.size > 0
    for i in rejected[:: max(1, rejected.size // 150)]:
        with pytest.raises(ChartDomainError):
            reflections.invert_points(ChartId.R1Inner, params, t[i:i + 1], X[i:i + 1])



def test_one_row_per_region_in_each_table():
    # every chart region has one row in geometry's region table and one in
    # reflections' piece table, both keyed by its label; the sampleable
    # regions are the chart regions and the cusp window, which has no chart
    regions = [label for chart in ChartId for label in geometry.chart_regions(chart)]
    assert len(regions) == len(set(regions)) == 8
    assert all(geometry.chart_of_region(label) in ChartId for label in regions)
    assert set(reflections._PIECES) == set(regions)
    assert set(sobolev._EXPONENTS) == set(geometry.COLLAR_REGIONS)
    assert set(geometry._REGIONS) == set(geometry.SAMPLEABLE) == {
        RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC, RegionLabel.RegionD,
        RegionLabel.RegionE, RegionLabel.CuspInterior, RegionLabel.InnerPiece1,
        RegionLabel.InnerPiece2, RegionLabel.InnerPiece3}
    with pytest.raises(ValueError, match="CuspInterior does not belong to any chart"):
        geometry.chart_of_region(RegionLabel.CuspInterior)


# ---------------------------------------------------------------------------
# The exponent table against the closed forms it replaced
# ---------------------------------------------------------------------------

_R1_COLLAR = (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC)


def ref_shell_exponent(region, p, q, n, s):
    if region in _R1_COLLAR:
        return (n - 1) - (n - 1) * (s - 1.0) * q / (p - q)
    if region is RegionLabel.RegionD:
        return (n - 1) * s
    return (n - 1) * s - (s - 1.0) * p * q / (p - q)


def ref_tilt(region, p, q, s):
    if region is RegionLabel.RegionE:
        return (s - 1.0) * p * q / (s * (p - q))
    return 0.0


def ref_det_target(region, n, s):
    return (n - 1) * (s - 1.0) if region in _R1_COLLAR else 0.0


def ref_singular_side_q(p, e, n, s):
    w = ((n - 1) * s - e) / (s - 1.0)
    return w * p / (p + w)


def bits(values):
    """Each value with its sign, so that 0.0 and -0.0 differ."""
    return [(v, math.copysign(1.0, v)) for v in values]


# every cell of both schemes' acceptance grids at (3, 2) and (5, 1.5)
GRID_CELLS = [cell for n, s in [(3, 2.0), (5, 1.5)] for scheme in geometry.SCHEME_CHARTS
              for cell in checks.sweep_grid(CuspParams(n, s), scheme)]
EXPONENT_PARAMS = list(product(range(3, 9), [1.2, 1.5, 2.0, 3.0, 4.0]))


@pytest.mark.parametrize("n,s", EXPONENT_PARAMS)
def test_exponents_match_closed_forms(n, s):
    for region in geometry.COLLAR_REGIONS:
        got = [sobolev.predicted_shell_exponent(region, p, q, n, s) for p, q in GRID_CELLS]
        assert bits(got) == bits(ref_shell_exponent(region, p, q, n, s) for p, q in GRID_CELLS)
        assert bits([sobolev.det_scaling_target(region, n, s)]) == bits(
            [ref_det_target(region, n, s)])
    # the ends of the targets `check_shell_exponent_match` draws, and each
    # cell's own exponent
    pairs = [(p, e) for p, q in GRID_CELLS
             for e in (-0.9, -0.35, ref_shell_exponent(RegionLabel.RegionE, p, q, n, s))]
    assert bits(checks._singular_side_q(p, e, n, s) for p, e in pairs) == bits(
        ref_singular_side_q(p, e, n, s) for p, e in pairs)


@pytest.mark.parametrize("n,s", EXPONENT_PARAMS)
def test_sweep_tilts_match_closed_form(n, s, monkeypatch):
    # the tilt column each region's loop hands to `_sweep_column`, and
    # whether it tilts at all, caught before any draw
    params = CuspParams(n, s)
    caught = []
    monkeypatch.setattr(sobolev, "_shell_sums", lambda params, loops, *args: caught.extend(loops))
    for scheme in geometry.SCHEME_CHARTS:
        chart = geometry.outer_chart(scheme)
        sobolev.distortion_sweeps(params, chart, geometry.chart_regions(chart), GRID_CELLS,
                                  [Shell(5)])
    assert [region for _, region, _ in caught] == list(geometry.COLLAR_REGIONS)
    for _, region, (_, _, tilts) in caught:
        assert tilts.shape == (len(GRID_CELLS), 1)
        assert bits(tilts[:, 0].tolist()) == bits(ref_tilt(region, p, q, s) for p, q in GRID_CELLS)
        assert bool(tilts.any()) is (region is RegionLabel.RegionE)


_NOT_COLLAR = (RegionLabel.InnerPiece1, RegionLabel.InnerPiece2, RegionLabel.InnerPiece3,
               RegionLabel.CuspInterior)


@pytest.mark.parametrize("region", _NOT_COLLAR, ids=lambda label: label.value)
def test_regions_without_a_row_are_refused(region, monkeypatch):
    draws = spy_draws(monkeypatch)
    params = CuspParams(3, 2.0)
    with pytest.raises(ValueError) as info:
        sobolev.predicted_shell_exponent(region, 2.0, 1.1, 3, 2.0)
    assert str(info.value) == f"no shell exponent for region {region.value}"
    with pytest.raises(ValueError) as info:
        sobolev.det_scaling_target(region, 3, 2.0)
    assert str(info.value) == f"no scaling target for {region.value}"
    # the inner bands' own chart, so that only the missing row refuses them
    with pytest.raises(ValueError) as info:
        sobolev.distortion_sweeps(params, ChartId.R1Inner, [region], [(2.0, 1.1)],
                                  geometry.shells(5, 12), 64, 1)
    assert str(info.value) == f"distortion integral is defined on A..E, not {region.value}"
    assert draws == []


def test_sobolev_names_collar_regions_only_in_the_exponent_table():
    # a region's exponents are its row: no branch of sobolev names a collar
    # region, by attribute or by string
    names = {label.name for label in geometry.COLLAR_REGIONS}
    tree = ast.parse(Path(sobolev.__file__).read_text())
    table = [node for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["_EXPONENTS"]]
    assert len(table) == 1
    inside = {id(node) for node in ast.walk(table[0])}
    named = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in names
                 or isinstance(node, ast.Constant) and node.value in names)
             and id(node) not in inside]
    assert named == []
    assert len([node for node in ast.walk(table[0])
                if isinstance(node, ast.Attribute) and node.attr in names]) == len(names)
