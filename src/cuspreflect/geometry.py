"""Geometry of the model cusp domain, its reflection collars, and samplers.

The model domain in R^n = R x R^{n-1} (points z = (t, x), n >= 3) is an
outward cusp of degree s > 1 glued to a ball:

    domain = {0 < t <= 1, |x| < t^s}  u  B((2, 0), sqrt(2)).

Two collar neighbourhoods support the reflection charts:

    scheme R1:  collar  = {-1/2 < t < 1/2, |x| < 1/2}      u  domain
    scheme R2:  collar' = {-1/2 < t < 1/2, |x| < (1/2)^s}  u  domain

`classify` partitions collar \\ closure(domain) into pieces A, B, C (R1) or
D, E (R2), and under R1 splits the cusp core {0 < t < 1/2, |x| < t^s} into
three inner bands with radius breakpoints t^s/6 and t^s/3.  The region
table below states each region's chart, sampling row and closed shape once;
the classification, the chart dispatch of `reflections` and the samplers all
read it.  A point batch is located once: one pass over the table
(`_locate`) gives the classification step of every point and the masks of
the scheme's charts, which the extension reads for its evaluation sites and
its chart dispatch.  Everything here is axisymmetric in x, so the heavy
lifting happens in profile coordinates (t, r) with r = |x|; a point
contributes Lebesgue measure with the weight of the (n-2)-sphere of radius
r.

Dyadic shells stratify the singular integrals: shell k covers the region's
scale variable (|t| for A, C, D, E and the inner bands; |x| for B) in
[2^-(k+1), 2^-k].  `sample_profile` draws the scale variable of a batch of
shells; its `ProfileSample` draws the radius from its conditional band only
on the first read of `r`, and `ProfileSample.profile` tilts the radial law.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import EmptyRegionError, WindowError

BALL_CENTER_T = 2.0
BALL_RADIUS = math.sqrt(2.0)

# Absolute tolerance for the origin label; boundary tolerance is relative
# to the local cusp radius (see classify).
ORIGIN_TOL = 1e-12
REL_TOL = 1e-12


@dataclass(frozen=True)
class CuspParams:
    """Dimension n >= 3 and cusp degree s > 1; every formula depends on both."""

    n: int
    s: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise WindowError(f"dimension n must be an integer >= 3, got {self.n}")
        if not math.isfinite(self.s) or self.s <= 1.0:
            raise WindowError(f"cusp degree s must satisfy s > 1, got {self.s}")


@dataclass(frozen=True, eq=False)
class Point:
    """A point z = (t, x) with horizontal coordinate t and cross-section x."""

    t: float
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(-1))
        if not (math.isfinite(self.t) and all(map(math.isfinite, self.x.tolist()))):
            raise ValueError("point has non-finite coordinates")

    @property
    def r(self) -> float:
        return float(radii(self.x))

    def as_array(self) -> np.ndarray:
        z = np.empty(self.x.size + 1)
        z[0], z[1:] = self.t, self.x
        return z

    def __repr__(self):  # keeps failure output short in tests
        xs = ",".join(f"{v:.6g}" for v in self.x)
        return f"Point(t={self.t:.6g}, x=({xs}))"


def as_point(z, params: CuspParams | None = None) -> Point:
    """Coerce a Point, a (t, x) pair, or a flat coordinate sequence."""
    if isinstance(z, Point):
        p = z
    elif isinstance(z, (tuple, list)) and len(z) == 2 and np.ndim(z[1]) >= 1:
        p = Point(float(z[0]), z[1])
    else:
        arr = np.asarray(z, dtype=float).reshape(-1)
        p = Point(float(arr[0]), arr[1:])
    if params is not None and p.x.size != params.n - 1:
        raise ValueError(f"expected {params.n - 1} cross-section coordinates, got {p.x.size}")
    return p


def as_points(t, X, params: CuspParams):
    """The gate of every point batch: (t, X, r, ts), t of shape (N,) and X of
    shape (N, n-1), all finite, each entry of X past 2^500 in modulus read as
    +-2^500 (`_reject_non_finite`), with radii r = |x| (`radii`) and cusp
    radii ts = |t|^s (`cusp_radius`).  A one-row batch with |t| < 2^500 and
    2^-511 <= |x| < 2^500 is screened by one Python hypot and takes the
    square-sum form of `radii`; any other by `_reject_non_finite`, `radii`."""
    t = np.asarray(t, dtype=float).reshape(-1)
    X = np.asarray(X, dtype=float)
    if X.shape != (t.size, params.n - 1):
        raise ValueError(f"expected x of shape {(t.size, params.n - 1)}, got {X.shape}")
    if t.size == 1 and abs(t.item()) < 2.0 ** 500 and \
            2.0 ** -511 <= math.hypot(*X.tolist()[0]) < 2.0 ** 500:
        r = np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])
    else:
        X = _reject_non_finite(t, X)
        r = radii(X)
    return t, X, r, cusp_radius(params, t)


def _reject_non_finite(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """ValueError naming the first row of the point batch (t, X), float
    arrays, that holds a non-finite coordinate; X holds a cross section (or
    a radius) per row.  Else X, with any entry past 2^500 in modulus clipped
    to +-2^500 in a copy, so that no |x| overflows.  Only a batch that fails
    numpy's check is searched row by row."""
    if np.isfinite(t).all() and np.abs(X).max(initial=0.0) < 2.0 ** 500:
        return X
    t, Y = np.atleast_1d(np.asarray(t, dtype=float), np.asarray(X, dtype=float))
    Y = Y.reshape(len(Y), -1)
    count = max(len(t), len(Y))
    rows = np.column_stack([np.broadcast_to(t, (count,)), np.broadcast_to(Y, (count, Y.shape[1]))])
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"row {i} of the point batch has non-finite coordinates "
                         f"{rows[i].tolist()}")
    return np.clip(X, -2.0 ** 500, 2.0 ** 500)


def radii(X) -> np.ndarray:
    """|x| of each row of X, the root of its square sum.  A finite nonzero
    row whose square sum leaves the normal floats (an entry past about
    2^511, or all below about 2^-511) is scaled by a power of two first, so
    its |x| is nonzero and, short of the float range, finite, without a
    numpy warning; other rows keep their bits."""
    X = np.asarray(X, dtype=float)
    if np.abs(X).max(initial=0.0) < 2.0 ** 500:
        sq = (X[..., None, :] @ X[..., :, None])[..., 0, 0]
        if sq.min(initial=1.0) >= 2.0 ** -1022:
            return np.sqrt(sq)
    rows = X.reshape(-1, X.shape[-1])
    with np.errstate(over="ignore"):
        out = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
        top = np.abs(rows).max(axis=1, initial=0.0)
        off = (0.0 < top) & (top < math.inf) & ((out < 2.0 ** -511) | (out == math.inf))
        e = np.frexp(top[off])[1]
        out[off] = np.ldexp(radii(np.ldexp(rows[off], -e[:, None])), e)
    return out.reshape(X.shape[:-1])[()]


def cusp_radius(params: CuspParams, t) -> np.ndarray:
    """|t|^s, the cusp radius at height t, for |t| <= 1, where every region
    lies, and 1 past it, so that no finite t overflows; a one-row batch
    within |t| <= 1, checked in Python, skips the clamp."""
    a = np.abs(t)
    if a.size != 1 or not a.item() <= 1.0:
        a = np.minimum(a, 1.0)
    return a ** params.s


def first_flagged(bad: np.ndarray, t, X) -> tuple[int, Point] | None:
    """Index and Point of the first flagged row of a point batch, if any."""
    if not np.count_nonzero(bad):
        return None
    i = int(np.argmax(bad))
    return i, Point(t[i], X[i])


def key_rows(keys, wanted) -> list[tuple]:
    """(key, rows) for each key of `wanted` that a batch's `keys` (ints of
    at least -1, or bools) hold, with the rows that hold it: `slice(None)`
    when the key holds every row, so that a batch of one key is read and
    written whole, without a gather or scatter; else their indices.  One
    `bincount` counts the keys, and a key that holds no row is skipped."""
    keys = np.asarray(keys)
    sizes = np.bincount(keys + 1).tolist()
    out = []
    for key in wanted:
        size = sizes[key + 1] if key + 1 < len(sizes) else 0
        if size:
            out.append((key, slice(None) if size == keys.size else np.flatnonzero(keys == key)))
    return out


def select_first(conds, choices, default):
    """`np.select` (per element, the choice of the first true condition) as
    a chain of `np.where`, a fraction of its cost on one-row batches."""
    out = default
    for cond, choice in zip(reversed(conds), reversed(choices)):
        out = np.where(cond, choice, out)
    return np.asarray(out)


class RegionLabel(Enum):
    CuspInterior = "CuspInterior"
    BallInterior = "BallInterior"
    BoundaryCusp = "BoundaryCusp"
    RegionA = "RegionA"
    RegionB = "RegionB"
    RegionC = "RegionC"
    RegionD = "RegionD"
    RegionE = "RegionE"
    InnerPiece1 = "InnerPiece1"
    InnerPiece2 = "InnerPiece2"
    InnerPiece3 = "InnerPiece3"
    OutsideNeighborhood = "OutsideNeighborhood"
    Origin = "Origin"

    # members compare by identity; the stock Enum hash runs in Python
    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# Region table
# ---------------------------------------------------------------------------

class ChartId(Enum):
    R1Outer = "R1Outer"
    R1Inner = "R1Inner"
    R2Outer = "R2Outer"

    __hash__ = object.__hash__  # as RegionLabel's


# The scheme table: each scheme's charts, its outer chart first.
SCHEME_CHARTS: dict[str, tuple[ChartId, ...]] = {
    "R1": (ChartId.R1Outer, ChartId.R1Inner),
    "R2": (ChartId.R2Outer,),
}


# A region's sampling row, which the shell measures and samplers read: the
# scale variable, its exact (or proposal) power, and the radial band.
# kind:  'cone'   -> r in [c_lo*xi, c_hi*xi],        t = sign*xi
#        'band'   -> r in [c_lo*xi^s, c_hi*xi^s],    t = sign*xi
#        'slab'   -> r = xi, t uniform in [-xi, xi]          (region B)
#        'cwedge' -> r in [xi^s, xi], t = xi                 (region C)
#        'ering'  -> r in [xi^s, (1/2)^s], t = +/-xi         (region E)

@dataclass(frozen=True)
class _RegionQuad:
    kind: str
    sign: int = 1
    c_lo: float = 0.0
    c_hi: float = 1.0
    scale_hi: float = 0.5


# The region table: every sampleable region's chart, sampling row and closed
# shape in profile coordinates (t, r), r = |x|, as a mask of (t, r, ts =
# |t|^s, s); the cusp window `CuspInterior` has no chart and no shape.  Each
# chart's rows are in dispatch order: a point on an interface lies in both
# neighbours' shapes and goes to the earlier row.  The collar regions lie in
# the open collar box |t| < 1/2, r < 1/2 (r < (1/2)^s for R2), the inner
# bands in the cusp core: their rows state the band, and the chart's
# enclosing shape (`_CHART_SHAPES`) the core, which `region_masks` evaluates
# once for the three.  Every region inequality of the package is stated here
# once.
_REGIONS = {
    RegionLabel.RegionA: (ChartId.R1Outer, _RegionQuad("cone", sign=-1),
                          lambda t, r, ts, s: (-0.5 < t) & (t <= 0.0) & (r <= -t)),
    RegionLabel.RegionB: (ChartId.R1Outer, _RegionQuad("slab"),
                          lambda t, r, ts, s: ((a := np.abs(t)) < 0.5) & (a <= r) & (r < 0.5)),
    RegionLabel.RegionC: (ChartId.R1Outer, _RegionQuad("cwedge"),
                          lambda t, r, ts, s: (0.0 <= t) & (t < 0.5) & (ts <= r) & (r <= t)),
    RegionLabel.InnerPiece1: (ChartId.R1Inner, _RegionQuad("band", c_hi=1.0 / 6.0),
                              lambda t, r, ts, s: r <= ts / 6.0),
    RegionLabel.InnerPiece2: (ChartId.R1Inner,
                              _RegionQuad("band", c_lo=1.0 / 6.0, c_hi=1.0 / 3.0),
                              lambda t, r, ts, s: r <= ts / 3.0),
    RegionLabel.InnerPiece3: (ChartId.R1Inner, _RegionQuad("band", c_lo=1.0 / 3.0),
                              lambda t, r, ts, s: True),
    RegionLabel.RegionD: (ChartId.R2Outer, _RegionQuad("band", sign=-1),
                          lambda t, r, ts, s: (-0.5 < t) & (t <= 0.0) & (r <= ts)),
    RegionLabel.RegionE: (ChartId.R2Outer, _RegionQuad("ering"),
                          lambda t, r, ts, s: (np.abs(t) < 0.5) & (ts <= r) & (r < 0.5**s)),
    RegionLabel.CuspInterior: (None, _RegionQuad("band", scale_hi=1.0), None),
}

SAMPLEABLE = tuple(_REGIONS)

# The shape that holds every row of a chart, where the rows share one: the
# cusp core 0 < t <= 1/2, r < t^s of the inner bands, with its closure edge
# t = 1/2, which is also the outer charts' image.
_CHART_SHAPES = {ChartId.R1Inner: lambda t, r, ts: (0.0 < t) & (t <= 0.5) & (r < ts)}

_CHART_REGIONS = {chart: tuple(label for label, row in _REGIONS.items() if row[0] is chart)
                  for chart in ChartId}


def chart_regions(chart: ChartId) -> tuple[RegionLabel, ...]:
    """Region labels of the chart's pieces, in dispatch order."""
    return _CHART_REGIONS[chart]


def chart_of_region(label: RegionLabel) -> ChartId:
    if (chart := _REGIONS.get(label, (None,))[0]) is None:
        raise ValueError(f"{label.value} does not belong to any chart")
    return chart


def scheme_of(chart: ChartId) -> str:
    return next(scheme for scheme, charts in SCHEME_CHARTS.items() if chart in charts)


def outer_chart(scheme: str) -> ChartId:
    return SCHEME_CHARTS[scheme][0]


# The collar regions, A to E: the pieces of both schemes' outer charts.
COLLAR_REGIONS = tuple(label for scheme in SCHEME_CHARTS
                       for label in chart_regions(outer_chart(scheme)))


def region_masks(params: CuspParams, chart: ChartId, t, r, ts=None) -> list[np.ndarray]:
    """Masks of the closed shapes of the chart's regions at profile points
    (t, r), in dispatch order (see `_REGIONS`); `ts` is |t|^s when the
    caller has it."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if ts is None:
        ts = cusp_radius(params, t)
    masks = [_REGIONS[label][2](t, r, ts, params.s) for label in chart_regions(chart)]
    if chart in _CHART_SHAPES:
        inside = _CHART_SHAPES[chart](t, r, ts)
        masks = [inside if mask is True else inside & mask for mask in masks]
    return masks


@dataclass(frozen=True)
class Shell:
    """Dyadic shell k >= 1: the scale variable lies in [2^-(k+1), 2^-k]."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"shell index must be >= 1, got {self.k}")

    @property
    def lo(self) -> float:
        return 2.0 ** (-self.k - 1)

    @property
    def hi(self) -> float:
        return 2.0 ** (-self.k)


def unit_ball_volume(dim: int) -> float:
    """Lebesgue volume of the unit ball in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _log_unit_ball_volume(dim: int) -> float:
    """log `unit_ball_volume`, from `math.lgamma` past dim = 341, where the
    direct form's gamma overflows."""
    try:
        return math.log(unit_ball_volume(dim))
    except OverflowError:
        return dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def on_cusp_wall(params: CuspParams, t, r, ts=None):
    """Profile points within REL_TOL (relative to the local cusp radius) of
    the cusp wall |x| = t^s, 0 < t <= 1; `ts` is |t|^s when the caller has
    it."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if ts is None:
        ts = cusp_radius(params, t)
    return _near_wall((t > 0) & (t <= 1.0), r, ts)


def _near_wall(span, r, ts):
    """`on_cusp_wall` given the mask `span` of the cusp's heights 0 < t <= 1."""
    return span & (np.abs(r - ts) <= REL_TOL * np.maximum(ts, r))


# The classification steps of each scheme: Origin, BoundaryCusp, under R1
# the inner bands below t = 1/2, CuspInterior, BallInterior, the collar
# regions of the scheme's outer chart, and OutsideNeighborhood past the last.
_STEPS = {
    scheme: (RegionLabel.Origin, RegionLabel.BoundaryCusp,
             *(chart_regions(ChartId.R1Inner) if scheme == "R1" else ()),
             RegionLabel.CuspInterior, RegionLabel.BallInterior,
             *chart_regions(outer_chart(scheme)), RegionLabel.OutsideNeighborhood)
    for scheme in SCHEME_CHARTS
}
_STEP_LABELS = {scheme: np.array(steps, dtype=object) for scheme, steps in _STEPS.items()}


def _first_step(masks) -> np.ndarray:
    """Per point, the index of the first true mask, and len(masks) where
    none is: one argmax over the masks laid side by side with a column of
    True.  For the nine to eleven steps of a scheme it costs less than a
    chain of `np.where` on one-row batches and no more on large ones.  A
    mask that is the constant False (a left-out chart's) is not copied."""
    side = np.zeros((*masks[0].shape, len(masks) + 1), dtype=bool)
    for i, mask in enumerate(masks):
        if mask is not False:
            side[..., i] = mask
    side[..., -1] = True
    return side.argmax(axis=-1)


def _locate(params: CuspParams, scheme: str, t, r, ts, charts):
    """The region-table pass behind `classify_profile`, the extension's
    evaluation sites and its chart dispatch, on arrays t, r and ts = |t|^s.
    It computes the cusp-wall mask and each region mask of `charts`, the
    charts of the (checked) scheme whose masks the caller reads, once, and
    returns each point's step (an index into `_STEPS`), the wall mask, and
    the `region_masks` of each of `charts` by chart.  The steps of a chart
    left out hold no point, which then takes a later step."""
    span = (t > 0) & (t <= 1.0)  # the cusp's heights, for the wall and CuspInterior
    wall = _near_wall(span, r, ts)
    masks = {chart: region_masks(params, chart, t, r, ts) for chart in charts}
    ball = np.hypot(t - BALL_CENTER_T, r)
    steps = [np.hypot(t, r) <= ORIGIN_TOL, wall & ~(ball < BALL_RADIUS * (1.0 - REL_TOL))]
    if ChartId.R1Inner in masks:
        below = t < 0.5
        steps += [m & below for m in masks[ChartId.R1Inner]]
    elif scheme == "R1":
        steps += [False] * len(chart_regions(ChartId.R1Inner))
    outer = outer_chart(scheme)
    steps += [span & (r < ts), ball < BALL_RADIUS,
              *masks.get(outer, [False] * len(chart_regions(outer)))]
    return _first_step(steps), wall, masks


def classify_profile(params: CuspParams, scheme: str, t, r):
    """Vectorised region classification in profile coordinates.

    The first matching step labels a point: Origin, then BoundaryCusp
    (within REL_TOL, relative to the local cusp radius, of |x| = t^s with
    0 < t <= 1, outside the ball), under R1 the inner bands below t = 1/2,
    CuspInterior, BallInterior, and the collar regions of the scheme's outer
    chart.  The bands and collar regions are the closed shapes of the region
    table, so interface points go to the earlier region in the order A, B, C
    (resp. D, E; inner band 1, 2, 3).  A non-finite t or r raises
    ValueError (`_reject_non_finite`); a finite point however far out is
    OutsideNeighborhood (`cusp_radius`), and a chart raises ChartDomainError
    for it.
    """
    scheme = check_scheme(scheme)
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    _reject_non_finite(t, r)
    step, _, _ = _locate(params, scheme, t, r, cusp_radius(params, t), SCHEME_CHARTS[scheme])
    return _STEP_LABELS[scheme][step]


def classify(params: CuspParams, scheme: str, z) -> RegionLabel:
    """Classify a point into exactly one region label for the given scheme:
    the one-row case of `classify_profile`, through the gate `as_points`."""
    p = as_point(z, params)
    scheme = check_scheme(scheme)
    t, _, r, ts = as_points([p.t], p.x[None, :], params)
    return _STEP_LABELS[scheme][_locate(params, scheme, t, r, ts, SCHEME_CHARTS[scheme])[0]][0]


def check_scheme(scheme: str) -> str:
    """The scheme's upper-case name; ValueError unless it is R1 or R2."""
    name = str(scheme).upper()
    if name not in SCHEME_CHARTS:
        raise ValueError(f"scheme must be 'R1' or 'R2', got {scheme!r}")
    return name


# ---------------------------------------------------------------------------
# Shell measures
# ---------------------------------------------------------------------------

def _scheme_of_label(label: RegionLabel) -> str | None:
    chart = _REGIONS[label][0]
    return None if chart is None else scheme_of(chart)  # CuspInterior is scheme-agnostic


def _require_sampleable(label: RegionLabel, scheme: str | None = None):
    if label not in _REGIONS:
        raise ValueError(f"{label.value} is not a sampleable open region")
    if scheme is not None:
        want = _scheme_of_label(label)
        if want is not None and want != check_scheme(scheme):
            raise ValueError(f"{label.value} belongs to scheme {want}, not {scheme}")


def _shell_scale_interval(label: RegionLabel, lo: float, hi: float) -> tuple[float, float]:
    return max(lo, 0.0), min(hi, _REGIONS[label][1].scale_hi)


def _log_shell_masses(params: CuspParams, label: RegionLabel, shells):
    """(log measures, log proposal masses) of the `Shell`s or scale intervals
    (lo, hi) of `shells`, in one pass.

    The measure is the log of the exact Lebesgue volume of the region with
    its scale variable in the shell, from the closed-form slices; (0, 1/2)
    gives the volume the shells cover, and a shell that misses the region's
    scale range -inf.  Cross sections are (n-1)-balls or annuli: the cusp
    slice at height t has radius t^s, a cone slice radius |t|; region B
    integrates |x| with the slab length 2|x| in t; region E slices are
    annuli capped at (1/2)^s.  The proposal mass is the log total mass of
    the scale draw's proposal on regions C and E, whose scale law is not
    exact (None on every other label): cn times the integral of xi^(n-1)
    over the shell on C, 2 cn (1/2)^(s(n-1)) (b - a) on E.

    The power integrals of all shells are one `_log_power_norm` call (a row
    per exponent); the scalar steps around it are `math`'s, per shell, so
    each entry is the one-shell value bit for bit.
    """
    _require_sampleable(label)
    n, s = params.n, params.s
    q = _REGIONS[label][1]
    out = np.full(len(shells), -math.inf)
    proposal = out.copy() if q.kind in ("cwedge", "ering") else None
    bounds = [_shell_scale_interval(label, *((sh.lo, sh.hi) if isinstance(sh, Shell) else sh))
              for sh in shells]
    live = [i for i, (a, b) in enumerate(bounds) if a < b]
    if not live:
        return out, proposal
    a, b = zip(*(bounds[i] for i in live))
    log_a = np.array([math.log(x) if x > 0.0 else -math.inf for x in a])
    log_b = np.array([math.log(x) for x in b])
    log_cn = _log_unit_ball_volume(n - 1)
    if q.kind in ("cone", "slab"):
        # slab: t-range 2*xi at radius xi; area weight (n-1)*cn*xi^(n-2)
        head = math.log(2.0 * (n - 1)) + log_cn if q.kind == "slab" else log_cn
        out[live] = head + _log_power_norm(log_a, log_b, n - 1.0)
        return out, proposal
    if q.kind == "band":
        # annulus [c_lo*xi^s, c_hi*xi^s]
        frac = q.c_hi ** (n - 1) - q.c_lo ** (n - 1)
        out[live] = log_cn + math.log(frac) + _log_power_norm(log_a, log_b, s * (n - 1))
        return out, proposal
    # C: cone slices less the cusp's; E: two annuli, each a disk of radius
    # (1/2)^s less the cusp's
    if q.kind == "cwedge":
        whole, cusp = _log_power_norm(log_a, log_b, np.array([[n - 1.0], [s * (n - 1)]]))
        proposal[live] = log_cn + whole
    else:
        cusp = _log_power_norm(log_a, log_b, s * (n - 1))
        proposal[live] = [math.log(2.0 * (y - x)) + log_cn + s * (n - 1) * math.log(0.5)
                          for x, y in zip(a, b)]
        log_cn += math.log(2.0)
        whole = np.array([s * (n - 1) * math.log(0.5) + math.log(y - x) for x, y in zip(a, b)])
    out[live] = [log_cn + w + math.log(-math.expm1(c - w))
                 for w, c in zip(whole.tolist(), cusp.tolist())]
    return out, proposal


def shell_measure(params: CuspParams, label: RegionLabel, shell) -> float:
    """The Lebesgue volume of region /\\ shell (`_log_shell_masses`): 0 or inf
    past the float range."""
    return math.exp(_log_shell_masses(params, label, [shell])[0][0])


# ---------------------------------------------------------------------------
# Deterministic samplers
# ---------------------------------------------------------------------------

def derive_rng(seed: int, k: int, label, salt: str = "") -> np.random.Generator:
    """Per-shell generator from a stable hash of (seed, k, label[, salt])."""
    name = label.value if isinstance(label, RegionLabel) else str(label)
    key = f"{seed}|{k}|{name}|{salt}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def _log_branch(p):
    """Whether the power law x^(p-1) integrates to a log (p = 0): a bool,
    or a bool column for a column of p; `None` when no entry does."""
    log = abs(p) < 1e-14
    return log if (log.any() if isinstance(log, np.ndarray) else log) else None


def _power_icdf(lo, hi, m, u):
    """Inverse CDF of the density ~ x^m on [lo, hi] (log branch at m=-1).
    A column of exponents m gives one row of samples per exponent.  Scaled
    to hi, it reads (lo/hi)^(m+1), which stays in range where lo^(m+1) does
    not.  On a band that starts at the axis, lo is the scalar 0, and
    (lo/hi)^(m+1) is the scalar 0 for m > -1: numpy's power of a zero base
    is several times slower than of other values."""
    p = m + 1.0
    log = _log_branch(p)
    if log is None:
        axis = isinstance(lo, float) and lo == 0.0 and (
            p > 0.0 if isinstance(p, float) else (p > 0.0).all())
        return _scaled_icdf(0.0 if axis else (lo / hi) ** p, u, 1.0 / p, hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(log, lo * (hi / lo) ** u,
                        _scaled_icdf((lo / hi) ** p, u, np.reciprocal(p), hi))


def _scaled_icdf(low, u, inv_p, hi):
    """hi * (low + u (1 - low))^inv_p, built in the one buffer of 1 - low
    (or of its product with u, where low is a scalar or a column; of
    u^inv_p, where low is the scalar 0, whose sum is u itself); an array low
    holds a value for every sample.  A scalar low with a column of exponents
    takes the power into a new buffer of one row per exponent."""
    if isinstance(low, float) and low == 0.0:
        x = u ** inv_p
    else:
        x = 1.0 - low
        if getattr(x, "shape", ())[-1:] == u.shape[-1:]:
            x *= u
        else:  # a scalar or a column of lows
            x = x * u
        x += low
        if isinstance(inv_p, np.ndarray) and x.ndim < inv_p.ndim:
            x = x ** inv_p
        else:
            x **= inv_p
    x *= hi
    return x


def _log_power_norm(log_lo, log_hi, m):
    """log of the integral of x^m over [lo, hi], 0 <= lo < hi (log branch at
    m = -1), per element, from the logs of the bounds, so it stays finite
    where the integral leaves the float range; a column of exponents m gives
    one row per exponent."""
    p = m + 1.0
    log = _log_branch(p)
    span = log_hi - log_lo
    # x^p weighs the larger end: (hi^p - lo^p)/p = hi^p (1 - (lo/hi)^p)/p
    # for p > 0, and lo^p (1 - (lo/hi)^-p)/(-p) for p < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(p > 0.0, log_hi, log_lo) * p
        # log(-expm1(-|p| span)) in the buffer of -|p| span
        tail = np.asarray(-np.abs(p) * span)
        out += np.log(np.negative(np.expm1(tail, tail), tail), tail)
        out -= np.log(np.abs(p))
        return out if log is None else np.where(log, np.log(span), out)


def _uniforms(rngs, shape) -> np.ndarray:
    """The generators' `random(shape)`: one generator's array, or the arrays
    of several stacked."""
    if len(rngs) == 1:
        return rngs[0].random(shape)
    u = np.empty((len(rngs), *shape))
    for rng, block in zip(rngs, u):
        rng.random(out=block)
    return u


def _strata(m1: int, m2: int, rngs, axes, jitter: bool = True) -> list[np.ndarray]:
    """The coordinates `axes` (0: u1, 1: u2) of m1 x m2 samples in the unit
    square per generator, from its next len(axes) m1 m2 doubles; with
    `jitter`, one sample per cell of the grid, u1 jittered within its row of
    cells and u2 within its column."""
    u = _uniforms(rngs, (len(axes), m1, m2))
    coords = [u[..., i, :, :] for i in range(len(axes))]
    for axis, x in zip(axes, coords if jitter else ()):
        x += _strata_offsets(m1, m2)[axis]
        x /= (m1, m2)[axis]
    return coords


@lru_cache(maxsize=16)
def _strata_offsets(m1: int, m2: int) -> tuple[np.ndarray, np.ndarray]:
    """The cell offsets of `_strata`: the column 0..m1-1 and the row
    0..m2-1, as read-only floats kept for the last few grid shapes."""
    rows, cols = np.arange(float(m1))[:, None], np.arange(float(m2))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _grid_shape(count: int) -> tuple[int, int]:
    m1 = max(1, math.isqrt(count))
    m2 = max(1, math.ceil(count / m1))
    return m1, m2


def _off_the_edges(u2: np.ndarray) -> np.ndarray:
    """u2 squeezed into [1e-9, 1 - 1e-9] in place, so that a conditional
    coordinate never sits exactly on a region interface (bias ~ 1e-9, far
    below Monte Carlo noise)."""
    u2 *= 1.0 - 2e-9
    u2 += 1e-9
    return u2


class _once:
    """`functools.cached_property` without the lock that Python 3.11 takes on
    each first read (about 0.5 us, a few times per shell): the value is made
    on the first read and stored on the instance, whose attribute hides this
    descriptor from then on.  A sample is never shared between threads."""

    def __init__(self, make):
        self.make, self.name = make, make.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.make(obj)
        return value


@dataclass
class ProfileSample:
    """Weighted samples of region /\\ shell, a row per shell of a batch, in logs.

    mean(exp(log_weight) f(t, r)) estimates the measure-average of f; its
    log plus `log_measure` is the log of the shell integral.  The weight
    absorbs any mismatch between the sampling law and the true normalised
    measure: the scale draw's weight w (the scalar 0.0 on cones, bands and
    the slab, whose scale law is exact), times r^tilt z_m / z_r where a
    radial tilt reshaped the radius law (z_m and z_r, whose logs stay finite
    past the float range, normalise the tilted and the true radial density;
    see `profile`).  `weights` makes (log_weight, log_measure) on the first
    read of either, so a caller that reads the points alone never forms the
    shell measure.

    `band` makes the conditional radial band [lo_r, hi_r] and its uniform
    variate u2, squeezed off the band's edges; it runs on the first read of
    `lo_r`, `hi_r` or `u2`, which the first read of an untilted sample's
    radii `r` does, so an integrand of t alone neither forms the band nor
    draws a radius.  On a band that starts at the axis (region A, region D,
    `CuspInterior`, inner band 1), lo_r is the scalar 0.0.  Region B's slab
    fixes r by the scale variable alone, so `fixed_r` holds it there and the
    band holds u2 alone; a tilted sample's `fixed_r` holds its radii.
    """

    n: int
    t: np.ndarray
    weights: Callable[[], tuple]
    count: int
    band: Callable[[], tuple]
    fixed_r: np.ndarray | None = None

    @_once
    def _weights(self):
        return self.weights()

    log_weight = property(lambda self: self._weights[0])
    log_measure = property(lambda self: self._weights[1])

    @_once
    def _band(self):
        return self.band()

    lo_r = property(lambda self: self._band[0])
    hi_r = property(lambda self: self._band[1])
    u2 = property(lambda self: self._band[2])

    @_once
    def r(self) -> np.ndarray:
        if self.fixed_r is not None:
            return self.fixed_r
        return _power_icdf(self.lo_r, self.hi_r, float(self.n - 2), self.u2)

    def profile(self, radial_tilt=0.0) -> ProfileSample:
        """The samples with conditional radial density ~ r^(n-2-radial_tilt)
        in the band, compensated by weights, which kills the variance of
        integrands with a known radial power singularity (region E).

        Untilted, and on a sample whose radii are fixed (the slab, a tilted
        sample), this is the sample itself.  Otherwise it is a new sample
        that shares this one's t and band and draws its radii at once from
        the same variate u2.  `radial_tilt` is one tilt or a column of
        tilts, which gives one row of radii and weights per tilt; each row
        equals a one-tilt column's bit for bit.  Several tilts may be
        applied to one sample; each call leaves it unchanged.
        """
        if self.fixed_r is not None or (not isinstance(radial_tilt, np.ndarray)
                                        and radial_tilt == 0.0):
            return self
        cap, log_lo, log_hi, log_z_r = self._tilt_frame
        if isinstance(cap, np.ndarray) and np.all(radial_tilt <= cap):
            cap = radial_tilt  # no shell's cap binds: the tilt stays a scalar
        radial_tilt = np.minimum(radial_tilt, cap)
        m_r = float(self.n - 2) - radial_tilt
        r = _power_icdf(self.lo_r, self.hi_r, m_r, self.u2)
        log_weight = np.log(r)
        log_weight *= radial_tilt
        log_weight += self.log_weight
        norm = _log_power_norm(log_lo, log_hi, m_r)
        norm -= log_z_r
        log_weight += norm
        weights = (log_weight, self.log_measure)
        return ProfileSample(self.n, self.t, lambda: weights, self.count, lambda: self._band, r)

    @_once
    def _tilt_frame(self):
        """What every tilted `profile` of the sample shares, made on the
        first: the tilt cap (a float, or a column of each shell's), log lo_r,
        log hi_r and the log normaliser z_r of the untilted radial density."""
        nm2 = float(self.n - 2)
        # Cap the tilt so (lo/hi)^(m+1) stays in float range; the cells that
        # need variance reduction sit near the critical curve where the
        # natural tilt is about (n-1) + 1/s, far below the cap.
        caps = [nm2 + 0.99 if lo_min <= 0.0 else (nm2 + 1.0) + 600.0 / max(1.0, -math.log(lo_min))
                for lo_min in np.reshape(np.min(self.lo_r, axis=-1), -1).tolist()]
        with np.errstate(divide="ignore"):  # lo_r is 0 on axis bands
            log_lo, log_hi = np.log(self.lo_r), np.log(self.hi_r)
        return (caps[0] if len(caps) == 1 else np.array(caps)[:, None], log_lo, log_hi,
                _log_power_norm(log_lo, log_hi, nm2))


def sample_profile(
    params: CuspParams,
    label: RegionLabel,
    shells,
    count: int,
    rngs,
    stratify: bool = True,
    *,
    masses=None,
) -> ProfileSample:
    """Draw weighted (t, r) quadrature samples from region /\\ shell for
    each of the `shells`, each from its own generator of `rngs`, in one pass.

    The scale coordinate follows its exact power law when the normalisation
    is closed form (cone/slab/band, log weight the scalar 0.0); otherwise
    (C, E) a closed-form proposal plus a log importance weight is used.
    The radius follows the untilted conditional law in its band, formed on
    its first read (see `ProfileSample`).  Stratification is a jittered 2-D
    grid, so the effective count per shell is the enclosing m1*m2 grid
    size; a stream gives u1, then u2, then region E's sign coin, and on
    cones, bands and region C a stratified draw takes u2 from it only when
    the band is formed.  `masses` holds each shell's (log measure, log
    proposal mass or None) of `_log_shell_masses`, for callers that made
    every shell's at once; the sample forms its log weights and measure,
    and any masses not handed in, on the first read of either.

    One shell gives flat arrays and Python-float scalars; J shells give
    arrays (J, N), a row per shell, and their scalars (the scale interval,
    (a/b)^p, proposal - measure, `ProfileSample._tilt_frame`'s tilt cap),
    each computed as for one shell, as (J, 1) columns (`log_measure` (J,)).
    So a row is its shell's one-shell sample bit for bit, except where a
    shell's cap binds the tilt, whose column then rounds apart a shell whose
    radial exponent is one of numpy's special-cased powers.
    """
    _require_sampleable(label)
    n, s = params.n, params.s
    bounds = [_shell_scale_interval(label, sh.lo, sh.hi) for sh in shells]
    for shell, (a, b) in zip(shells, bounds):
        if b <= a:
            raise EmptyRegionError(f"shell {shell.k} misses the scale range of {label.value}")
    q = _REGIONS[label][1]
    one = len(shells) == 1
    stack = (lambda values: values[0]) if one else (lambda values: np.array(values)[:, None])
    a, b = bounds[0] if one else np.array(bounds).T[..., None]
    m1, m2 = _grid_shape(count) if stratify else (1, count)
    shape = (m1 * m2,) if one else (len(shells), m1 * m2)
    draw = lambda *axes: [x.reshape(shape) for x in _strata(m1, m2, rngs, axes, stratify)]
    u1, u2 = draw(0) + [None] if stratify and q.kind in ("cone", "band", "cwedge") else draw(0, 1)

    log_w = None  # the scale draw's log weight less log(proposal / measure)
    if q.kind == "ering":
        # uniform proposal; true density ~ (1/2)^(s(n-1)) - xi^(s(n-1)), of
        # total mass the measure
        xi = a + (b - a) * u1
        log_w = lambda: np.log1p(-_normal_power(2.0 * xi, s * (n - 1.0), 2.0 * min(bounds)[0]))
        t = xi * np.where(_uniforms(rngs, (m1 * m2,)).reshape(shape) < 0.5, 1.0, -1.0)
        band = lambda: (xi**s, np.full(shape, 0.5**s))
    else:  # `_power_icdf` of the scale's power law, each shell's (a/b)^p a Python float
        p = (s * (n - 1.0) if q.kind == "band" else n - 1.0) + 1.0
        xi = _scaled_icdf(stack([(x / y) ** p for x, y in bounds]), u1, 1.0 / p, b)
        t = xi if q.sign == 1 else -xi
    if q.kind == "cone":
        band = lambda: (0.0, xi)
    elif q.kind == "band":
        def band():
            xi_s = xi**s
            return q.c_lo * xi_s if q.c_lo else 0.0, q.c_hi * xi_s
    elif q.kind == "slab":
        u2 = _off_the_edges(u2)
        t = -xi + 2.0 * xi * u2
    elif q.kind == "cwedge":
        # proposal ~ xi^(n-1); true density ~ xi^(n-1) - xi^(s(n-1)), of
        # total mass the measure
        log_w = lambda: np.log1p(-_normal_power(xi, (s - 1.0) * (n - 1.0), min(bounds)[0]))
        band = lambda: (xi**s, xi)

    def weights():
        given = masses or [(None, None)] * len(shells)
        if any(m is None or (p is None and log_w is not None) for m, p in given):
            measures, proposals = _log_shell_masses(params, label, shells)
            given = [(float(measures[j]) if m is None else m,
                      float(proposals[j]) if p is None and proposals is not None else p)
                     for j, (m, p) in enumerate(given)]
        measure = given[0][0] if one else np.array([m for m, _ in given])
        return (0.0 if log_w is None else log_w() + stack([p - m for m, p in given])), measure

    if q.kind == "slab":
        return ProfileSample(n, t, weights, u1.size, lambda: (None, None, u2), xi)
    return ProfileSample(n, np.asarray(t, dtype=float), weights, u1.size,
                         lambda: (*band(), _off_the_edges(draw(1)[0] if u2 is None else u2)))


def _normal_power(x, m: float, lo: float):
    """x ** m for an array x >= lo >= 0 and m > 0, with 0.0 where the power
    would fall below the normal floats: numpy's power takes up to 70 times as
    long where its result is subnormal, and log1p(-y) of such a y is -y,
    below the rounding of the logs of the shell sums it is added to.  The
    power is taken of the x at or above `_power_floor(m)`, each rounded as
    in a power of the whole array."""
    floor = _power_floor(m)
    if lo >= floor:
        return x ** m
    out = np.zeros_like(x)
    live = x >= floor
    out[live] = x[live] ** m
    return out


@lru_cache(maxsize=16)
def _power_floor(m: float) -> float:
    """A floor whose power floor ** m (m > 0) is below the normal floats,
    2^-1022, so that the power of every smaller x is: 2^(-1022/m), the
    floor of the exact power, or the float below it that passes."""
    floor = 2.0 ** (-1022.0 / m)
    while floor ** m >= 2.0 ** -1022:
        floor = math.nextafter(floor, 0.0)
    return floor


def random_directions(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vectors on S^{dim-1}, rows of shape (count, dim)."""
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def sample_region_points(
    params: CuspParams,
    scheme: str,
    label: RegionLabel,
    shell: Shell,
    count: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically sample `count` points of region /\\ shell as
    arrays: t of shape (count,) and cross sections of shape (count, n-1).

    Every point classifies back to `label` under the scheme; the per-shell
    stream is derived from (seed, shell.k, label) so reruns and
    out-of-order shell evaluation reproduce identical points.
    """
    _require_sampleable(label, scheme)
    if count <= 0:
        raise ValueError("count must be positive")
    rng = derive_rng(seed, shell.k, label)
    prof = sample_profile(params, label, [shell], count, [rng], stratify=False)
    dirs = random_directions(prof.count, params.n - 1, rng)
    return prof.t[:count], (prof.r[:, None] * dirs)[:count]


def sample_region(params: CuspParams, scheme: str, label: RegionLabel, shell: Shell, count: int,
                  seed: int) -> list[Point]:
    """`sample_region_points` as a list of Points."""
    t, X = sample_region_points(params, scheme, label, shell, count, seed)
    return [Point(float(ti), xi) for ti, xi in zip(t, X)]


def shells(k_min: int, k_max: int) -> list[Shell]:
    """Ascending shells k_min..k_max inclusive."""
    if k_max < k_min:
        raise ValueError("k_max must be >= k_min")
    return [Shell(k) for k in range(k_min, k_max + 1)]
