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
table below states each piece's chart, scheme and closed shape once; the
classification, the chart dispatch of `reflections` and the samplers' scheme
checks all read it.  Everything here is axisymmetric in x, so the heavy
lifting happens in profile coordinates (t, r) with r = |x|; a point
contributes Lebesgue measure with the weight of the (n-2)-sphere of radius
r.

Dyadic shells stratify the singular integrals: shell k covers the region's
scale variable (|t| for A, C, D, E and the inner bands; |x| for B) in
[2^-(k+1), 2^-k].
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

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
        if not (math.isfinite(self.t) and np.all(np.isfinite(self.x))):
            raise ValueError("point has non-finite coordinates")

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.x))

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.t], self.x))

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


def as_points(t, X, params: CuspParams) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a point batch: t of shape (N,) and cross sections X of shape (N, n-1)."""
    t = np.asarray(t, dtype=float).reshape(-1)
    X = np.asarray(X, dtype=float)
    if X.shape != (t.size, params.n - 1):
        raise ValueError(f"expected x of shape {(t.size, params.n - 1)}, got {X.shape}")
    return t, X


def radii(X) -> np.ndarray:
    """|x| of each row of X, rounded as `Point.r` rounds one row."""
    X = np.asarray(X, dtype=float)
    return np.sqrt((X[..., None, :] @ X[..., :, None])[..., 0, 0])


def first_flagged(bad: np.ndarray, t, X) -> tuple[int, Point] | None:
    """Index and Point of the first flagged row of a point batch, if any."""
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, Point(t[i], X[i])


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


# ---------------------------------------------------------------------------
# Region table
# ---------------------------------------------------------------------------

class ChartId(Enum):
    R1Outer = "R1Outer"
    R1Inner = "R1Inner"
    R2Outer = "R2Outer"


# The scheme table: each scheme's charts, its outer chart first.
SCHEME_CHARTS: dict[str, tuple[ChartId, ...]] = {
    "R1": (ChartId.R1Outer, ChartId.R1Inner),
    "R2": (ChartId.R2Outer,),
}


def _core(t, r, ts):
    """The cusp core 0 < t <= 1/2, r < t^s, with its closure edge t = 1/2."""
    return (0.0 < t) & (t <= 0.5) & (r < ts)


# The region table: every chart region's chart, piece name and closed shape
# in profile coordinates (t, r), r = |x|, as a mask of (t, r, ts = |t|^s, s).
# Each chart's rows are in dispatch order: a point on an interface lies in
# both neighbours' shapes and goes to the earlier row.  The collar regions
# lie in the open collar box |t| < 1/2, r < 1/2 (r < (1/2)^s for R2), the
# inner bands in the cusp core.  Every region inequality of the package is
# stated here once.
_REGIONS = {
    RegionLabel.RegionA: (ChartId.R1Outer, "A",
                          lambda t, r, ts, s: (-0.5 < t) & (t <= 0.0) & (r <= -t)),
    RegionLabel.RegionB: (ChartId.R1Outer, "B",
                          lambda t, r, ts, s: (np.abs(t) < 0.5) & (np.abs(t) <= r) & (r < 0.5)),
    RegionLabel.RegionC: (ChartId.R1Outer, "C",
                          lambda t, r, ts, s: (0.0 <= t) & (t < 0.5) & (ts <= r) & (r <= t)),
    RegionLabel.InnerPiece1: (ChartId.R1Inner, "P1",
                              lambda t, r, ts, s: _core(t, r, ts) & (r <= ts / 6.0)),
    RegionLabel.InnerPiece2: (ChartId.R1Inner, "P2",
                              lambda t, r, ts, s: _core(t, r, ts) & (r <= ts / 3.0)),
    RegionLabel.InnerPiece3: (ChartId.R1Inner, "P3", lambda t, r, ts, s: _core(t, r, ts)),
    RegionLabel.RegionD: (ChartId.R2Outer, "D",
                          lambda t, r, ts, s: (-0.5 < t) & (t <= 0.0) & (r <= ts)),
    RegionLabel.RegionE: (ChartId.R2Outer, "E",
                          lambda t, r, ts, s: (np.abs(t) < 0.5) & (ts <= r) & (r < 0.5**s)),
}

_CHART_REGIONS = {chart: tuple(label for label, row in _REGIONS.items() if row[0] is chart)
                  for chart in ChartId}


def chart_regions(chart: ChartId) -> tuple[RegionLabel, ...]:
    """Region labels of the chart's pieces, in dispatch order."""
    return _CHART_REGIONS[chart]


def chart_of_region(label: RegionLabel) -> ChartId:
    try:
        return _REGIONS[label][0]
    except KeyError:
        raise ValueError(f"{label.value} does not belong to any chart") from None


def piece_of_region(label: RegionLabel) -> str:
    try:
        return _REGIONS[label][1]
    except KeyError:
        raise ValueError(f"{label.value} is not a chart piece") from None


def scheme_of(chart: ChartId) -> str:
    return next(scheme for scheme, charts in SCHEME_CHARTS.items() if chart in charts)


def outer_chart(scheme: str) -> ChartId:
    return SCHEME_CHARTS[scheme][0]


# The collar regions, A to E: the pieces of both schemes' outer charts.
COLLAR_REGIONS = tuple(label for scheme in SCHEME_CHARTS
                       for label in chart_regions(outer_chart(scheme)))


def region_masks(params: CuspParams, chart: ChartId, t, r) -> list[np.ndarray]:
    """Masks of the closed shapes of the chart's regions at profile points
    (t, r), in dispatch order (see `_REGIONS`)."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    ts = np.abs(t) ** params.s
    return [_REGIONS[label][2](t, r, ts, params.s) for label in chart_regions(chart)]


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


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _inside_ball(t, r, slack: float = 0.0):
    return np.hypot(t - BALL_CENTER_T, r) < BALL_RADIUS * (1.0 - slack)


def on_cusp_wall(params: CuspParams, t, r):
    """Profile points within REL_TOL (relative to the local cusp radius) of
    the cusp wall |x| = t^s, 0 < t <= 1."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    ts = np.abs(t) ** params.s
    return (t > 0) & (t <= 1.0) & (np.abs(r - ts) <= REL_TOL * np.maximum(ts, r))


def classify_profile(params: CuspParams, scheme: str, t, r):
    """Vectorised region classification in profile coordinates.

    The first matching step labels a point: Origin, then BoundaryCusp
    (within REL_TOL, relative to the local cusp radius, of |x| = t^s with
    0 < t <= 1), under R1 the inner bands below t = 1/2, CuspInterior,
    BallInterior, and the collar regions of the scheme's outer chart.  The
    bands and collar regions are the closed shapes of the region table, so
    interface points go to the earlier region in the order A, B, C (resp.
    D, E; inner band 1, 2, 3).
    """
    scheme = check_scheme(scheme)
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    steps = [
        (np.hypot(t, r) <= ORIGIN_TOL, RegionLabel.Origin),
        (on_cusp_wall(params, t, r) & ~_inside_ball(t, r, REL_TOL), RegionLabel.BoundaryCusp),
    ]
    if scheme == "R1":
        steps += zip([m & (t < 0.5) for m in region_masks(params, ChartId.R1Inner, t, r)],
                     chart_regions(ChartId.R1Inner))
    steps += [
        ((t > 0) & (t <= 1.0) & (r < np.abs(t) ** params.s), RegionLabel.CuspInterior),
        (_inside_ball(t, r), RegionLabel.BallInterior),
    ]
    chart = outer_chart(scheme)
    steps += zip(region_masks(params, chart, t, r), chart_regions(chart))
    masks, labels = zip(*steps)
    step = select_first(masks, range(len(masks)), len(masks))
    return np.array([*labels, RegionLabel.OutsideNeighborhood], dtype=object)[step]


def classify(params: CuspParams, scheme: str, z) -> RegionLabel:
    """Classify a point into exactly one region label for the given scheme:
    the one-row case of `classify_profile` on (t, radii(x))."""
    p = as_point(z, params)
    return classify_profile(params, scheme, np.array([p.t]), radii(p.x[None, :]))[0]


def check_scheme(scheme: str) -> str:
    """The scheme's upper-case name; ValueError unless it is R1 or R2."""
    name = str(scheme).upper()
    if name not in SCHEME_CHARTS:
        raise ValueError(f"scheme must be 'R1' or 'R2', got {scheme!r}")
    return name


# ---------------------------------------------------------------------------
# Shell measures
# ---------------------------------------------------------------------------

# Per-region quadrature structure: the scale variable, its exact (or
# proposal) power, and the conditional radial band at fixed scale.
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


_QUAD: dict[RegionLabel, _RegionQuad] = {
    RegionLabel.RegionA: _RegionQuad("cone", sign=-1),
    RegionLabel.RegionB: _RegionQuad("slab"),
    RegionLabel.RegionC: _RegionQuad("cwedge"),
    RegionLabel.RegionD: _RegionQuad("band", sign=-1),
    RegionLabel.RegionE: _RegionQuad("ering"),
    RegionLabel.CuspInterior: _RegionQuad("band", scale_hi=1.0),
    RegionLabel.InnerPiece1: _RegionQuad("band", c_hi=1.0 / 6.0),
    RegionLabel.InnerPiece2: _RegionQuad("band", c_lo=1.0 / 6.0, c_hi=1.0 / 3.0),
    RegionLabel.InnerPiece3: _RegionQuad("band", c_lo=1.0 / 3.0),
}

SAMPLEABLE = tuple(_QUAD)


def _scheme_of_label(label: RegionLabel) -> str | None:
    try:
        return scheme_of(chart_of_region(label))
    except ValueError:
        return None  # CuspInterior is scheme-agnostic


def _require_sampleable(label: RegionLabel, scheme: str | None = None):
    if label not in _QUAD:
        raise ValueError(f"{label.value} is not a sampleable open region")
    if scheme is not None:
        want = _scheme_of_label(label)
        if want is not None and want != check_scheme(scheme):
            raise ValueError(f"{label.value} belongs to scheme {want}, not {scheme}")


def _shell_scale_interval(label: RegionLabel, lo: float, hi: float) -> tuple[float, float]:
    q = _QUAD[label]
    return max(lo, 0.0), min(hi, q.scale_hi)


def log_shell_measure(params: CuspParams, label: RegionLabel, shell) -> float:
    """log of the exact Lebesgue volume of the region with its scale
    variable in a dyadic `Shell` or in a scale interval (lo, hi), from the
    closed-form slices; (0, 1/2) gives the volume the shells cover.

    Cross sections are (n-1)-balls or annuli: the cusp slice at height t has
    radius t^s, a cone slice radius |t|; region B integrates |x| with the
    slab length 2|x| in t; region E slices are annuli capped at (1/2)^s.
    """
    _require_sampleable(label)
    n, s = params.n, params.s
    lo, hi = (shell.lo, shell.hi) if isinstance(shell, Shell) else shell
    a, b = _shell_scale_interval(label, lo, hi)
    if b <= a:
        return -math.inf
    log_a, log_b = math.log(a) if a > 0.0 else -math.inf, math.log(b)
    log_cn = math.log(unit_ball_volume(n - 1))
    q = _QUAD[label]
    if q.kind == "cone":
        return log_cn + float(_log_power_norm(log_a, log_b, n - 1))
    if q.kind == "slab":
        # t-range 2*xi at radius xi; area weight (n-1)*cn*xi^(n-2)
        return math.log(2.0 * (n - 1)) + log_cn + float(_log_power_norm(log_a, log_b, n - 1))
    if q.kind == "band":
        # annulus [c_lo*xi^s, c_hi*xi^s]
        frac = q.c_hi ** (n - 1) - q.c_lo ** (n - 1)
        return log_cn + math.log(frac) + float(_log_power_norm(log_a, log_b, s * (n - 1)))
    # C: cone slices less the cusp's; E: two annuli, each a disk of radius
    # (1/2)^s less the cusp's
    cusp = float(_log_power_norm(log_a, log_b, s * (n - 1)))
    if q.kind == "cwedge":
        whole = float(_log_power_norm(log_a, log_b, n - 1))
    else:
        log_cn += math.log(2.0)
        whole = s * (n - 1) * math.log(0.5) + math.log(b - a)
    return log_cn + whole + math.log(-math.expm1(cusp - whole))


def shell_measure(params: CuspParams, label: RegionLabel, shell) -> float:
    """exp of `log_shell_measure`: 0 or inf past the float range."""
    return math.exp(log_shell_measure(params, label, shell))


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
    to hi, it reads (lo/hi)^(m+1), which stays in range where lo^(m+1) does not."""
    p = m + 1.0
    log = _log_branch(p)
    if log is None:
        low = (lo / hi) ** p
        return hi * (low + u * (1.0 - low)) ** (1.0 / p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        low = (lo / hi) ** p
        return np.where(log, lo * (hi / lo) ** u,
                        hi * (low + u * (1.0 - low)) ** np.reciprocal(p))


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
        out = (np.where(p > 0.0, p * log_hi, p * log_lo)
               + np.log(-np.expm1(-np.abs(p) * span)) - np.log(np.abs(p)))
        return out if log is None else np.where(log, np.log(span), out)


@dataclass
class ProfileSample:
    """Weighted profile samples of region /\\ shell for quadrature, in logs.

    mean(exp(log_weight) f(t, r)) estimates the measure-average of f; its
    log plus `log_measure` is the log of the shell integral.  The weight
    absorbs any mismatch between the sampling law and the true normalised
    measure: the scale draw's weight w, times r^tilt z_m / z_r where a
    radial tilt reshaped the radius law (z_m and z_r, whose logs stay finite
    past the float range, normalise the tilted and the true radial density).
    With a column of tilts, r and the log weight have one row per tilt.
    """

    t: np.ndarray
    r: np.ndarray
    log_weight: np.ndarray
    log_measure: float
    count: int


def _strata(m1: int, m2: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Jittered m1 x m2 grid in the unit square, one sample per cell."""
    u1 = (np.arange(m1)[:, None] + rng.random((m1, m2))) / m1
    u2 = (np.arange(m2) + rng.random((m1, m2))) / m2
    return u1.ravel(), u2.ravel()


def _grid_shape(count: int) -> tuple[int, int]:
    m1 = max(1, math.isqrt(count))
    m2 = max(1, math.ceil(count / m1))
    return m1, m2


@dataclass
class ScaleDraw:
    """Region /\\ shell samples whose radius is still to be drawn.

    The scale variable, t, the log importance weight and the conditional
    radial band [lo_r, hi_r] with its uniform variate u2 are fixed;
    `profile` draws r from the band.  Region B's slab fixes r by the scale
    variable alone, so `r` is set there and the band is unused.
    """

    n: int
    t: np.ndarray
    log_weight: np.ndarray
    log_measure: float
    count: int
    lo_r: np.ndarray | None = None
    hi_r: np.ndarray | None = None
    u2: np.ndarray | None = None
    r: np.ndarray | None = None

    def profile(self, radial_tilt=0.0) -> ProfileSample:
        """Draw r with conditional density ~ r^(n-2-radial_tilt) in the band,
        compensated by weights, and return the finished samples.

        `radial_tilt` is one tilt or a column of tilts, which gives one row
        of radii and weights per tilt; each row equals a one-tilt column's
        bit for bit.  Several tilts may be applied to one draw; each call
        leaves the draw unchanged.
        """
        if self.r is not None:
            return ProfileSample(self.t, self.r, self.log_weight, self.log_measure, self.count)
        lo_r, hi_r = self.lo_r, self.hi_r
        nm2 = float(self.n - 2)
        if np.ndim(radial_tilt) == 0 and radial_tilt == 0.0:
            r = _power_icdf(lo_r, hi_r, nm2, self.u2)
            return ProfileSample(self.t, r, self.log_weight, self.log_measure, self.count)
        # Cap the tilt so (lo/hi)^(m+1) stays in float range; the cells that
        # need variance reduction sit near the critical curve where the
        # natural tilt is about (n-1) + 1/s, far below the cap.
        lo_min = float(np.min(lo_r))
        if lo_min <= 0.0:
            cap = nm2 + 0.99
        else:
            cap = (nm2 + 1.0) + 600.0 / max(1.0, -math.log(lo_min))
        radial_tilt = np.minimum(radial_tilt, cap)
        m_r = nm2 - radial_tilt
        r = _power_icdf(lo_r, hi_r, m_r, self.u2)
        with np.errstate(divide="ignore"):  # lo_r is 0 on cones and inner band 1
            log_lo, log_hi = np.log(lo_r), np.log(hi_r)
        log_weight = self.log_weight + radial_tilt * np.log(r) + (
            _log_power_norm(log_lo, log_hi, m_r) - _log_power_norm(log_lo, log_hi, nm2))
        return ProfileSample(self.t, r, log_weight, self.log_measure, self.count)


def draw_scale(
    params: CuspParams,
    label: RegionLabel,
    shell: Shell,
    count: int,
    rng: np.random.Generator,
    stratify: bool = True,
) -> ScaleDraw:
    """Draw everything of `sample_profile` but the radius.

    The scale coordinate follows its exact power law when the normalisation
    is closed form (cone/slab/band, log weight 0); otherwise (C, E) a
    closed-form proposal plus a log importance weight is used.
    Stratification is a jittered 2-D grid, so the effective count is the
    enclosing m1*m2 grid size.
    """
    _require_sampleable(label)
    n, s = params.n, params.s
    a, b = _shell_scale_interval(label, shell.lo, shell.hi)
    if b <= a:
        raise EmptyRegionError(f"shell {shell.k} misses the scale range of {label.value}")
    q = _QUAD[label]
    log_measure = log_shell_measure(params, label, shell)
    log_cn = math.log(unit_ball_volume(n - 1))

    if stratify:
        m1, m2 = _grid_shape(count)
        u1, u2 = _strata(m1, m2, rng)
        m = m1 * m2
    else:
        m = count
        u1, u2 = rng.random(m), rng.random(m)
    # keep the conditional coordinate strictly inside its band, so samples
    # never sit exactly on a region interface (bias ~ 1e-9, far below MC noise)
    u2 = 1e-9 + (1.0 - 2e-9) * u2

    log_w = np.zeros(m)

    if q.kind == "cone":
        xi = _power_icdf(a, b, n - 1.0, u1)
        lo_r, hi_r = np.zeros(m), xi
        t = q.sign * xi
    elif q.kind == "band":
        xi = _power_icdf(a, b, s * (n - 1.0), u1)
        lo_r, hi_r = q.c_lo * xi**s, q.c_hi * xi**s
        t = q.sign * xi
    elif q.kind == "slab":
        xi = _power_icdf(a, b, n - 1.0, u1)
        t = -xi + 2.0 * xi * u2
        return ScaleDraw(n, t, log_w, log_measure, m, r=xi)
    elif q.kind == "cwedge":
        # proposal ~ xi^(n-1), of total mass cn zp; true density ~ xi^(n-1)
        # - xi^(s(n-1)), of total mass the measure
        xi = _power_icdf(a, b, n - 1.0, u1)
        log_zp = float(_log_power_norm(math.log(a), math.log(b), n - 1.0))
        log_w = np.log1p(-xi ** ((s - 1.0) * (n - 1.0))) + (log_cn + log_zp - log_measure)
        lo_r, hi_r = xi**s, xi
        t = xi
    else:  # 'ering'
        # uniform proposal, of total mass 2 cn (1/2)^(s(n-1)) (b - a); true
        # density ~ (1/2)^(s(n-1)) - xi^(s(n-1)), of total mass the measure
        xi = a + (b - a) * u1
        log_mass = math.log(2.0 * (b - a)) + log_cn + s * (n - 1) * math.log(0.5)
        log_w = np.log1p(-(2.0 * xi) ** (s * (n - 1.0))) + (log_mass - log_measure)
        lo_r, hi_r = xi**s, np.full(m, 0.5**s)
        t = xi * np.where(rng.random(m) < 0.5, 1.0, -1.0)
    return ScaleDraw(n, np.asarray(t, dtype=float), log_w, log_measure, m, lo_r, hi_r, u2)


def sample_profile(
    params: CuspParams,
    label: RegionLabel,
    shell: Shell,
    count: int,
    rng: np.random.Generator,
    radial_tilt: float = 0.0,
    stratify: bool = True,
) -> ProfileSample:
    """Draw weighted (t, r) quadrature samples from region /\\ shell.

    `draw_scale` draws the scale coordinate and the radial band;
    `radial_tilt` then reshapes the conditional radial density to
    ~ r^(n-2-tilt), compensated by weights, which kills the variance of
    integrands with a known radial power singularity (region E).
    """
    return draw_scale(params, label, shell, count, rng, stratify).profile(radial_tilt)


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
    prof = sample_profile(params, label, shell, count, rng, stratify=False)
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
