"""Piecewise reflection charts over the cusp boundary and their Jacobians.

Every chart piece is axisymmetric and has the form

    (t, x)  |->  ( T(t, r),  phi(t, r) * x/|x| ),      r = |x|,

so its differential splits into a 2x2 profile block [[T_t, T_r],
[phi_t, phi_r]] acting on (t, radial) directions plus an (n-2)-fold
tangential stretch phi/r.  Determinants, operator norms and the full n x n
matrices are assembled from those five scalars; the closed forms below were
derived from the map formulas and are cross-checked against central finite
differences by the test suite.

Charts:

  R1Outer  on A u B u C   (collar minus the closed domain, scheme R1)
      A: (-t, |t|^(s-1) x / 6)
      B: (|x|, (t/6)|x|^(s-2) x + (1/3)|x|^(s-1) x)
      C: (t, lam(t) x + mu(t) x/|x|),
         lam = t^(s-1) / (2(t^(s-1)-1)),  mu = t^s - t^(2s-1)/(2(t^(s-1)-1))

  R1Inner  on the cusp core {0 < t <= 1/2, |x| < t^s}, radius bands
      |x| <  t^s/6 :  (-t, 6x/t^(s-1))
      |x| <  t^s/3 :  (12|x|/t^(s-1) - 3t, t x/|x|)
      |x| <  t^s   :  (t, a(t) x + b(t) x/|x|),
                      a = 3(t^s - t)/(2 t^s),  b = (3t - t^s)/2

  R2Outer  on D u E (scheme R2 collar)
      D: (-t, x/2)
      E: (|x|^(1/s), (t/4) x/|x|^(1/s) + (3/4) x)

All charts restrict to the identity on the cusp boundary |x| = t^s, and the
outer charts map their collar onto the cusp core with image radius bands
[0, 1/6], [1/6, 1/2], [1/2, 1] (R1) and [0, 1/2], [1/2, 1] (R2) in units of
t^s.  The charts are orientation reversing: det < 0 everywhere.

The maps work on point batches: `apply_points`, `differential_points`,
`differential_fd_points` and `invert_points` take t of shape (N,) and cross
sections X of shape (N, n-1), dispatch every point to its own piece, and
raise for the first point off the chart.  `apply`, `differential`,
`differential_fd` and `invert` are their one-row cases on a Point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ChartDomainError, InterfaceError
from .geometry import (
    CuspParams,
    Point,
    RegionLabel,
    as_point,
    as_points,
    classify,
    first_flagged,
    on_cusp_wall,
    radii,
    select_first,
)


class ChartId(Enum):
    R1Outer = "R1Outer"
    R1Inner = "R1Inner"
    R2Outer = "R2Outer"


# Piece keys, in dispatch order (ties go to the earlier piece).
_CHART_PIECES: dict[ChartId, tuple[str, ...]] = {
    ChartId.R1Outer: ("A", "B", "C"),
    ChartId.R1Inner: ("P1", "P2", "P3"),
    ChartId.R2Outer: ("D", "E"),
}

# The scheme table: each scheme's charts, its outer chart first.  Every
# scheme -> chart -> region lookup in the package goes through it.
SCHEME_CHARTS: dict[str, tuple[ChartId, ...]] = {
    "R1": (ChartId.R1Outer, ChartId.R1Inner),
    "R2": (ChartId.R2Outer,),
}

_PIECE_REGION: dict[str, RegionLabel] = {
    "A": RegionLabel.RegionA,
    "B": RegionLabel.RegionB,
    "C": RegionLabel.RegionC,
    "D": RegionLabel.RegionD,
    "E": RegionLabel.RegionE,
    "P1": RegionLabel.InnerPiece1,
    "P2": RegionLabel.InnerPiece2,
    "P3": RegionLabel.InnerPiece3,
}

_REGION_PIECE = {v: k for k, v in _PIECE_REGION.items()}


def piece_of_region(label: RegionLabel) -> str:
    try:
        return _REGION_PIECE[label]
    except KeyError:
        raise ValueError(f"{label.value} is not a chart piece") from None


def chart_of_region(label: RegionLabel) -> ChartId:
    for chart, pieces in _CHART_PIECES.items():
        if _REGION_PIECE.get(label) in pieces:
            return chart
    raise ValueError(f"{label.value} does not belong to any chart")


def chart_regions(chart: ChartId) -> tuple[RegionLabel, ...]:
    """Region labels of the chart's pieces, in dispatch order."""
    return tuple(_PIECE_REGION[piece] for piece in _CHART_PIECES[chart])


def scheme_of(chart: ChartId) -> str:
    return next(scheme for scheme, charts in SCHEME_CHARTS.items() if chart in charts)


def outer_chart(scheme: str) -> ChartId:
    return SCHEME_CHARTS[scheme][0]


# The collar regions, A to E: the pieces of both schemes' outer charts.
COLLAR_REGIONS = tuple(label for scheme in SCHEME_CHARTS
                       for label in chart_regions(outer_chart(scheme)))


# ---------------------------------------------------------------------------
# Profile evaluators: (T, T_t, T_r, phi, phi_t, phi_r), vectorised
# ---------------------------------------------------------------------------

def _eval_A(params: CuspParams, t, r):
    s = params.s
    xi = -t  # |t| on A
    one = np.ones_like(xi)
    T = -t
    phi = xi ** (s - 1.0) * r / 6.0
    phi_t = -(s - 1.0) * xi ** (s - 2.0) * r / 6.0
    phi_r = xi ** (s - 1.0) / 6.0
    return T, -one, 0.0 * one, phi, phi_t, phi_r


def _eval_B(params: CuspParams, t, r):
    s = params.s
    one = np.ones_like(np.asarray(r, dtype=float))
    T = r + 0.0 * one
    phi = (t / 6.0) * r ** (s - 1.0) + r**s / 3.0
    phi_t = r ** (s - 1.0) / 6.0
    phi_r = (s - 1.0) * (t / 6.0) * r ** (s - 2.0) + s * r ** (s - 1.0) / 3.0
    return T, 0.0 * one, one, phi, phi_t, phi_r


def _lam_mu(s: float, t):
    g = t ** (s - 1.0)
    den = 2.0 * (g - 1.0)
    lam = g / den
    mu = t**s - t ** (2.0 * s - 1.0) / den
    lam_p = -(s - 1.0) * t ** (s - 2.0) / (2.0 * (g - 1.0) ** 2)
    mu_p = (
        s * g
        - (2.0 * s - 1.0) * t ** (2.0 * s - 2.0) / den
        + (s - 1.0) * t ** (3.0 * s - 3.0) / (2.0 * (g - 1.0) ** 2)
    )
    return lam, mu, lam_p, mu_p


def _eval_C(params: CuspParams, t, r):
    s = params.s
    lam, mu, lam_p, mu_p = _lam_mu(s, t)
    one = np.ones_like(np.asarray(t, dtype=float))
    T = t + 0.0 * one
    phi = lam * r + mu
    phi_t = lam_p * r + mu_p
    phi_r = lam + 0.0 * one
    return T, one, 0.0 * one, phi, phi_t, phi_r


def _eval_D(params: CuspParams, t, r):
    one = np.ones_like(np.asarray(t, dtype=float))
    return -t + 0.0 * one, -one, 0.0 * one, r / 2.0 + 0.0 * one, 0.0 * one, 0.5 * one


def _eval_E(params: CuspParams, t, r):
    s = params.s
    one = np.ones_like(np.asarray(r, dtype=float))
    T = r ** (1.0 / s)
    T_r = r ** (1.0 / s - 1.0) / s
    phi = (t / 4.0) * r ** (1.0 - 1.0 / s) + 0.75 * r
    phi_t = r ** (1.0 - 1.0 / s) / 4.0
    phi_r = (t / 4.0) * (1.0 - 1.0 / s) * r ** (-1.0 / s) + 0.75
    return T, 0.0 * one, T_r, phi, phi_t, phi_r


def _eval_P1(params: CuspParams, t, r):
    s = params.s
    one = np.ones_like(np.asarray(t, dtype=float))
    T = -t + 0.0 * one
    phi = 6.0 * r * t ** (1.0 - s)
    phi_t = 6.0 * (1.0 - s) * r * t ** (-s)
    phi_r = 6.0 * t ** (1.0 - s) + 0.0 * one
    return T, -one, 0.0 * one, phi, phi_t, phi_r


def _eval_P2(params: CuspParams, t, r):
    s = params.s
    one = np.ones_like(np.asarray(t, dtype=float))
    T = 12.0 * r * t ** (1.0 - s) - 3.0 * t
    T_t = 12.0 * (1.0 - s) * r * t ** (-s) - 3.0
    T_r = 12.0 * t ** (1.0 - s) + 0.0 * one
    phi = t + 0.0 * one
    return T, T_t, T_r, phi, one, 0.0 * one


def _eval_P3(params: CuspParams, t, r):
    s = params.s
    one = np.ones_like(np.asarray(t, dtype=float))
    a = 1.5 * (1.0 - t ** (1.0 - s))
    a_p = 1.5 * (s - 1.0) * t ** (-s)
    b = (3.0 * t - t**s) / 2.0
    b_p = (3.0 - s * t ** (s - 1.0)) / 2.0
    T = t + 0.0 * one
    phi = a * r + b
    phi_t = a_p * r + b_p
    phi_r = a + 0.0 * one
    return T, one, 0.0 * one, phi, phi_t, phi_r


_EVALS = {
    "A": _eval_A,
    "B": _eval_B,
    "C": _eval_C,
    "D": _eval_D,
    "E": _eval_E,
    "P1": _eval_P1,
    "P2": _eval_P2,
    "P3": _eval_P3,
}


def piece_profile(piece: str, params: CuspParams, t, r):
    """(T, T_t, T_r, phi, phi_t, phi_r) for a piece on arrays (t, r)."""
    return _EVALS[piece](params, np.asarray(t, dtype=float), np.asarray(r, dtype=float))


def _jet_algebra(n: int, r, T_t, T_r, phi, phi_t, phi_r):
    """(tangential stretch, opnorm, det) from the profile block.

    The operator norm is the largest singular value: the max of the profile
    2x2 block's top singular value and the tangential stretch phi/r (phi_r
    on the axis, where pieces have phi ~ r).  The determinant carries the
    orientation sign: det2x2 * (phi/r)^(n-2).
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        tang = np.where(r > 0.0, phi / np.where(r > 0.0, r, 1.0), phi_r)
    det2 = T_t * phi_r - T_r * phi_t
    ssum = T_t**2 + T_r**2 + phi_t**2 + phi_r**2
    disc = np.sqrt(np.maximum(ssum**2 - 4.0 * det2**2, 0.0))
    sig_max = np.sqrt((ssum + disc) / 2.0)
    opnorm = np.maximum(sig_max, np.abs(tang))
    det = det2 * tang ** (n - 2)
    return tang, opnorm, det


def profile_jet(piece: str, params: CuspParams, t, r):
    """Vectorised (T, phi, opnorm, det) of a piece at profile points."""
    T, T_t, T_r, phi, phi_t, phi_r = piece_profile(piece, params, t, r)
    _, opnorm, det = _jet_algebra(params.n, np.asarray(r, dtype=float), T_t, T_r, phi, phi_t, phi_r)
    return T, phi, opnorm, det


# ---------------------------------------------------------------------------
# Chart dispatch on point batches
# ---------------------------------------------------------------------------

def piece_index(chart: ChartId, params: CuspParams, t, r) -> np.ndarray:
    """Index into the chart's pieces of the piece whose closure holds each
    profile point (t, r), ties going to the earlier piece; -1 off the chart.
    The inner chart accepts the closure edge t = 1/2 (the formulas are
    regular there) even though the open core of `classify` stops below it.
    """
    s = params.s
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
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


# Per piece, with ts = |t|^s: the coordinatewise distances from (t, r) to
# the nearest interface (piece interfaces and the cusp wall; the formulas
# are one-sidedly analytic at domain closure edges such as t = -1/2) and to
# the kinks of the piece's own formula (t = 0 for fractional powers of t,
# r = 0 for x/|x| factors).  The formulas extend analytically across the
# interfaces, so finite differencing one formula only has to avoid kinks.
_GAPS = {
    "A": lambda t, r, ts: (-t - r, -t),
    "B": lambda t, r, ts: (r - np.abs(t), r),
    "C": lambda t, r, ts: (np.minimum(r - ts, t - r), np.minimum(t, r)),
    "D": lambda t, r, ts: (ts - r, np.full_like(t, np.inf)),
    "E": lambda t, r, ts: (r - ts, r),
    "P1": lambda t, r, ts: (ts / 6.0 - r, t),
    "P2": lambda t, r, ts: (np.minimum(r - ts / 6.0, ts / 3.0 - r), np.minimum(t, r)),
    "P3": lambda t, r, ts: (np.minimum(r - ts / 3.0, ts - r), np.minimum(t, r)),
}


def piece_gaps(piece: str, params: CuspParams, t, r):
    """(interface gap, kink gap) of profile points of one piece (see `_GAPS`);
    the smaller is the room a central-difference stencil has."""
    t = np.asarray(t, dtype=float)
    return _GAPS[piece](t, np.asarray(r, dtype=float), np.abs(t) ** params.s)


def _chart_profile(chart: ChartId, params: CuspParams, idx, t, r) -> np.ndarray:
    """Rows T, T_t, T_r, phi, phi_t, phi_r, interface gap and kink gap of
    each point's own piece (idx from `piece_index`); nan off the chart."""
    out = np.full((8, idx.size), np.nan)
    for i, piece in enumerate(_CHART_PIECES[chart]):
        m = idx == i
        if m.any():
            out[:, m] = (*piece_profile(piece, params, t[m], r[m]),
                         *piece_gaps(piece, params, t[m], r[m]))
    return out


def fd_step(t, r) -> np.ndarray:
    """Central-difference step per point: h = max(1e-6, 1e-6 * |z|)."""
    return np.maximum(1e-6, 1e-6 * np.hypot(t, r))


def _domain_error(chart: ChartId, params: CuspParams, z: Point) -> ChartDomainError:
    label = classify(params, scheme_of(chart), z)
    return ChartDomainError(
        f"point {z!r} is outside the domain of {chart.value}: it classifies to {label.value}",
        label=label,
    )


def _along(phi, X, r) -> np.ndarray:
    """phi * x/|x| row by row; 0 on the axis."""
    pos = r > 0.0
    return np.where(pos[:, None], phi[:, None] * (X / np.where(pos, r, 1.0)[:, None]), 0.0)


def apply_points(chart: ChartId, params: CuspParams, t, X) -> tuple[np.ndarray, np.ndarray]:
    """Chart images (T, X_img) of a point batch.  Cusp-boundary points map
    to themselves and the image direction x/|x| is preserved (all pieces are
    axisymmetric); the first point off the chart raises ChartDomainError
    carrying its region label."""
    t, X = as_points(t, X, params)
    r = radii(X)
    wall = on_cusp_wall(params, t, r)
    idx = piece_index(chart, params, t, r)
    if bad := first_flagged(~wall & (idx < 0), t, X):
        raise _domain_error(chart, params, bad[1])
    prof = _chart_profile(chart, params, idx, t, r)
    return np.where(wall, t, prof[0]), np.where(wall[:, None], X, _along(prof[3], X, r))


def apply(chart: ChartId, params: CuspParams, z) -> Point:
    """Evaluate the chart at z: the one-row case of `apply_points`."""
    p = as_point(z, params)
    T, X_img = apply_points(chart, params, [p.t], p.x[None, :])
    return Point(float(T[0]), X_img[0])


@dataclass(frozen=True)
class Jet:
    """Image point, full n x n differential, its determinant and spectral norm."""

    image: Point
    differential: np.ndarray
    det: float
    opnorm: float


def _jacobian_matrices(u_hat, T_t, T_r, phi_t, phi_r, tang) -> np.ndarray:
    """(N, n, n) differentials [[T_t, T_r u^T], [phi_t u, tang (I - u u^T) +
    phi_r u u^T]] from the profile block and the unit directions u."""
    count, m = u_hat.shape
    uu = u_hat[:, :, None] * u_hat[:, None, :]
    M = np.empty((count, m + 1, m + 1))
    M[:, 0, 0] = T_t
    M[:, 0, 1:] = T_r[:, None] * u_hat
    M[:, 1:, 0] = phi_t[:, None] * u_hat
    M[:, 1:, 1:] = tang[:, None, None] * (np.eye(m) - uu) + phi_r[:, None, None] * uu
    return M


def differential_points(chart: ChartId, params: CuspParams, t, X):
    """Analytic differentials (T, X_img, M, det, opnorm), M of shape
    (N, n, n), of a point batch strictly inside chart pieces; det and opnorm
    come from the profile block, as in `profile_jet`.  The first point on
    the cusp wall or a piece interface raises InterfaceError, the first
    point off the chart ChartDomainError."""
    t, X = as_points(t, X, params)
    r = radii(X)
    wall = on_cusp_wall(params, t, r)
    idx = piece_index(chart, params, t, r)
    T, T_t, T_r, phi, phi_t, phi_r, interface, _ = _chart_profile(chart, params, idx, t, r)
    if bad := first_flagged(wall | (idx < 0) | (interface <= 0.0), t, X):
        i, z = bad
        if wall[i]:
            raise InterfaceError(f"differential undefined on the cusp boundary at {z!r}")
        if idx[i] < 0:
            raise _domain_error(chart, params, z)
        piece = _CHART_PIECES[chart][idx[i]]
        raise InterfaceError(f"point {z!r} sits on an interface of piece {piece}")
    tang, opnorm, det = _jet_algebra(params.n, r, T_t, T_r, phi, phi_t, phi_r)
    pos = r > 0.0
    u_hat = np.where(pos[:, None], X / np.where(pos, r, 1.0)[:, None], np.eye(1, params.n - 1))
    M = _jacobian_matrices(u_hat, T_t, T_r, phi_t, phi_r, tang)
    return T, _along(phi, X, r), M, det, opnorm


def differential(chart: ChartId, params: CuspParams, z) -> Jet:
    """Analytic differential at a point strictly inside one chart piece: the
    one-row case of `differential_points`."""
    p = as_point(z, params)
    T, X_img, M, det, opnorm = differential_points(chart, params, [p.t], p.x[None, :])
    return Jet(Point(float(T[0]), X_img[0]), M[0], float(det[0]), float(opnorm[0]))


def _piece_map(chart: ChartId, params: CuspParams, idx, Z) -> np.ndarray:
    """Each row's own piece formula (T, phi x/|x|) at raw coordinates Z."""
    t, X = Z[:, 0], Z[:, 1:]
    r = radii(X)
    prof = _chart_profile(chart, params, idx, t, r)
    return np.column_stack([prof[0], _along(prof[3], X, r)])


def differential_fd_points(chart: ChartId, params: CuspParams, t, X, h=None) -> np.ndarray:
    """Finite-difference oracle, shape (N, n, n): componentwise central
    differences of the piece map containing each point, with step `h`
    (default `fd_step`).  Every point must lie in (the closure of) one
    piece with its interfaces and formula kinks more than 2h away, so the
    stencil samples a single smooth formula; the first that does not raises.
    """
    t, X = as_points(t, X, params)
    r = radii(X)
    h = np.broadcast_to(fd_step(t, r) if h is None else np.asarray(h, dtype=float), t.shape)
    idx = piece_index(chart, params, t, r)
    _, _, _, _, _, _, interface, kink = _chart_profile(chart, params, idx, t, r)
    if bad := first_flagged((idx < 0) | (np.minimum(kink, interface) <= 2.0 * h), t, X):
        i, z = bad
        if idx[i] < 0:
            raise _domain_error(chart, params, z)
        raise InterfaceError(
            f"point {z!r} is within 2h={2 * h[i]:.3g} of an interface/kink of piece "
            f"{_CHART_PIECES[chart][idx[i]]}"
        )
    Z = np.column_stack([t, X])
    M = np.empty((t.size, params.n, params.n))
    for j in range(params.n):
        step = np.zeros_like(Z)
        step[:, j] = h
        fp = _piece_map(chart, params, idx, Z + step)
        fm = _piece_map(chart, params, idx, Z - step)
        M[:, :, j] = (fp - fm) / (2.0 * h)[:, None]
    return M


def differential_fd(chart: ChartId, params: CuspParams, z, h: float | None = None) -> np.ndarray:
    """Finite-difference oracle at one point: the one-row case of
    `differential_fd_points`."""
    p = as_point(z, params)
    return differential_fd_points(chart, params, [p.t], p.x[None, :], h)[0]


def invert_points(chart: ChartId, params: CuspParams, t, X) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form inverse of the chart on a point batch, dispatched on the
    image bands: R1Outer and R2Outer invert from the cusp core (radius bands
    in units of t^s: [0,1/6]/[1/6,1/2]/[1/2,1] and [0,1/2]/[1/2,1]), R1Inner
    from the R1 collar.  Cusp-boundary points return themselves; the first
    point outside the chart's image raises ChartDomainError.
    """
    t, X = as_points(t, X, params)
    s = params.s
    r = radii(X)
    wall = on_cusp_wall(params, t, r)
    at = np.abs(t)
    ts = at**s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if chart is ChartId.R1Inner:
            # the image is the R1 collar; the bands mirror the piece images
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
        else:
            core = (0.0 < t) & (t <= 0.5) & (r <= ts)
            if chart is ChartId.R1Outer:
                # A: t' = -t, x' = |t'|^(s-1) x / 6; B: radial profile
                # (tau/6) t'^(s-1) + t'^s/3 at |x| = t'; C: lam x + mu x/|x|
                lam, mu, _, _ = _lam_mu(s, t)
                bands = [core & (r <= ts / 6.0), core & (r <= ts / 2.0), core]
                src_t = [-t, (6.0 * r - 2.0 * ts) * t ** (1.0 - s), t]
                src_r = [6.0 * r * t ** (1.0 - s), t, (r - mu) / lam]
            else:
                bands = [core & (r <= ts / 2.0), core]
                src_t = [-t, 4.0 * t * r / ts - 3.0 * t]
                src_r = [2.0 * r, ts]
    if bad := first_flagged(~wall & ~select_first(bands, [True] * len(bands), False), t, X):
        raise _domain_error(chart, params, bad[1])
    T = np.where(wall, t, select_first(bands, src_t, 0.0))
    return T, np.where(wall[:, None], X, _along(select_first(bands, src_r, 0.0), X, r))


def invert(chart: ChartId, params: CuspParams, w) -> Point:
    """Closed-form inverse of the chart at w: the one-row case of
    `invert_points`."""
    p = as_point(w, params)
    T, X_src = invert_points(chart, params, [p.t], p.x[None, :])
    return Point(float(T[0]), X_src[0])
