"""Piecewise reflection charts over the cusp boundary and their Jacobians.

Every chart piece is axisymmetric and has the form

    (t, x)  |->  ( T(t, r),  phi(t, r) * x/|x| ),      r = |x|,

so its differential splits into a 2x2 profile block [[T_t, T_r],
[phi_t, phi_r]] acting on (t, radial) directions plus an (n-2)-fold
tangential stretch phi/r.  Determinants, operator norms and the full n x n
matrices are assembled from those five scalars; the closed forms below were
derived from the map formulas and are cross-checked against central finite
differences by the test suite.

Each piece takes each power once: it raises its variable to one power g
(|t|^(s-1) on A, r^(s-1) on B, t^(s-1) on C, t^(1-s) on the inner bands,
T = r^(1/s) on E) and builds the other powers from g by products and
quotients; E's phi-row reads the T-row's T as r/T and 1/T.  A quotient
g/|t| or g/r is taken as 0 where its divisor is 0, at the apex of A, B or
C, where it multiplies a factor that vanishes on the piece, so the origin
maps without an infinite power.

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
sections X of shape (N, n-1), dispatch every point to the piece whose
closed region (a row of the region table in `geometry`) holds it, and raise
for the first point off the chart.  `apply`, `differential`,
`differential_fd` and `invert` are their one-row cases on a Point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ChartDomainError, InterfaceError
from .geometry import (
    _CHART_SHAPES,
    ChartId,
    CuspParams,
    Point,
    RegionLabel,
    as_point,
    as_points,
    chart_regions,
    classify,
    cusp_radius,
    first_flagged,
    key_rows,
    on_cusp_wall,
    radii,
    region_masks,
    scheme_of,
    select_first,
)


# ---------------------------------------------------------------------------
# Profile evaluators, vectorised: per piece a T-row (T, T_t, T_r) and a
# phi-row (phi, phi_t, phi_r), rows of the piece table `_PIECES`.  A T-row
# takes the radius as a zero-argument function and calls it only where T
# depends on r (B, E, P2), so a caller that reads the T-row alone never
# needs r elsewhere.  A phi-row also gets the T-row's T, which E's phi-row
# reads.  T and phi are arrays; a derivative entry that is constant on its
# piece (the 0 and +-1 of the affine heights T = -t, t, r, E's T_t, D's
# phi_t and phi_r, P2's phi-row) is a Python float, which the consumers
# broadcast and whose zeros they skip.
# ---------------------------------------------------------------------------

def _over(g, x):
    """g/x, and 0 where x is 0: g is a positive power of x, and the quotient
    only multiplies factors that vanish where x does on the piece's closure."""
    return np.divide(g, x, out=np.zeros(g.shape), where=x != 0.0)


def _T_reflected(params: CuspParams, t, _):
    """T = -t: the T-row of A, D and P1."""
    return -t, -1.0, 0.0


def _t_itself(params: CuspParams, t, *_):
    """(t, 1, 0): the T-row of C and P3 and the phi-row of P2."""
    return t, 1.0, 0.0


def _phi_A(params: CuspParams, t, r, _):
    s = params.s
    xi = -t  # |t| on A
    g = xi ** (s - 1.0)
    phi = g * r / 6.0
    phi_t = -(s - 1.0) * _over(g, xi) * r / 6.0
    phi_r = g / 6.0
    return phi, phi_t, phi_r


def _T_B(params: CuspParams, t, radius):
    return radius(), 0.0, 1.0


def _phi_B(params: CuspParams, t, r, _):
    s = params.s
    g = r ** (s - 1.0)
    phi = (t / 6.0) * g + g * r / 3.0
    phi_t = g / 6.0
    phi_r = (s - 1.0) * (t / 6.0) * _over(g, r) + s * g / 3.0
    return phi, phi_t, phi_r


def _lam_mu(s: float, t, derivatives: bool = True):
    """C's coefficients (lam, mu), then, with `derivatives`, (lam', mu')."""
    g = t ** (s - 1.0)
    gg = g * g
    den = 2.0 * (g - 1.0)
    lam = g / den
    mu = g * t - gg * t / den
    if not derivatives:
        return lam, mu
    den2 = 2.0 * (g - 1.0) ** 2
    lam_p = -(s - 1.0) * _over(g, t) / den2
    mu_p = s * g - (2.0 * s - 1.0) * gg / den + (s - 1.0) * (gg * g) / den2
    return lam, mu, lam_p, mu_p


def _phi_C(params: CuspParams, t, r, _):
    lam, mu, lam_p, mu_p = _lam_mu(params.s, t)
    phi = lam * r + mu
    phi_t = lam_p * r + mu_p
    return phi, phi_t, lam


def _phi_D(params: CuspParams, t, r, _):
    return r / 2.0, 0.0, 0.5


def _T_E(params: CuspParams, t, radius):
    s = params.s
    r = radius()
    T = r ** (1.0 / s)
    return T, 0.0, T / (s * r)


def _phi_E(params: CuspParams, t, r, T):
    s = params.s
    t_4 = t / 4.0
    phi_t = r / T  # r^(1 - 1/s)
    phi = t_4 * phi_t
    phi += 0.75 * r
    phi_t /= 4.0
    phi_r = t_4 * (1.0 - 1.0 / s) / T
    phi_r += 0.75
    return phi, phi_t, phi_r


def _phi_P1(params: CuspParams, t, r, _):
    s = params.s
    g = t ** (1.0 - s)
    phi = 6.0 * r * g
    phi_t = 6.0 * (1.0 - s) * r * (g / t)
    return phi, phi_t, 6.0 * g


def _T_P2(params: CuspParams, t, radius):
    s = params.s
    r = radius()
    g = t ** (1.0 - s)
    T = 12.0 * r * g - 3.0 * t
    T_t = 12.0 * (1.0 - s) * r * (g / t) - 3.0
    return T, T_t, 12.0 * g


def _phi_P3(params: CuspParams, t, r, _):
    s = params.s
    g = t ** (1.0 - s)
    a = 1.5 * (1.0 - g)
    a_p = 1.5 * (s - 1.0) * (g / t)
    b = (3.0 * t - t / g) / 2.0
    b_p = (3.0 - s / g) / 2.0
    phi = a * r + b
    phi_t = a_p * r + b_p
    return phi, phi_t, a


# The piece table: each chart region's (T-row, phi-row, gaps), keyed by its
# RegionLabel.  The gaps, with ts = |t|^s, are the coordinatewise distances
# from (t, r) to the nearest interface (piece interfaces and the cusp wall;
# the formulas are one-sidedly analytic at domain closure edges such as
# t = -1/2) and to the kinks of the piece's own formula (t = 0 for
# fractional powers of t, r = 0 for x/|x| factors).  The formulas extend
# analytically across the interfaces, so finite differencing one formula
# only has to avoid kinks.
_PIECES = {
    RegionLabel.RegionA: (_T_reflected, _phi_A, lambda t, r, ts: (-t - r, -t)),
    RegionLabel.RegionB: (_T_B, _phi_B, lambda t, r, ts: (r - np.abs(t), r)),
    RegionLabel.RegionC: (_t_itself, _phi_C,
                          lambda t, r, ts: (np.minimum(r - ts, t - r), np.minimum(t, r))),
    RegionLabel.RegionD: (_T_reflected, _phi_D,
                          lambda t, r, ts: (ts - r, np.full_like(t, np.inf))),
    RegionLabel.RegionE: (_T_E, _phi_E, lambda t, r, ts: (r - ts, r)),
    RegionLabel.InnerPiece1: (_T_reflected, _phi_P1, lambda t, r, ts: (ts / 6.0 - r, t)),
    RegionLabel.InnerPiece2: (_T_P2, _t_itself, lambda t, r, ts: (
        np.minimum(r - ts / 6.0, ts / 3.0 - r), np.minimum(t, r))),
    RegionLabel.InnerPiece3: (_t_itself, _phi_P3, lambda t, r, ts: (
        np.minimum(r - ts / 3.0, ts - r), np.minimum(t, r))),
}


def piece_T_row(label: RegionLabel, params: CuspParams, t, radius):
    """(T, T_t, T_r) for a piece at heights t; `radius` is a zero-argument
    function giving the radii r, called only on the pieces whose T depends
    on r (B, E, P2).  T is an array; T_t and T_r broadcast against it, and
    an entry constant on the piece is a Python float (T_t = -1.0 and
    T_r = 0.0 on A, D and P1; 1.0 and 0.0 on C and P3; 0.0 and 1.0 on B;
    T_t = 0.0 on E)."""
    return _PIECES[label][0](params, np.asarray(t, dtype=float), radius)


def piece_profile(label: RegionLabel, params: CuspParams, t, r):
    """(T, T_t, T_r, phi, phi_t, phi_r) for a piece on arrays (t, r): its
    T-row and its phi-row.  T and phi are arrays; the derivative entries
    broadcast against them, and an entry constant on the piece is a Python
    float (see `piece_T_row`; phi_t = 0.0 and phi_r = 0.5 on D, and P2's
    phi-row is (t, 1.0, 0.0))."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    T_row = piece_T_row(label, params, t, lambda: r)
    return (*T_row, *_PIECES[label][1](params, t, r, T_row[0]))


def _is_zero(x) -> bool:
    """Whether a profile entry is a scalar zero: a float or numpy scalar 0,
    such as a piece's constant 0.0 (an array, even a 0-d one, is not)."""
    return not isinstance(x, np.ndarray) and x == 0.0


def _jet_algebra(n: int, r, T_t, T_r, phi, phi_t, phi_r, log: bool = False):
    """(tangential stretch, opnorm, det) from the profile block; with `log`,
    (tangential stretch, log opnorm, log|det|).

    The tangential stretch is phi/r, the stretch across the radial
    direction; on the axis, where pieces have phi ~ r, it is phi_r.  The
    operator norm is the largest singular value: the max of the profile
    2x2 block's top singular value and the tangential stretch.  The block
    [[a, b], [c, d]] has singular values (h+ +- h-)/2 with
    h+ = |(a+d, b-c)| and h- = |(a-d, b+c)|, which square the entries once
    (not twice, as the trace form (|M|_F^2 + disc)/2 does), so they stay
    finite for entries up to 2^511.  The determinant carries the orientation
    sign: det2x2 * (phi/r)^(n-2); its log form log|det2x2| + (n-2) log|phi/r|
    stays finite where the product under- or overflows.

    An entry that is a scalar zero (a piece's constant 0.0) saves work: where
    a or d is zero, h+ and h- share the square of their first components,
    (0 +- x)^2 = x^2; where b or c is zero, of their second; and det2x2
    drops a product with a zero factor, 0 x - y = -y.  For finite entries
    the results are the plain expressions' (up to the sign of a zero
    det2x2); where a dropped product would be 0 * inf (phi_r infinite
    beside T_t = 0, or phi_t beside T_r = 0), det2x2 is the other product
    where the plain expression is nan.

    Every intermediate is written into a buffer made here, shaped like the
    six inputs broadcast together (so 0-d input works too and gives numpy
    scalars, and so does P2, whose phi is t itself, on a column of radii),
    by the ufuncs of the plain expressions in their order, so the results
    are theirs bit for bit.
    """
    shape = np.broadcast(r, T_t, T_r, phi, phi_t, phi_r).shape
    tang = np.empty(shape)
    np.copyto(tang, phi_r)
    np.divide(phi, r, out=tang, where=r > 0.0)
    abs_tang = np.abs(tang, out=np.empty(shape))
    det2 = _det2(T_t, phi_r, T_r, phi_t, shape)
    # h+^2 = x0 + y0 and h-^2 = x1 + y1 with x = ((a+d)^2, (a-d)^2) and
    # y = ((b-c)^2, (b+c)^2), summed in the buffers of an unshared pair if
    # there is one; where both pairs are shared, h+ = h-
    x, y = _square_pair(T_t, phi_r, shape), _square_pair(T_r, phi_t, shape)[::-1]
    if x[0] is x[1]:
        x, y = y, x
    h_plus = np.add(x[0], y[0], out=x[0])
    h_minus = h_plus if x[1] is x[0] else np.add(x[1], y[1], out=x[1])
    opnorm = np.sqrt(h_plus, out=h_plus)
    opnorm += opnorm if h_minus is h_plus else np.sqrt(h_minus, out=h_minus)
    opnorm *= 0.5
    np.maximum(opnorm, abs_tang, out=opnorm)
    if not log:
        with np.errstate(over="ignore"):  # past the float range the signed det is +-inf
            return tang, opnorm[()], det2 * tang ** (n - 2)
    with np.errstate(divide="ignore"):
        np.log(opnorm, out=opnorm)
        np.log(np.abs(det2, out=det2), out=det2)
        np.log(abs_tang, out=abs_tang)
    abs_tang *= n - 2
    det2 += abs_tang
    return tang, opnorm[()], det2[()]


def _square_pair(x, y, shape):
    """((x + y)^2, (x - y)^2), each in a new buffer of `shape`; where x or y
    is a scalar zero, both are one buffer holding the other's square."""
    if _is_zero(x) or _is_zero(y):
        shared = np.square(y if _is_zero(x) else x, out=np.empty(shape))
        return shared, shared
    plus = np.add(x, y, out=np.empty(shape))
    minus = np.subtract(x, y, out=np.empty(shape))
    return np.square(plus, out=plus), np.square(minus, out=minus)


def _det2(a, d, b, c, shape):
    """a d - b c in a new buffer of `shape`, leaving out a product with a
    scalar zero factor."""
    ad = not (_is_zero(a) or _is_zero(d))
    bc = not (_is_zero(b) or _is_zero(c))
    det2 = np.empty(shape)
    if ad:
        np.multiply(a, d, out=det2)
        if bc:
            det2 -= b * c
    elif bc:
        np.negative(np.multiply(b, c, out=det2), out=det2)
    else:
        det2.fill(0.0)
    return det2


def profile_jet(label: RegionLabel, params: CuspParams, t, r):
    """Vectorised (T, phi, opnorm, det) of a piece at profile points."""
    T, T_t, T_r, phi, phi_t, phi_r = piece_profile(label, params, t, r)
    _, opnorm, det = _jet_algebra(params.n, np.asarray(r, dtype=float), T_t, T_r, phi, phi_t, phi_r)
    return T, phi, opnorm, det


def profile_log_jet(label: RegionLabel, params: CuspParams, t, r):
    """Vectorised (log opnorm, log|det|) of a piece at profile points: the
    log form of `profile_jet`'s opnorm and |det|, finite in deep shells
    where |det| underflows to 0."""
    _, T_t, T_r, phi, phi_t, phi_r = piece_profile(label, params, t, r)
    _, log_opnorm, log_absdet = _jet_algebra(params.n, np.asarray(r, dtype=float),
                                             T_t, T_r, phi, phi_t, phi_r, log=True)
    return log_opnorm, log_absdet


# ---------------------------------------------------------------------------
# Chart dispatch on point batches
# ---------------------------------------------------------------------------

def piece_index(chart: ChartId, params: CuspParams, t, r, ts=None) -> np.ndarray:
    """Index into the chart's pieces of the piece whose closure holds each
    profile point (t, r), ties going to the earlier piece; -1 off the chart.
    The closures are the shapes of the region table (`region_masks`, which
    takes `ts` = |t|^s when the caller has it); the inner chart accepts the
    closure edge t = 1/2 (the formulas are regular there) even though the
    open core of `classify` stops below it.
    """
    masks = region_masks(params, chart, t, r, ts)
    return select_first(masks, range(len(masks)), -1)


def piece_gaps(label: RegionLabel, params: CuspParams, t, r):
    """(interface gap, kink gap) of profile points of one piece (the gaps of
    `_PIECES`); the smaller is the room a central-difference stencil has."""
    t = np.asarray(t, dtype=float)
    return _PIECES[label][2](t, np.asarray(r, dtype=float), cusp_radius(params, t))


def _chart_profile(chart: ChartId, params: CuspParams, idx, t, r, ts=None, profile: bool = True):
    """Rows T, T_t, T_r, phi, phi_t, phi_r of each point's own piece (idx
    from `piece_index`), then, given the batch's cusp radii `ts` (the
    gate's), its interface gap and kink gap (without `profile`, the gap rows
    alone); nan off the chart.  A batch that lies in one piece gets that
    piece's rows as they are, its constant entries floats; any other a
    buffer of rows."""
    regions = chart_regions(chart)
    pieces = key_rows(idx, range(len(regions)))
    if not (pieces and isinstance(pieces[0][1], slice)):
        out = np.full((6 * profile + 2 * (ts is not None), idx.size), np.nan)
    for i, m in pieces:
        label, tm, rm = regions[i], t[m], r[m]
        rows = ((piece_profile(label, params, tm, rm) if profile else ())
                + (_PIECES[label][2](tm, rm, ts[m]) if ts is not None else ()))
        if isinstance(m, slice):  # one piece holds every row
            return rows
        # row by row: a piece's constant entries are floats
        for j, row in enumerate(rows):
            out[j, m] = row
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
    t, X, r, ts = as_points(t, X, params)
    wall = on_cusp_wall(params, t, r, ts)
    idx = piece_index(chart, params, t, r, ts)
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
    phi_r u u^T]] from the profile block and the unit directions u, each
    block written into the matrices once."""
    count, m = u_hat.shape
    M = np.empty((count, m + 1, m + 1))
    M[:, 0, 0] = T_t
    np.multiply(np.asarray(T_r)[..., None], u_hat, out=M[:, 0, 1:])
    np.multiply(np.asarray(phi_t)[..., None], u_hat, out=M[:, 1:, 0])
    uu = u_hat[:, :, None] * u_hat[:, None, :]
    block = _eye(m) - uu
    block *= tang[:, None, None]
    np.add(block, np.multiply(np.asarray(phi_r)[..., None, None], uu, out=uu), out=M[:, 1:, 1:])
    return M


@lru_cache(maxsize=16)
def _eye(m: int) -> np.ndarray:
    """np.eye(m), read-only, kept for the last few dimensions; its first row
    is the axis direction."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def differential_points(chart: ChartId, params: CuspParams, t, X):
    """Analytic differentials (T, X_img, M, det, opnorm), M of shape
    (N, n, n), of a point batch strictly inside chart pieces; det and opnorm
    come from the profile block, as in `profile_jet`.  The first point on
    the cusp wall or a piece interface raises InterfaceError, the first
    point off the chart ChartDomainError."""
    t, X, r, ts = as_points(t, X, params)
    return _differential_located(chart, params, t, X, r, ts, on_cusp_wall(params, t, r, ts),
                                 piece_index(chart, params, t, r, ts))


def _differential_located(chart: ChartId, params: CuspParams, t, X, r, ts, wall, idx):
    """`differential_points` on a gated batch (`as_points`) whose wall mask
    and piece index the caller already has."""
    T, T_t, T_r, phi, phi_t, phi_r, interface, _ = _chart_profile(chart, params, idx, t, r, ts)
    if bad := first_flagged(wall | (idx < 0) | (interface <= 0.0), t, X):
        i, z = bad
        if wall[i]:
            raise InterfaceError(f"differential undefined on the cusp boundary at {z!r}")
        if idx[i] < 0:
            raise _domain_error(chart, params, z)
        raise InterfaceError(f"point {z!r} sits on an interface of "
                             f"{chart_regions(chart)[idx[i]].value}")
    tang, opnorm, det = _jet_algebra(params.n, r, T_t, T_r, phi, phi_t, phi_r)
    # the unit directions x/|x|, once for the matrices and the image (`_along`)
    pos = r > 0.0
    u = X / np.where(pos, r, 1.0)[:, None]
    pos = pos[:, None]
    M = _jacobian_matrices(np.where(pos, u, _eye(params.n - 1)[:1]), T_t, T_r, phi_t, phi_r, tang)
    # T is (a view of) t itself on a one-piece batch of C or P3: a copy
    T = T.copy() if np.may_share_memory(T, t) else T
    return T, np.where(pos, phi[:, None] * u, 0.0), M, det, opnorm


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
    t, X, r, ts = as_points(t, X, params)
    h = np.broadcast_to(fd_step(t, r) if h is None else np.asarray(h, dtype=float), t.shape)
    idx = piece_index(chart, params, t, r, ts)
    interface, kink = _chart_profile(chart, params, idx, t, r, ts, profile=False)
    if bad := first_flagged((idx < 0) | (np.minimum(kink, interface) <= 2.0 * h), t, X):
        i, z = bad
        if idx[i] < 0:
            raise _domain_error(chart, params, z)
        raise InterfaceError(
            f"point {z!r} is within 2h={2 * h[i]:.3g} of an interface/kink of "
            f"{chart_regions(chart)[idx[i]].value}"
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


def _source_C(s: float, t, r, ts):
    lam, mu = _lam_mu(s, t, derivatives=False)
    return t, (r - mu) / lam


# Each chart's inverse per image band (see `invert_points`): the source
# point's height and radius as functions of (s, t, r, ts).
_INVERSES = {
    # A: t' = -t, x' = |t'|^(s-1) x / 6; B: radial profile
    # (tau/6) t'^(s-1) + t'^s/3 at |x| = t'; C: lam x + mu x/|x|
    ChartId.R1Outer: (lambda s, t, r, ts: (-t, 6.0 * r * t ** (1.0 - s)),
                      lambda s, t, r, ts: ((6.0 * r - 2.0 * ts) * t ** (1.0 - s), t),
                      _source_C),
    ChartId.R1Inner: (lambda s, t, r, ts: (-t, r * (-t) ** (s - 1.0) / 6.0),
                      lambda s, t, r, ts: (t, (r - (3.0 * t - ts) / 2.0)
                                           / (1.5 * (1.0 - t ** (1.0 - s)))),
                      lambda s, t, r, ts: (r, (t + 3.0 * r) * r ** (s - 1.0) / 12.0)),
    ChartId.R2Outer: (lambda s, t, r, ts: (-t, 2.0 * r),
                      lambda s, t, r, ts: (4.0 * t * r / ts - 3.0 * t, ts)),
}


def invert_points(chart: ChartId, params: CuspParams, t, X) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form inverse of the chart on a point batch, dispatched on the
    image bands, each band's formula (`_INVERSES`) on its own points alone:
    R1Outer and R2Outer invert from the cusp core (radius bands in units of
    t^s: [0,1/6]/[1/6,1/2]/[1/2,1] and [0,1/2]/[1/2,1]), R1Inner from the
    R1 collar.  Cusp-boundary points return themselves; the first point
    outside the chart's image raises ChartDomainError.
    """
    t, X, r, ts = as_points(t, X, params)
    wall = on_cusp_wall(params, t, r, ts)
    if chart is ChartId.R1Inner:
        # the image is the R1 collar; the bands are the collar regions in the
        # order A, C, B, so a tie at r = t goes to C
        in_a, in_b, in_c = region_masks(params, ChartId.R1Outer, t, r, ts)
        bands = [in_a, in_c, in_b]
    else:
        core = _CHART_SHAPES[ChartId.R1Inner](t, r, ts)  # the wall overrides r = t^s
        bands = [core & (r <= ts / top) for top in ((6.0, 2.0) if chart is ChartId.R1Outer
                                                   else (2.0,))] + [core]
    # a wall point takes the key len(bands), which no band's formula reads
    band = select_first([wall, *bands], [len(bands), *range(len(bands))], -1)
    if bad := first_flagged(band < 0, t, X):
        raise _domain_error(chart, params, bad[1])
    T, R = t.copy(), np.zeros(t.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, m in key_rows(band, range(len(bands))):
            T[m], R[m] = _INVERSES[chart][i](params.s, t[m], r[m], ts[m])
    return T, np.where(wall[:, None], X, _along(R, X, r))


def invert(chart: ChartId, params: CuspParams, w) -> Point:
    """Closed-form inverse of the chart at w: the one-row case of
    `invert_points`."""
    p = as_point(w, params)
    T, X_src = invert_points(chart, params, [p.t], p.x[None, :])
    return Point(float(T[0]), X_src[0])
