"""Reflection-induced extension operator, cutoff, test functions, probes.

A function u on the cusp domain extends outward by composition with the
outer chart (value u(R(z)) on the collar, u itself inside, 0 on the
boundary null set); a function on the complement extends inward through the
inner chart of the first reflection.  The test functions are profiles u(t)
with exact derivatives u'(t), so u o R = u(T) and the extension gradient is
the first row of DR scaled by u'(T), with norm |u'(T)| |grad T|,
grad T = (T_t, T_r).  The norm experiment sums these terms region by region
through `sobolev.function_shell_loops`, which also runs the seminorm's one
loop: the shells of all the regions and of the window are one loop, and
each (region, shell) is drawn once for all its terms, the collar regions
under the salt "extval" and the L^p and seminorm terms of u on the cusp
window under "lp".  The integrands take the
shell's `ProfileSample` from `geometry.sample_profile`, tilted to the term's
radial tilt by its `profile`, and return logs: they read u in its log form
`log_jet_t` and the chart's T-row (`reflections.piece_T_row`) alone, so the
radius is drawn only where T depends on it; regions sum in logs.  A T-row's
constant entries are floats, and every collar region has T_t = 0 or
T_r = 0, so log|grad T| is the scalar 0.0 on A to D and one log of T_r on
E, never a hypot.

The Lipschitz cutoff psi (1 on the closed domain, 0 off the R1 collar of the
region table) turns the extension into the global cutoff product psi E(u).
Like the extension itself it runs on point batches; its distance to the
closed cusp is a fixed-size refined grid search in the height tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from . import geometry, reflections, sobolev
from .errors import ChartDomainError, WindowError
from .geometry import (
    BALL_CENTER_T,
    BALL_RADIUS,
    COLLAR_REGIONS,
    SCHEME_CHARTS,
    ChartId,
    CuspParams,
    RegionLabel,
    as_point,
    as_points,
    chart_of_region,
    chart_regions,
    check_scheme,
    first_flagged,
    key_rows,
    outer_chart,
    select_first,
)
from .sobolev import ShellSum, Verdict, convergence_verdict, scaling_fit


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

# Each family is a profile u(t) with exact derivative: `value_t` gives u and
# `deriv_t` gives u' on arrays of t, and `log_jet_t` gives their log form
# (log|u|, log|u'|), which the norm integrands read: it stays finite where u
# or u' leaves the float range.  A test function of the cusp domain is
# u(t, x) = u(t), so its gradient is (u'(t), 0).

@dataclass(frozen=True)
class PowerAlpha:
    """u = t^(-alpha) on t > 0; the sharpness probe family."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise WindowError(f"power exponent must be positive, got {self.alpha}")

    def _check(self, t):
        if np.count_nonzero(np.less_equal(t, 0.0)):
            raise ValueError("t^(-alpha) probe is only defined for t > 0")

    def value_t(self, t):
        self._check(t)
        return t ** (-self.alpha)

    def deriv_t(self, t):
        self._check(t)
        return -self.alpha * t ** (-self.alpha - 1.0)

    def log_jet_t(self, t):
        self._check(t)
        log_t = np.log(t)
        return -self.alpha * log_t, math.log(self.alpha) - (self.alpha + 1.0) * log_t


@dataclass(frozen=True)
class ClampT:
    """u = clamp(t, 0, 1): the Lipschitz probe with kinks at t = 0, 1."""

    def value_t(self, t):
        return np.clip(t, 0.0, 1.0)

    def deriv_t(self, t):
        return ((t > 0.0) & (t < 1.0)).astype(float)

    def log_jet_t(self, t):
        with np.errstate(divide="ignore"):
            return np.log(self.value_t(t)), np.log(self.deriv_t(t))


@dataclass(frozen=True)
class Constant:
    c: float

    def value_t(self, t):
        return np.full(np.shape(t), self.c)

    def deriv_t(self, t):
        return np.zeros_like(t)

    def log_jet_t(self, t):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.value_t(t))), np.log(self.deriv_t(t))


TestFunction = PowerAlpha | ClampT | Constant


# ---------------------------------------------------------------------------
# Extension operator
# ---------------------------------------------------------------------------

class Direction(Enum):
    FromInside = "FromInside"    # extend W^{1,p}(domain) outward
    FromOutside = "FromOutside"  # extend W^{1,p}(complement) inward


@dataclass(frozen=True)
class ExtensionSpec:
    scheme: str
    direction: Direction

    def __post_init__(self):
        scheme = check_scheme(self.scheme)
        object.__setattr__(self, "scheme", scheme)
        if self.direction is Direction.FromOutside and scheme == "R2":
            raise WindowError("inward extension is only available through scheme R1")

    @property
    def outer_chart(self) -> ChartId:
        return outer_chart(self.scheme)


# Evaluation sites: 0 on the boundary null set, u itself, or u o R; -1 is
# out of the extension's reach.
_ZERO, _NATIVE, _CHART = 0, 1, 2


def _step_table(scheme: str, value_of) -> np.ndarray:
    """`value_of` each classification step of the scheme, indexed by step."""
    return np.array([value_of(label) for label in geometry._STEPS[scheme]])


def _inside_site(label: RegionLabel) -> int:
    """Outward: 0 at the origin and on the cusp wall, u on the domain side,
    u o R on the collar regions of the outer chart."""
    if label in (RegionLabel.Origin, RegionLabel.BoundaryCusp):
        return _ZERO
    if label in (RegionLabel.CuspInterior, RegionLabel.BallInterior,
                 *chart_regions(ChartId.R1Inner)):
        return _NATIVE
    return _CHART if label in COLLAR_REGIONS else -1


def _outside_site(label: RegionLabel) -> int:
    """Inward, off the inner chart and the cusp wall: 0 at the origin, out of
    reach in the domain, u anywhere in the open complement."""
    if label in (RegionLabel.Origin, RegionLabel.BoundaryCusp):
        return _ZERO
    return -1 if label in (RegionLabel.CuspInterior, RegionLabel.BallInterior) else _NATIVE


def _outer_piece(label: RegionLabel) -> int:
    """Index of a collar region among its outer chart's pieces, -1 for
    every other label."""
    if label not in COLLAR_REGIONS:
        return -1
    return chart_regions(chart_of_region(label)).index(label)


# Per classification step (`geometry._STEPS`) of each scheme: the outward
# site and piece index, and under R1 the inward site.
_INSIDE_SITES = {scheme: _step_table(scheme, _inside_site) for scheme in SCHEME_CHARTS}
_INSIDE_PIECES = {scheme: _step_table(scheme, _outer_piece) for scheme in SCHEME_CHARTS}
_OUTSIDE_SITES = _step_table("R1", _outside_site)


def _eval_site(spec: ExtensionSpec, params: CuspParams, t, X, r, ts):
    """Site of each point of a gated batch (`as_points`) (_ZERO, _NATIVE or
    _CHART), the chart the _CHART points compose through, the cusp-wall mask
    of every point, and the piece index of every _CHART point, all from one
    region-table pass (`geometry._locate`); the first point outside the
    extension's reach raises ChartDomainError.

    The pass reads the masks of the direction's own chart alone; a point of
    the other chart's regions takes a later step of the same site
    (CuspInterior, OutsideNeighborhood), after every out-of-reach step.
    Outward, the site and the piece follow from the classification step: a
    collar region's step is the first outer-chart mask that holds the point.
    Inward, chart membership is tested through the inner chart's closures,
    so closure edges (such as t = 1/2 on the cusp core) compose fine; the
    step only splits the rest into native and off-domain points.
    """
    inside = spec.direction is Direction.FromInside
    chart = spec.outer_chart if inside else ChartId.R1Inner
    step, wall, masks = geometry._locate(params, spec.scheme, t, r, ts, (chart,))
    if inside:
        site = _INSIDE_SITES[spec.scheme][step]
        idx = _INSIDE_PIECES[spec.scheme][step]
        reason = "is outside the extension neighbourhood"
    else:  # FromOutside (scheme R1 only): compose through the inner chart.
        idx = select_first(masks[chart], range(len(masks[chart])), -1)
        site = _OUTSIDE_SITES[step]
        site = np.where(wall | (site == _ZERO), _ZERO, np.where(idx >= 0, _CHART, site))
        reason = "lies in the domain beyond the inner chart"
    if bad := first_flagged(site < 0, t, X):
        label = geometry._STEPS[spec.scheme][step[bad[0]]]
        raise ChartDomainError(f"{bad[1]!r} {reason} ({label.value})", label=label)
    return site, chart, wall, idx


def extend_eval_points(spec: ExtensionSpec, params: CuspParams, u: TestFunction, t, X):
    """Values of the extended function on a point batch: u on the native
    side, u o R across the boundary, 0 on the boundary itself (a null set,
    kept as printed)."""
    return _extend_eval(spec, params, u, *as_points(t, X, params))


def _extend_eval(spec: ExtensionSpec, params: CuspParams, u: TestFunction, t, X, r, ts):
    """`extend_eval_points` on a gated batch (`as_points`); a _CHART point,
    on the chart and off the cusp wall, reads its piece's T-row alone."""
    site, chart, _, idx = _eval_site(spec, params, t, X, r, ts)
    regions = chart_regions(chart)
    native = len(regions)
    out = np.zeros(t.size)
    keys = select_first([site == _CHART, site == _NATIVE], [idx, native], -1)
    for key, m in key_rows(keys, range(native + 1)):
        tm = t[m]
        if key < native:
            tm = reflections.piece_T_row(regions[key], params, tm, lambda: r[m])[0]
        out[m] = u.value_t(tm)
    return out


def extend_eval(spec: ExtensionSpec, params: CuspParams, u: TestFunction, z) -> float:
    """Value of the extended function at z: the one-row case of
    `extend_eval_points`."""
    p = as_point(z, params)
    return float(extend_eval_points(spec, params, u, [p.t], p.x[None, :])[0])


def extend_gradient_points(spec: ExtensionSpec, params: CuspParams, u: TestFunction, t, X):
    """Chain-rule gradients (N, n) of the extension at piece-interior points."""
    t, X, r, ts = as_points(t, X, params)
    site, chart, wall, idx = _eval_site(spec, params, t, X, r, ts)
    if bad := first_flagged(site == _ZERO, t, X):
        raise ChartDomainError(f"gradient undefined on the boundary at {bad[1]!r}")
    out = np.zeros((t.size, params.n))
    for key, m in key_rows(site, (_NATIVE, _CHART)):
        if key == _NATIVE:
            out[m, 0] = u.deriv_t(t[m])
        else:
            # (u'(T), 0, ..., 0) DR is the first row of DR scaled by u'(T)
            T, _, M, _, _ = reflections._differential_located(chart, params, t[m], X[m], r[m],
                                                              ts[m], wall[m], idx[m])
            out[m] = u.deriv_t(T)[:, None] * M[:, 0, :]
    return out


def extend_gradient(spec: ExtensionSpec, params: CuspParams, u: TestFunction, z) -> np.ndarray:
    """Chain-rule gradient of the extension at a piece-interior point: the
    one-row case of `extend_gradient_points`."""
    p = as_point(z, params)
    return extend_gradient_points(spec, params, u, [p.t], p.x[None, :])[0]


def extend_global_points(spec: ExtensionSpec, params: CuspParams, u: TestFunction, t, X):
    """Cutoff product psi * E(u) on a point batch: the globally defined
    extension, zero outside the collar neighbourhood."""
    t, X, r, ts = as_points(t, X, params)
    psi = _cutoff_psi(params, t, r, ts)
    out = np.zeros(t.size)
    for _, on in key_rows(psi != 0.0, (True,)):
        out[on] = psi[on] * _extend_eval(spec, params, u, t[on], X[on], r[on], ts[on])
    return out


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------

# The distance to the closed cusp searches a grid of TAU_NODES nodes
# sigma = sqrt(tau) over [0, 1], then TAU_STAGES - 1 times a grid of as many
# nodes across the two cells around each point's best node.
TAU_NODES = 257
TAU_STAGES = 3


def _dist_to_domain(params: CuspParams, t, r):
    """Profile-plane distance from points off the closed domain to it: the
    cusp by the refined grid search of the squared gap
    (t - tau)^2 + max(0, r - tau^s)^2 over tau = sigma^2, the ball in closed
    form.  For s < 2, tau^s bends without bound at the tip tau = 0, where the
    search can have two near-equal minima; in sigma the cusp radius
    sigma^(2s) is smooth there, and the nodes crowd towards the tip.  The
    first grid, one row for every point, is `_first_grid`'s."""
    s = params.s
    t_col, r_col = t[:, None], r[:, None]
    rows = np.arange(t.size)
    nodes, sigma, tau, tau_s = _first_grid(s)
    step = 1.0 / (TAU_NODES - 1)
    best = np.full(t.size, np.inf)
    for stage in range(TAU_STAGES):
        if stage:  # refine around the last stage's best node
            centre = (sigma[rows, i] if stage > 1 else sigma[i])[:, None]
            lo = np.maximum(centre - step, 0.0)
            step = (np.minimum(centre + step, 1.0) - lo) / (TAU_NODES - 1)
            sigma = lo + step * nodes
            tau = sigma * sigma
            tau_s = tau**s
        gap = t_col - tau
        gap *= gap
        radial = np.maximum(r_col - tau_s, 0.0)
        radial *= radial
        gap += radial
        i = gap.argmin(axis=1)
        best = np.minimum(best, gap[rows, i])
    d_ball = np.maximum(0.0, np.hypot(t - BALL_CENTER_T, r) - BALL_RADIUS)
    return np.minimum(np.sqrt(best), d_ball)


@lru_cache(maxsize=16)
def _first_grid(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The node numbers 0, ..., TAU_NODES - 1 and the first stage's nodes
    sigma over [0, 1], tau = sigma^2 and tau^s, the same for every point:
    read-only, kept for the last few s."""
    nodes = np.arange(TAU_NODES)
    sigma = 1.0 / (TAU_NODES - 1) * nodes
    tau = sigma * sigma
    grid = nodes, sigma, tau, tau**s
    for a in grid:
        a.flags.writeable = False
    return grid


def _dist_to_collar_complement(params: CuspParams, t, r):
    """Closed-form profile distance from collar points to the complement of
    the R1 neighbourhood: the three cylinder walls plus the corner wedge
    {t >= 1/2, r >= t^s}."""
    wall = 0.5**params.s
    corner = np.where(r >= wall, 0.5 - t, np.hypot(0.5 - t, wall - r))
    return np.maximum(0.0, np.minimum(np.minimum(t + 0.5, 0.5 - r), corner))


def cutoff_psi_points(params: CuspParams, t, X):
    """Lipschitz cutoff on a point batch: 1 on the closed domain (the closed
    cusp, the closed ball and the origin), 0 outside the R1 collar (the
    closed shapes of regions A, B and C in the region table), and in between
    the distance quotient d(z, complement) / (d(z, complement) + d(z, domain)),
    i.e. the distance to the complement normalised by the local collar width.
    """
    t, _, r, ts = as_points(t, X, params)
    return _cutoff_psi(params, t, r, ts)


def _cutoff_psi(params: CuspParams, t, r, ts):
    """`cutoff_psi_points` on a gated batch (`as_points`)."""
    domain = (((0.0 < t) & (t <= 1.0) & (r <= ts))
              | (np.hypot(t - BALL_CENTER_T, r) <= BALL_RADIUS)
              | ((t == 0.0) & (r == 0.0)))
    psi = np.where(domain, 1.0, 0.0)
    in_a, in_b, in_c = geometry.region_masks(params, ChartId.R1Outer, t, r, ts)
    between = ~domain & (in_a | in_b | in_c)
    for _, m in key_rows(between, (True,)):
        tb, rb = t[m], r[m]
        d_out = _dist_to_collar_complement(params, tb, rb)
        width = d_out + _dist_to_domain(params, tb, rb)
        # width is 0 only on the corner circle, a null set
        psi[m] = np.divide(d_out, width, out=np.zeros_like(width), where=width > 0.0)
    return psi


def cutoff_psi(params: CuspParams, z) -> float:
    """Lipschitz cutoff at one point z: 1 on the closed domain, 0 outside the
    R1 collar, the distance quotient in between; the one-row case of
    `cutoff_psi_points`."""
    p = as_point(z, params)
    return float(cutoff_psi_points(params, [p.t], p.x[None, :])[0])


# ---------------------------------------------------------------------------
# Membership oracle and norm experiments
# ---------------------------------------------------------------------------

def membership_oracle(u: PowerAlpha, p: float, n: int, s: float) -> bool:
    """Whether t^(-alpha) lies in W^{1,p} of the cusp window t < 1/2.

    The gradient term reduces to the 1-D integral of t^(s(n-1) - (alpha+1)p),
    finite iff alpha + 1 < (1 + (n-1)s)/p; the value term is strictly weaker.
    """
    if not isinstance(u, PowerAlpha):
        raise TypeError("the membership oracle covers the power family only")
    if p < 1.0:
        raise WindowError(f"need p >= 1, got {p}")
    CuspParams(n, s)
    return u.alpha + 1.0 < (1.0 + (n - 1) * s) / p


def _region_masses(region, params, u, q, value: bool, grad: bool, prof):
    """Log integrands of the value and (or) gradient L^q masses of u o R on
    a chart piece, q log|u(T)| and q (log|u'(T)| + log|grad T|), in that
    order, from the sample's T-row.  Bound by `functools.partial`, it
    pickles for the shell worker."""
    T, T_t, T_r = reflections.piece_T_row(region, params, prof.t, lambda: prof.r)
    log_u, log_du = u.log_jet_t(T)
    out = np.empty((value + grad, *np.shape(T)))
    if value:
        np.multiply(q, log_u, out=out[0])
    if grad:
        row = out[int(value)]
        log_grad_T = _log_grad_T(T_t, T_r)
        if not reflections._is_zero(log_grad_T):
            log_du = np.add(log_du, log_grad_T, out=row)
        np.multiply(q, log_du, out=row)
    return out


def _window_masses(u, p, prof):
    """Log integrands p log|u(t)| and p log|u'(t)| of the L^p value and
    gradient masses of u on the cusp window."""
    log_u, log_du = u.log_jet_t(prof.t)
    out = np.empty((2, *np.shape(log_u)))
    np.multiply(p, log_u, out=out[0])
    np.multiply(p, log_du, out=out[1])
    return out


def _region_loop(params: CuspParams, u: TestFunction, q: float, region: RegionLabel) -> tuple:
    """The (region, terms, salt) loop of `sobolev.function_shell_loops` whose
    two shell sums are the (value, gradient) L^q masses of u o R over a
    collar region, both from one draw per shell under the salt "extval": u
    depends on t alone, so u o R = u(T) has gradient norm |u'(T)| |(T_t, T_r)|,
    whose log sums log|u'(T)| and `_log_grad_T`.  Equal value and gradient
    tilts make one term, which reads one profile and one T-row."""
    s = params.s
    # Region E composes through T = r^(1/s), with |grad T| = r^(1/s-1)/s: the
    # power family pulls a radial singularity r^(-alpha q / s) (value) or
    # r^(-(alpha+s)q/s) (gradient) into the integrand, and clamp(t, 0, 1),
    # whose u' is 1 there, r^(-(s-1)q/s) (gradient); match the sampling
    # density to it.
    value_tilt = grad_tilt = 0.0
    if region is RegionLabel.RegionE and isinstance(u, PowerAlpha):
        value_tilt, grad_tilt = u.alpha * q / s, (u.alpha + s) * q / s
    elif region is RegionLabel.RegionE and isinstance(u, ClampT):
        grad_tilt = (s - 1.0) * q / s

    if value_tilt == grad_tilt:
        terms = [(partial(_region_masses, region, params, u, q, True, True), value_tilt)]
    else:
        terms = [(partial(_region_masses, region, params, u, q, True, False), value_tilt),
                 (partial(_region_masses, region, params, u, q, False, True), grad_tilt)]
    return region, terms, "extval"


def _log_grad_T(T_t, T_r):
    """log|(T_t, T_r)|.  Where one entry is a scalar zero it is the log of the
    other's modulus, hypot(0, y) = |y|: the scalar 0.0 for the constant +-1
    of A, B, C and D, one log of region E's T_r; `np.hypot` runs only where
    neither entry is a scalar zero, which no collar region has."""
    if reflections._is_zero(T_t) or reflections._is_zero(T_r):
        return np.log(np.abs(T_r if reflections._is_zero(T_t) else T_t))
    return np.log(np.hypot(T_t, T_r))


def _window_loop(u: TestFunction, p: float) -> tuple:
    """The (region, terms, salt) loop of `sobolev.function_shell_loops` whose
    two shell sums are the L^p value and gradient masses |u|^p and |u'|^p of
    u over the cusp window, both from one draw per shell under the salt
    "lp"."""
    return RegionLabel.CuspInterior, [(partial(_window_masses, u, p), 0.0)], "lp"


@dataclass
class ExtensionNormReport:
    """Shell-resolved L^q masses of the composed extension and its verdict,
    with the processes its shell loop ran on.  `log_u_norm` and
    `log_ext_norm` are the logs of the W^{1,p} norm of u and of the W^{1,q}
    norm of its extension, finite where a norm leaves the float range."""

    value_sum: ShellSum
    grad_sum: ShellSum
    total_sum: ShellSum
    u_norm: float
    log_u_norm: float
    log_ext_norm: float
    ratio: float
    verdict: Verdict
    processes: int


def extension_norm_experiment(
    params: CuspParams,
    spec: ExtensionSpec,
    u: TestFunction,
    p: float,
    q: float,
    shells,
    samples_per_shell: int = 4096,
    seed: int = 42,
) -> ExtensionNormReport:
    """Estimate the L^q value/gradient masses of u o R over the extension
    side, compare against the W^{1,p} norm of u on the cusp window, and
    classify the shell tail.  The shells of every collar region and of the
    window are one shell loop (`sobolev.function_shell_loops`), with the
    first error of the region-by-region loops."""
    if spec.direction is not Direction.FromInside:
        raise WindowError("norm experiments drive the outward extension only")
    sobolev._check_pq(p, q)
    if isinstance(u, PowerAlpha) and not membership_oracle(u, p, params.n, params.s):
        raise WindowError(
            f"t^(-{u.alpha}) is not W^(1,{p}) on the cusp window; experiment is vacuous"
        )
    if shells:  # an empty list raises its own error in the shell loop
        sobolev.check_shell_count(len(shells))
    loops = [_region_loop(params, u, q, region) for region in chart_regions(spec.outer_chart)]
    *terms, (lp, semi) = sobolev.function_shell_loops(
        params, [*loops, _window_loop(u, p)], shells, samples_per_shell, seed)
    ks = [sh.k for sh in shells]
    vals = np.logaddexp.reduce([v.log_contributions for v, _ in terms])
    grads = np.logaddexp.reduce([g.log_contributions for _, g in terms])
    processes = lp.processes
    value_sum = ShellSum(ks, vals, processes)
    grad_sum = ShellSum(ks, grads, processes)
    total_sum = ShellSum(ks, np.logaddexp(vals, grads), processes)
    verdict = convergence_verdict(total_sum)
    log_u_norm = np.logaddexp(lp.log_total / p, semi.log_total / p)
    log_ext_norm = np.logaddexp(value_sum.log_total / q, grad_sum.log_total / q)
    with np.errstate(over="ignore"):
        u_norm = float(np.exp(lp.log_total / p) + np.exp(semi.log_total / p))
        ext_norm = float(np.exp(value_sum.log_total / q) + np.exp(grad_sum.log_total / q))
    if total_sum.log_total == math.inf:
        ratio = math.inf
    elif (not all(2.0 ** -1022 <= x < math.inf for x in (u_norm, ext_norm))
          and math.isfinite(log_u_norm) and math.isfinite(log_ext_norm)):
        # a norm past the normal floats whose log is finite: the logs' quotient
        with np.errstate(over="ignore"):
            ratio = float(np.exp(log_ext_norm - log_u_norm))
    elif u_norm > 0.0:
        ratio = ext_norm / u_norm
    else:  # 0 / 0 for the zero function
        ratio = math.inf if ext_norm > 0.0 else 0.0
    return ExtensionNormReport(value_sum, grad_sum, total_sum, u_norm, float(log_u_norm),
                               float(log_ext_norm), ratio, verdict, processes)


# ---------------------------------------------------------------------------
# Lipschitz dichotomy probe
# ---------------------------------------------------------------------------

@dataclass
class HolderProbe:
    """Oscillation-versus-diameter power law of the inward extension."""

    t_values: list[float]
    oscillations: list[float]
    diameters: list[float]
    exponent: float
    residual: float


def holder_probe(
    params: CuspParams, t_values, radial_samples: int = 64
) -> HolderProbe:
    """Fit log(osc) against log(diam) for the inward-extended ramp function.

    For each t the cross-section disk of radius t^s is sampled radially; the
    extension of clamp(t, 0, 1) from the complement is 0 on the innermost
    band and t on the outermost, so the oscillation is exactly t while the
    disk diameter is 2 t^s.  The fitted slope is the Hoelder exponent, 1/s.
    """
    ts = sorted(float(t) for t in t_values)
    if len(ts) < 3 or len(set(ts)) < 3:
        raise ValueError("need at least 3 distinct t values")
    if not all(0.0 < t < 0.5 for t in ts):
        raise WindowError("probe heights must lie in (0, 1/2)")
    spec = ExtensionSpec("R1", Direction.FromOutside)
    u = ClampT()
    s = params.s
    e1 = np.zeros(params.n - 1)
    e1[0] = 1.0
    oscs, diams = [], []
    for t in ts:
        r = np.linspace(0.0, t**s, radial_samples, endpoint=False)
        vals = extend_eval_points(spec, params, u, np.full(r.size, t), r[:, None] * e1)
        oscs.append(float(np.max(vals) - np.min(vals)))
        diams.append(2.0 * t**s)
    with np.errstate(divide="ignore"):  # a zero oscillation fails the fit
        slope, _, resid = scaling_fit(zip(np.log(diams), np.log(oscs)))
    return HolderProbe(ts, oscs, diams, slope, resid)
