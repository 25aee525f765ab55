"""Reflection-induced extension operator, cutoff, test functions, probes.

A function u on the cusp domain extends outward by composition with the
outer chart (value u(R(z)) on the collar, u itself inside, 0 on the
boundary null set); a function on the complement extends inward through the
inner chart of the first reflection.  The analytic test-function families
below come with exact gradients, so extension gradients are exact
chain-rule products with the chart Jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import reflections, sobolev
from .errors import ChartDomainError, WindowError
from .geometry import (
    BALL_CENTER_T,
    BALL_RADIUS,
    CuspParams,
    RegionLabel,
    Shell,
    as_point,
    as_points,
    classify_profile,
    first_flagged,
    on_cusp_wall,
    radii,
    random_directions,
    select_first,
)
from .reflections import ChartId
from .sobolev import ShellSum, Verdict, convergence_verdict, scaling_fit


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

class TestFunction:
    """Analytic function with exact gradient; vectorised over point batches.

    `value_points`/`gradient_points` take t of shape (N,) and cross-section
    coordinates X of shape (N, n-1); gradients come back as (g_t, g_x).
    """

    def value(self, z) -> float:
        p = as_point(z)
        return float(self.value_points(np.array([p.t]), p.x[None, :])[0])

    def gradient(self, z) -> np.ndarray:
        p = as_point(z)
        g_t, g_x = self.gradient_points(np.array([p.t]), p.x[None, :])
        return np.concatenate(([g_t[0]], g_x[0]))

    def value_points(self, t, X):  # pragma: no cover - interface
        raise NotImplementedError

    def gradient_points(self, t, X):  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class PowerAlpha(TestFunction):
    """u(t, x) = t^(-alpha) on t > 0; the sharpness probe family."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise WindowError(f"power exponent must be positive, got {self.alpha}")

    def value_points(self, t, X):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("t^(-alpha) probe is only defined for t > 0")
        return t ** (-self.alpha)

    def gradient_points(self, t, X):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("t^(-alpha) probe is only defined for t > 0")
        g_t = -self.alpha * t ** (-self.alpha - 1.0)
        return g_t, np.zeros_like(np.asarray(X, dtype=float))


@dataclass(frozen=True)
class ClampT(TestFunction):
    """u(t, x) = clamp(t, 0, 1): the Lipschitz probe with kinks at t = 0, 1."""

    def value_points(self, t, X):
        return np.clip(np.asarray(t, dtype=float), 0.0, 1.0)

    def gradient_points(self, t, X):
        t = np.asarray(t, dtype=float)
        g_t = ((t > 0.0) & (t < 1.0)).astype(float)
        return g_t, np.zeros_like(np.asarray(X, dtype=float))


@dataclass(frozen=True, eq=False)
class RadialBump(TestFunction):
    """Smooth bump exp(1 - 1/(1 - rho^2)) of the scaled distance to `center`."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(-1))
        if not (self.radius > 0.0):
            raise WindowError("bump radius must be positive")

    def _rho(self, t, X):
        d = np.hypot(
            np.asarray(t, dtype=float) - self.center[0],
            np.linalg.norm(np.asarray(X, dtype=float) - self.center[1:], axis=1),
        )
        return d / self.radius

    def value_points(self, t, X):
        rho = self._rho(t, X)
        out = np.zeros_like(rho)
        inside = rho < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - rho[inside] ** 2))
        return out

    def gradient_points(self, t, X):
        t = np.asarray(t, dtype=float)
        X = np.asarray(X, dtype=float)
        diff_t = t - self.center[0]
        diff_x = X - self.center[1:]
        d = np.hypot(diff_t, np.linalg.norm(diff_x, axis=1))
        rho = d / self.radius
        g_t = np.zeros_like(t)
        g_x = np.zeros_like(X)
        inside = (rho < 1.0) & (d > 0.0)
        if np.any(inside):
            w = np.exp(1.0 - 1.0 / (1.0 - rho[inside] ** 2))
            dw = w * (-2.0 * rho[inside] / (1.0 - rho[inside] ** 2) ** 2)
            scale = dw / (self.radius * d[inside])
            g_t[inside] = scale * diff_t[inside]
            g_x[inside] = scale[:, None] * diff_x[inside]
        return g_t, g_x


@dataclass(frozen=True)
class Constant(TestFunction):
    c: float

    def value_points(self, t, X):
        return np.full(np.asarray(t, dtype=float).shape, self.c)

    def gradient_points(self, t, X):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t), np.zeros_like(np.asarray(X, dtype=float))


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
        scheme = str(self.scheme).upper()
        if scheme not in reflections.SCHEME_CHARTS:
            raise ValueError(f"scheme must be 'R1' or 'R2', got {self.scheme}")
        object.__setattr__(self, "scheme", scheme)
        if self.direction is Direction.FromOutside and scheme == "R2":
            raise WindowError("inward extension is only available through scheme R1")

    @property
    def outer_chart(self) -> ChartId:
        return reflections.outer_chart(self.scheme)


_NATIVE_INSIDE = (RegionLabel.CuspInterior, RegionLabel.BallInterior,
                  *reflections.chart_regions(ChartId.R1Inner))
_BOUNDARYISH = (RegionLabel.BoundaryCusp, RegionLabel.Origin)

# Evaluation sites: 0 on the boundary null set, u itself, or u o R.
_ZERO, _NATIVE, _CHART = 0, 1, 2


def _among(labels, group) -> np.ndarray:
    return np.array([label in group for label in labels], dtype=bool)


def _eval_site(spec: ExtensionSpec, params: CuspParams, t, X):
    """Site of each point of a batch (_ZERO, _NATIVE or _CHART) and the chart
    the _CHART points compose through; the first point outside the
    extension's reach raises ChartDomainError.

    Chart membership is tested through the chart closures, so closure edges
    (such as t = 1/2 on the cusp core) compose fine; classification is only
    consulted for the native/boundary/off-domain split.
    """
    r = radii(X)
    labels = classify_profile(params, spec.scheme, t, r)
    if spec.direction is Direction.FromInside:
        chart = spec.outer_chart
        on_chart = reflections.piece_index(chart, params, t, r) >= 0
        site = select_first(
            [_among(labels, _BOUNDARYISH), _among(labels, _NATIVE_INSIDE), on_chart],
            [_ZERO, _NATIVE, _CHART], -1,
        )
        reason = "is outside the extension neighbourhood"
    else:  # FromOutside (scheme R1 only): compose through the inner chart.
        chart = ChartId.R1Inner
        on_chart = reflections.piece_index(chart, params, t, r) >= 0
        site = select_first(
            [on_cusp_wall(params, t, r) | (np.hypot(t, r) <= 1e-12), on_chart,
             _among(labels, (RegionLabel.CuspInterior, RegionLabel.BallInterior))],
            [_ZERO, _CHART, -1], _NATIVE,  # native anywhere in the open complement
        )
        reason = "lies in the domain beyond the inner chart"
    if bad := first_flagged(site < 0, t, X):
        label = labels[bad[0]]
        raise ChartDomainError(f"{bad[1]!r} {reason} ({label.value})", label=label)
    return site, chart


def extend_eval_points(spec: ExtensionSpec, params: CuspParams, u: TestFunction, t, X):
    """Values of the extended function on a point batch: u on the native
    side, u o R across the boundary, 0 on the boundary itself (a null set,
    kept as printed)."""
    t, X = as_points(t, X, params)
    site, chart = _eval_site(spec, params, t, X)
    out = np.zeros(t.size)
    native = site == _NATIVE
    if native.any():
        out[native] = u.value_points(t[native], X[native])
    via = site == _CHART
    if via.any():
        out[via] = u.value_points(*reflections.apply_points(chart, params, t[via], X[via]))
    return out


def extend_eval(spec: ExtensionSpec, params: CuspParams, u: TestFunction, z) -> float:
    """Value of the extended function at z: the one-row case of
    `extend_eval_points`."""
    p = as_point(z, params)
    return float(extend_eval_points(spec, params, u, [p.t], p.x[None, :])[0])


def extend_gradient_points(spec: ExtensionSpec, params: CuspParams, u: TestFunction, t, X):
    """Chain-rule gradients (N, n) of the extension at piece-interior points."""
    t, X = as_points(t, X, params)
    site, chart = _eval_site(spec, params, t, X)
    if bad := first_flagged(site == _ZERO, t, X):
        raise ChartDomainError(f"gradient undefined on the boundary at {bad[1]!r}")
    out = np.empty((t.size, params.n))
    native = site == _NATIVE
    if native.any():
        g_t, g_x = u.gradient_points(t[native], X[native])
        out[native] = np.column_stack([g_t, g_x])
    via = site == _CHART
    if via.any():
        T, X_img, M, _, _ = reflections.differential_points(chart, params, t[via], X[via])
        g_t, g_x = u.gradient_points(T, X_img)
        out[via] = (np.column_stack([g_t, g_x])[:, None, :] @ M)[:, 0, :]
    return out


def extend_gradient(spec: ExtensionSpec, params: CuspParams, u: TestFunction, z) -> np.ndarray:
    """Chain-rule gradient of the extension at a piece-interior point: the
    one-row case of `extend_gradient_points`."""
    p = as_point(z, params)
    return extend_gradient_points(spec, params, u, [p.t], p.x[None, :])[0]


def extend_global(spec: ExtensionSpec, params: CuspParams, u: TestFunction, z) -> float:
    """Cutoff product psi * E(u): the globally defined extension, zero
    outside the collar neighbourhood."""
    p = as_point(z, params)
    psi = cutoff_psi(params, p)
    if psi == 0.0:
        return 0.0
    return psi * extend_eval(spec, params, u, p)


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------

def _in_closed_domain(params: CuspParams, t: float, r: float) -> bool:
    s = params.s
    if 0.0 < t <= 1.0 and r <= t**s:
        return True
    if math.hypot(t - BALL_CENTER_T, r) <= BALL_RADIUS:
        return True
    return t == 0.0 and r == 0.0


def _in_collar_r1(t: float, r: float) -> bool:
    return abs(t) < 0.5 and r < 0.5


def _dist_to_domain(params: CuspParams, t: float, r: float) -> float:
    """Profile-plane distance to the closed domain (cusp curve via a guarded
    1-D minimisation, ball in closed form)."""
    s = params.s
    if _in_closed_domain(params, t, r):
        return 0.0
    d_ball = max(0.0, math.hypot(t - BALL_CENTER_T, r) - BALL_RADIUS)

    def gap(tau: float) -> float:
        dr = max(0.0, r - tau**s)
        return math.hypot(t - tau, dr)

    taus = np.linspace(0.0, 1.0, 257)
    vals = [gap(float(tau)) for tau in taus]
    i = int(np.argmin(vals))
    lo, hi = taus[max(0, i - 1)], taus[min(len(taus) - 1, i + 1)]
    if hi > lo:
        # imported here: scipy.optimize costs most of the package's import time
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(gap, bounds=(float(lo), float(hi)), method="bounded")
        best = min(vals[i], float(res.fun))
    else:  # pragma: no cover - degenerate bracket
        best = vals[i]
    return min(best, d_ball)


def _dist_to_collar_complement(params: CuspParams, t: float, r: float) -> float:
    """Closed-form profile distance from a collar point to the complement of
    the R1 neighbourhood: the three cylinder walls plus the corner wedge
    {t >= 1/2, r >= t^s}."""
    s = params.s
    d_left = t + 0.5
    d_side = 0.5 - r
    if r >= 0.5**s:
        d_corner = 0.5 - t
    else:
        d_corner = math.hypot(0.5 - t, 0.5**s - r)
    return max(0.0, min(d_left, d_side, d_corner))


def cutoff_psi(params: CuspParams, z) -> float:
    """Lipschitz cutoff: 1 on the closed domain, 0 outside the R1 collar.

    In the collar the value is the distance quotient
    d(z, complement) / (d(z, complement) + d(z, domain)), i.e. the distance
    to the complement normalised by the local collar width.
    """
    p = as_point(z, params)
    t, r = p.t, p.r
    if _in_closed_domain(params, t, r):
        return 1.0
    if not _in_collar_r1(t, r):
        return 0.0
    d_out = _dist_to_collar_complement(params, t, r)
    d_in = _dist_to_domain(params, t, r)
    if d_out + d_in == 0.0:  # pragma: no cover - corner circle null set
        return 0.0
    return d_out / (d_out + d_in)


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


def _composed_terms(
    params: CuspParams,
    spec: ExtensionSpec,
    u: TestFunction,
    q: float,
    region: RegionLabel,
    shell: Shell,
    samples: int,
    seed: int,
):
    """One shell's (value, gradient) L^q masses of u o R over a collar piece."""
    piece = reflections.piece_of_region(region)
    n, s = params.n, params.s
    dim = n - 1

    def tilt_for(kind: str) -> float:
        # Region E composes through T = r^(1/s): the power family pulls a
        # radial singularity r^(-alpha q / s) (value) or r^(-(alpha+s)q/s)
        # (gradient) into the integrand; match the sampling density to it.
        if region is not RegionLabel.RegionE or not isinstance(u, PowerAlpha):
            return 0.0
        a = u.alpha
        return (a * q / s) if kind == "value" else ((a + s) * q / s)

    def value_integrand(t, r, rng):
        T, phi, _, _ = reflections.profile_jet(piece, params, t, r)
        dirs = random_directions(t.size, dim, rng)
        X = phi[:, None] * dirs
        return np.abs(u.value_points(T, X)) ** q

    def grad_integrand(t, r, rng):
        T, T_t, T_r, phi, phi_t, phi_r = reflections.piece_profile(piece, params, t, r)
        dirs = random_directions(t.size, dim, rng)
        X = phi[:, None] * dirs
        g_t, g_x = u.gradient_points(T, X)
        g_par = np.sum(g_x * dirs, axis=1)
        g_perp = g_x - g_par[:, None] * dirs
        with np.errstate(invalid="ignore", divide="ignore"):
            tang = np.where(r > 0.0, phi / np.where(r > 0.0, r, 1.0), phi_r)
        d_t = g_t * T_t + g_par * phi_t
        d_rad = g_t * T_r + g_par * phi_r
        d_perp2 = tang**2 * np.sum(g_perp**2, axis=1)
        return (d_t**2 + d_rad**2 + d_perp2) ** (q / 2.0)

    val = sobolev.shell_estimate(
        params, region, shell, value_integrand, samples, (seed, shell.k, "extval"),
        radial_tilt=tilt_for("value"),
    )
    grad = sobolev.shell_estimate(
        params, region, shell, grad_integrand, samples, (seed, shell.k, "extgrad"),
        radial_tilt=tilt_for("grad"),
    )
    return val, grad


@dataclass
class ExtensionNormReport:
    """Shell-resolved L^q masses of the composed extension and its verdict."""

    value_sum: ShellSum
    grad_sum: ShellSum
    total_sum: ShellSum
    u_norm: float
    ratio: float
    verdict: Verdict


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
    classify the shell tail."""
    if spec.direction is not Direction.FromInside:
        raise WindowError("norm experiments drive the outward extension only")
    sobolev._check_pq(p, q)
    if isinstance(u, PowerAlpha) and not membership_oracle(u, p, params.n, params.s):
        raise WindowError(
            f"t^(-{u.alpha}) is not W^(1,{p}) on the cusp window; experiment is vacuous"
        )
    regions = reflections.chart_regions(spec.outer_chart)
    ks = [sh.k for sh in shells]
    vals, grads = [], []
    for sh in shells:
        v_tot = g_tot = 0.0
        for region in regions:
            v, g = _composed_terms(params, spec, u, q, region, sh, samples_per_shell, seed)
            v_tot += v
            g_tot += g
        vals.append(v_tot)
        grads.append(g_tot)
    value_sum = ShellSum.from_contributions(ks, vals)
    grad_sum = ShellSum.from_contributions(ks, grads)
    total_sum = ShellSum.from_contributions(ks, [a + b for a, b in zip(vals, grads)])
    verdict = convergence_verdict(total_sum)

    lp = sobolev.lp_norm_term(params, u, RegionLabel.CuspInterior, p, shells, samples_per_shell, seed)
    semi = sobolev.sobolev_seminorm(
        params, u, RegionLabel.CuspInterior, p, shells, samples_per_shell, seed
    )
    u_norm = lp.total ** (1.0 / p) + semi.total ** (1.0 / p)
    if math.isfinite(total_sum.total) and u_norm > 0.0:
        ratio = (value_sum.total ** (1.0 / q) + grad_sum.total ** (1.0 / q)) / u_norm
    else:
        ratio = math.inf
    return ExtensionNormReport(value_sum, grad_sum, total_sum, u_norm, ratio, verdict)


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
    slope, _, resid = scaling_fit(zip(diams, oscs))
    return HolderProbe(ts, oscs, diams, slope, resid)
