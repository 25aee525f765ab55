"""Sharp extension-exponent arithmetic and dyadic-shell quadrature.

The two reflection schemes admit bounded composition operators
W^{1,p} -> W^{1,q} exactly below the critical curves

    q_max_r1(p) = n p / (1 + (n-1) s),
    q_max_r2(p) = (1 + (n-1) s) p / (1 + (n-1) s + (s-1) p),

which cross at p* = (n-1)(1 + (n-1)s)/n where both equal n - 1.  The
obstruction is the distortion integral

    integral over the region of  opnorm(DR)^(pq/(p-q)) / |J_R|^(q/(p-q)),

whose dyadic shells decay like 2^(-k(e+1)) with the region's analytic
exponent e (see `predicted_shell_exponent`); it converges iff e > -1.
`distortion_sweep` estimates the shells by stratified Monte Carlo in
profile coordinates for many (p, q) cells at once and
`convergence_verdict` classifies the tail ratios.  The samples and the
chart jet of a shell depend only on (seed, k, region), so a sweep draws
each (region, shell) once; only region E's radial tilt, which depends on
(p, q), reshapes the radii, block of cells by block of cells.
`distortion_integral` is its one-cell case.

The norm terms of a test function and of its extension run through one
shell loop, `function_shells`, whose shell primitive `shell_estimate` draws
each (region, shell) once, from the substream (seed, k, region, salt), and
reduces every term of that shell from the draw: the terms of one radial tilt
share one profile.  Shells span hundreds of binary orders, so both paths
work in logs from the measure to the verdict: log measures and weights,
integrands that return logs, one reduce `_log_shell` with one nan rule
(NonFiniteIntegrandError), and `ShellSum`s of log contributions, whose log
ratios the verdict reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reflections
from .errors import WindowError
from .geometry import (
    COLLAR_REGIONS,
    ChartId,
    CuspParams,
    RegionLabel,
    Shell,
    chart_of_region,
    check_scheme,
    derive_rng,
    draw_scale,
    piece_of_region,
    sample_profile,
)

# Verdict thresholds.  The convergent cutoff is calibrated so the classifier
# is decisive at every sweep cell at least 0.05 in q away from the critical
# curve: the worst such cell (p = 6, first reflection, convergent side) has
# analytic tail ratio 2^(-0.25/(p - q_max + 0.05)) = 0.9318, and the implied
# indecision band ratio in (0.94, 1.0) stays within 0.05 of the curve.
RATIO_CONVERGENT = 0.94
RATIO_DIVERGENT = 1.0
VERDICT_TAIL = 4
PARTIAL_SUM_CAP = 1e12
MIN_SHELLS = 6
# Values (cells x samples) that `distortion_sweep` reduces in one block:
# larger blocks save little time and raise peak memory.
BLOCK_VALUES = 8192


# ---------------------------------------------------------------------------
# Exponent arithmetic
# ---------------------------------------------------------------------------

def _check_params(n: int, s: float):
    CuspParams(n, s)  # reuse the window validation


def p_min_r1(n: int, s: float) -> float:
    """Lower end of the admissible p-window for the first reflection."""
    _check_params(n, s)
    return (1.0 + (n - 1) * s) / n


def q_max_r1(p: float, n: int, s: float) -> float:
    """Critical q below which W^{1,p} extends through the first reflection."""
    pmin = p_min_r1(n, s)
    if not (p > pmin):
        raise WindowError(f"p must exceed {pmin:.6g} for this scheme, got {p}")
    return n * p / (1.0 + (n - 1) * s)


def p_min_r2(n: int, s: float) -> float:
    """Lower end of the admissible p-window for the second reflection."""
    _check_params(n, s)
    return (1.0 + (n - 1) * s) / (2.0 + (n - 2) * s)


def q_max_r2(p: float, n: int, s: float) -> float:
    """Critical q below which W^{1,p} extends through the second reflection."""
    pmin = p_min_r2(n, s)
    if not (p > pmin):
        raise WindowError(f"p must exceed {pmin:.6g} for this scheme, got {p}")
    c = 1.0 + (n - 1) * s
    return c * p / (c + (s - 1.0) * p)


def p_min(scheme: str, n: int, s: float) -> float:
    """Lower end of the admissible p-window of the scheme."""
    return p_min_r1(n, s) if check_scheme(scheme) == "R1" else p_min_r2(n, s)


def q_max(scheme: str, p: float, n: int, s: float) -> float:
    """Critical q of the scheme at p."""
    return q_max_r1(p, n, s) if check_scheme(scheme) == "R1" else q_max_r2(p, n, s)


def p_star(n: int, s: float) -> float:
    """Crossing point of the two critical curves; both equal n-1 there."""
    _check_params(n, s)
    return (n - 1) * (1.0 + (n - 1) * s) / n


def q_max_asymptote_r2(n: int, s: float) -> float:
    """Horizontal asymptote of q_max_r2 as p -> infinity."""
    _check_params(n, s)
    return (1.0 + (n - 1) * s) / (s - 1.0)


def dual_exponent(p: float, n: int) -> float:
    """Sobolev exponent p/(p+1-n) inherited by the inverse homeomorphism."""
    if not (p > n - 1):
        raise WindowError(f"dual exponent needs p > n-1 = {n - 1}, got {p}")
    return p / (p + 1.0 - n)


def dual_exponent_inverse(d: float, n: int) -> float:
    """Compositional inverse of `dual_exponent`: (n-1) d / (d - 1)."""
    if not (d > 1.0):
        raise WindowError(f"inverse dual exponent needs d > 1, got {d}")
    return (n - 1) * d / (d - 1.0)


def _check_pq(p: float, q: float):
    if not (1.0 <= q < p):
        raise WindowError(f"exponents must satisfy 1 <= q < p, got p={p}, q={q}")


def predicted_shell_exponent(region: RegionLabel, p: float, q: float, n: int, s: float) -> float:
    """Analytic power e with shell-k distortion mass ~ 2^(-k(e+1)).

    The collar pieces of the first reflection all reduce to the 1-D integral
    of t^((n-1) - (n-1)(s-1)q/(p-q)) in their scale variable; region E
    reduces (after the radial integration) to t^((n-1)s - (s-1)pq/(p-q)),
    and region D has constant distortion, so only its volume scaling
    (n-1)s remains.  Convergence of the region integral <=> e > -1.
    """
    _check_pq(p, q)
    _check_params(n, s)
    if region in (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC):
        return (n - 1) - (n - 1) * (s - 1.0) * q / (p - q)
    if region is RegionLabel.RegionD:
        return (n - 1) * s
    if region is RegionLabel.RegionE:
        return (n - 1) * s - (s - 1.0) * p * q / (p - q)
    raise ValueError(f"no shell exponent for region {region.value}")


# ---------------------------------------------------------------------------
# Shell sums and verdicts
# ---------------------------------------------------------------------------

class ShellSum:
    """Per-shell log contributions to a singular integral, reduced in
    ascending k to a `log_total` and `log_ratios` (after an empty or infinite
    shell: -inf if this one is empty, else inf).  The float views
    `contributions`, `partial_sums`, `ratios` and `total`, made once, read
    inf or 0 past the float range; the logs do not."""

    def __init__(self, ks, log_contributions):
        self.ks = list(ks)
        logs = self.log_contributions = np.asarray(log_contributions, dtype=float)
        prev, cur = logs[:-1], logs[1:]
        log_partials = np.logaddexp.accumulate(logs)
        self.log_total = float(log_partials[-1]) if logs.size else -math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            self.log_ratios = np.where(np.isfinite(prev), cur - prev,
                                       np.where(cur == -np.inf, -np.inf, np.inf))
            self.contributions = dict(zip(self.ks, np.exp(logs).tolist()))
            self.partial_sums = np.exp(log_partials).tolist()
            self.ratios = np.exp(self.log_ratios).tolist()
        self.total = self.partial_sums[-1] if self.partial_sums else 0.0

    @classmethod
    def from_contributions(cls, ks, values) -> "ShellSum":
        """The shell sum of float contributions."""
        with np.errstate(divide="ignore"):
            return cls(ks, np.log(values))


@dataclass(frozen=True)
class Verdict:
    """Convergence classification of a shell sum plus its fitted tail ratio."""

    kind: str  # 'Convergent' | 'Divergent' | 'Inconclusive'
    decay_ratio: float

    def __str__(self):
        return self.kind


def convergence_verdict(shell_sum: ShellSum) -> Verdict:
    """Classify tail behaviour: Convergent if the last VERDICT_TAIL ratios are all
    <= RATIO_CONVERGENT; else Divergent if all >= 1.0 or the partial sum
    exceeds 1e12.  The rules read the log ratios and the log total.

    The rules apply in that order: a decisively decaying tail wins even when
    the (finite) sum is numerically enormous, as happens for bounded
    integrands at exponent pairs with q close to p.
    """
    if len(shell_sum.ks) < MIN_SHELLS:
        raise ValueError(f"need at least {MIN_SHELLS} shells, got {len(shell_sum.ks)}")
    log_total = shell_sum.log_total
    if log_total == -math.inf:
        return Verdict("Convergent", 0.0)
    last = shell_sum.log_ratios[-VERDICT_TAIL:]
    finite = last[np.isfinite(last)]
    with np.errstate(over="ignore"):
        fitted = float(np.exp(np.mean(finite))) if finite.size else math.inf
    if np.all(last <= math.log(RATIO_CONVERGENT)) and math.isfinite(log_total):
        return Verdict("Convergent", fitted)
    if np.all(last >= math.log(RATIO_DIVERGENT)):
        return Verdict("Divergent", fitted)
    if not math.isfinite(log_total) or log_total > math.log(PARTIAL_SUM_CAP):
        return Verdict("Divergent", fitted)
    return Verdict("Inconclusive", fitted)


# ---------------------------------------------------------------------------
# Stratified shell quadrature
# ---------------------------------------------------------------------------

def shell_estimate(
    params: CuspParams,
    region: RegionLabel,
    shell: Shell,
    terms,
    samples: int,
    rng_seed_parts: tuple,
) -> list[float]:
    """Stratified log estimates of the terms of one shell integral, all from
    one draw of the substream (seed, k, region, salt) of `rng_seed_parts` =
    (seed, k, salt).

    `terms` lists (integrand, radial_tilt) pairs.  `integrand(t, r)` returns
    log values of shape (N,) on the profile samples of its tilt, or a stack
    (m, N) of m integrands, each row one estimate; the terms of one tilt get
    the same samples.  The result lists the `_log_shell` of each row, in term
    order: a nan raises NonFiniteIntegrandError, while inf values are kept,
    since genuinely divergent exponents overflow by design.
    """
    seed, k, salt = rng_seed_parts
    rng = derive_rng(seed, k, region, salt=salt)
    estimates = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        draw = draw_scale(params, region, shell, samples, rng)
        profiles = {}
        for integrand, tilt in terms:
            if tilt not in profiles:
                profiles[tilt] = draw.profile(tilt)
            prof = profiles[tilt]
            L = np.atleast_2d(prof.log_weight + integrand(prof.t, prof.r))
            estimates += _log_shell(prof.log_measure, L, region, shell).tolist()
    return estimates


class NonFiniteIntegrandError(RuntimeError):
    """A shell's integrand values hold a nan."""

    def __init__(self, region, shell):
        super().__init__(f"non-finite integrand values on {region.value}, shell {shell.k}")


def _distortion_tilt(region: RegionLabel, p: float, q: float, s: float) -> float:
    # Region E's integrand carries the radial power r^-((s-1)pq / (s(p-q)));
    # matching the conditional sampling density to it removes the variance
    # of the radially unbounded factor.
    if region is RegionLabel.RegionE:
        return (s - 1.0) * p * q / (s * (p - q))
    return 0.0


def _log_shell(log_measure: float, L: np.ndarray, region: RegionLabel, shell: Shell) -> np.ndarray:
    """log(measure * mean(exp(L), axis=1)) row by row, or NonFiniteIntegrandError
    on a nan in L.  Each row is shifted by its max so that no exp over- or
    underflows; a row with an infinite max is not shifted, so an infinite L
    gives an infinite shell and an all -inf row an empty one."""
    top = L.max(axis=1)  # nan where a row holds a nan
    if np.isnan(top).any():
        raise NonFiniteIntegrandError(region, shell)
    shift = np.where(np.isfinite(top), top, 0.0)
    return log_measure + shift + np.log(np.exp(L - shift[:, None]).sum(axis=1) / L.shape[1])


def distortion_sweep(
    params: CuspParams,
    chart: ChartId,
    region: RegionLabel,
    cells,
    shells,
    samples_per_shell: int = 4096,
    seed: int = 42,
) -> list[ShellSum]:
    """Shellwise stratified estimates of the distortion integral
    opnorm(DR)^(pq/(p-q)) / |J|^(q/(p-q)) over the region, one shell sum per
    (p, q) cell, in cell order.

    Each shell is drawn once from the substream (seed, k, region, "dist").
    The integrand is reduced in log space: a block of cells forms
    L = log w + P log opnorm - Q log|det| by broadcasting its exponent
    columns (P, Q) against the shared log jet, and each cell's log shell is
    log measure + max L + log mean exp(L - max L).  On region E each
    block draws its own radii from the shared scale draw with its column of
    radial tilts.  Elementwise broadcasting makes every cell's contributions
    equal a one-cell run's bit for bit.  A nan in L raises
    NonFiniteIntegrandError; there is no redraw.
    """
    cells = list(cells)
    for p, q in cells:
        _check_pq(p, q)
    if region not in COLLAR_REGIONS:
        raise ValueError(f"distortion integral is defined on A..E, not {region.value}")
    if chart_of_region(region) is not chart:
        raise ValueError(f"{region.value} is not a piece of chart {chart.value}")
    piece = piece_of_region(region)
    P = np.array([[p * q / (p - q)] for p, q in cells])
    Q = np.array([[q / (p - q)] for p, q in cells])
    tilts = np.array([[_distortion_tilt(region, p, q, params.s)] for p, q in cells])
    tilted = region is RegionLabel.RegionE

    log_shells = np.empty((len(cells), len(shells)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j, sh in enumerate(shells):
            rng = derive_rng(seed, sh.k, region, salt="dist")
            if tilted:
                draw = draw_scale(params, region, sh, samples_per_shell, rng)
            else:
                draw = sample_profile(params, region, sh, samples_per_shell, rng)
                log_w = draw.log_weight
                log_op, log_det = reflections.profile_log_jet(piece, params, draw.t, draw.r)
            rows = max(1, BLOCK_VALUES // draw.count)
            for lo in range(0, len(cells), rows):
                block = slice(lo, lo + rows)
                if tilted:
                    prof = draw.profile(tilts[block])
                    log_w = prof.log_weight
                    log_op, log_det = reflections.profile_log_jet(piece, params, prof.t, prof.r)
                L = log_w + P[block] * log_op - Q[block] * log_det
                log_shells[block, j] = _log_shell(draw.log_measure, L, region, sh)
    ks = [sh.k for sh in shells]
    return [ShellSum(ks, row) for row in log_shells]


def distortion_integral(
    params: CuspParams,
    chart: ChartId,
    region: RegionLabel,
    p: float,
    q: float,
    shells,
    samples_per_shell: int = 4096,
    seed: int = 42,
) -> ShellSum:
    """Shellwise stratified estimate of the (p, q) distortion integral
    opnorm(DR)^(pq/(p-q)) / |J|^(q/(p-q)) over the region: the one-cell
    case of `distortion_sweep`."""
    return distortion_sweep(params, chart, region, [(p, q)], shells, samples_per_shell, seed)[0]


def function_shells(
    params: CuspParams,
    region: RegionLabel,
    shells,
    terms,
    samples_per_shell: int,
    seed: int,
    salt: str,
) -> list[ShellSum]:
    """Shell sums of the (integrand, radial_tilt) terms over the region, one
    per estimate row of `shell_estimate`; each shell is drawn once, from the
    substream (seed, k, region, salt), for all the terms."""
    values = [shell_estimate(params, region, sh, terms, samples_per_shell, (seed, sh.k, salt))
              for sh in shells]
    ks = [sh.k for sh in shells]
    return [ShellSum(ks, column) for column in zip(*values)]


def log_gradient_power(u, p: float, t):
    """p log|u'(t)|: the log of |u'(t)|^p, the seminorm integrand of u(t)."""
    return p * np.log(np.abs(u.deriv_t(t)))


def sobolev_seminorm(
    params: CuspParams,
    u,
    region: RegionLabel,
    p: float,
    shells,
    samples_per_shell: int = 4096,
    seed: int = 42,
) -> ShellSum:
    """Shellwise stratified estimate of the gradient term |Du|^p = |u'(t)|^p
    over the region (restricted to the t < 1/2 window the shells cover)."""
    if p < 1.0:
        raise WindowError(f"Sobolev exponent must satisfy p >= 1, got {p}")
    return function_shells(params, region, shells,
                           [(lambda t, r: log_gradient_power(u, p, t), 0.0)],
                           samples_per_shell, seed, "semi")[0]


# ---------------------------------------------------------------------------
# Log-log fitting
# ---------------------------------------------------------------------------

def scaling_fit(pairs) -> tuple[float, float, float]:
    """Ordinary least squares on (log scale, log value) pairs.

    Returns (slope, intercept, residual) where residual is the RMS of the
    log-space misfit.  Rejects non-finite logs and fewer than 3 pairs.
    """
    pts = np.array([(float(a), float(b)) for a, b in pairs]).reshape(-1, 2)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 pairs for a fit, got {len(pts)}")
    if not np.isfinite(pts).all():
        raise ValueError("scaling_fit needs finite log scales and log values")
    lx, ly = pts.T
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((ly - A @ coef) ** 2)))
    return slope, intercept, resid


def scaling_profile(
    params: CuspParams,
    region: RegionLabel,
    shells,
    samples_per_shell: int = 2048,
    seed: int = 42,
) -> list[dict]:
    """Per-shell log geometric means of the scale variable and of |det| and
    means of opnorm for a chart piece, plus the radial-compensated opnorm
    mean used by the region-E boundedness check."""
    piece = piece_of_region(region)
    s = params.s
    rows = []
    for sh in shells:
        rng = derive_rng(seed, sh.k, region, salt="scal")
        prof = sample_profile(params, region, sh, samples_per_shell, rng)
        log_opnorm, log_absdet = reflections.profile_log_jet(piece, params, prof.t, prof.r)
        opnorm = np.exp(log_opnorm)
        # pair |J| with the geometric mean of the *sampled* scale variable,
        # so exact power laws (region A) fit to machine precision
        scale_var = prof.r if region is RegionLabel.RegionB else np.abs(prof.t)
        rows.append(
            {
                "k": sh.k,
                "log_scale": float(np.mean(np.log(scale_var))),
                "opnorm_mean": float(np.mean(opnorm)),
                "log_absdet": float(np.mean(log_absdet)),
                "opnorm_comp_mean": float(np.mean(opnorm * prof.r ** ((s - 1.0) / s))),
            }
        )
    return rows


def det_scaling_target(region: RegionLabel, n: int, s: float) -> float:
    """Analytic log-log slope of |J| in the region's scale variable."""
    if region in (RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC):
        return (n - 1) * (s - 1.0)
    if region in (RegionLabel.RegionD, RegionLabel.RegionE):
        return 0.0
    raise ValueError(f"no scaling target for {region.value}")


def qmax_crossing(n: int, s: float) -> float:
    """Numeric crossing of the two critical curves (bisection); equals p*."""
    lo = p_min_r1(n, s) * (1.0 + 1e-9)
    hi = 64.0

    def gap(p):
        return q_max_r1(p, n, s) - q_max_r2(p, n, s)

    glo, ghi = gap(lo), gap(hi)
    if glo > 0 or ghi < 0:  # pragma: no cover - formulas guarantee the bracket
        raise ArithmeticError("crossing bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)
