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
chart jet (opnorm, det) of a shell depend only on (seed, k, region), so a
sweep draws each (region, shell) once and reduces every cell over that
draw; only region E's radial tilt, which depends on (p, q), is applied
per cell to the shared draw.  `distortion_integral` is its one-cell case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import reflections
from .errors import WindowError
from .geometry import (
    CuspParams,
    RegionLabel,
    Shell,
    derive_rng,
    draw_scale,
    random_directions,
    sample_profile,
)
from .reflections import ChartId

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
# Redraws of a shell whose integrand values hold a nan, before giving up.
MAX_RETRIES = 3


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


def q_max(scheme: str, p: float, n: int, s: float) -> float:
    return q_max_r1(p, n, s) if str(scheme).upper() == "R1" else q_max_r2(p, n, s)


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

@dataclass
class ShellSum:
    """Per-shell contributions to a singular integral, reduced in ascending k."""

    ks: list[int]
    contributions: dict[int, float]
    partial_sums: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)

    @classmethod
    def from_contributions(cls, ks, values) -> "ShellSum":
        ks = list(ks)
        contributions = {k: float(v) for k, v in zip(ks, values)}
        partials, ratios = [], []
        total = 0.0
        prev = None
        for k in ks:
            c = contributions[k]
            total += c
            partials.append(total)
            if prev is not None:
                if prev > 0.0 and math.isfinite(prev):
                    ratios.append(c / prev)
                else:
                    ratios.append(0.0 if c == 0.0 else math.inf)
            prev = c
        return cls(ks, contributions, partials, ratios)

    @property
    def total(self) -> float:
        return self.partial_sums[-1] if self.partial_sums else 0.0


@dataclass(frozen=True)
class Verdict:
    """Convergence classification of a shell sum plus its fitted tail ratio."""

    kind: str  # 'Convergent' | 'Divergent' | 'Inconclusive'
    decay_ratio: float

    def __str__(self):
        return self.kind


def convergence_verdict(shell_sum: ShellSum, tail: int = VERDICT_TAIL) -> Verdict:
    """Classify tail behaviour: Convergent if the last `tail` ratios are all
    <= RATIO_CONVERGENT; else Divergent if all >= 1.0 or the partial sum
    exceeds 1e12.

    The rules apply in that order: a decisively decaying tail wins even when
    the (finite) sum is numerically enormous, as happens for bounded
    integrands at exponent pairs with q close to p.
    """
    if len(shell_sum.ks) < MIN_SHELLS:
        raise ValueError(f"need at least {MIN_SHELLS} shells, got {len(shell_sum.ks)}")
    total = shell_sum.total
    if total == 0.0:
        return Verdict("Convergent", 0.0)
    last = shell_sum.ratios[-tail:]
    finite = [x for x in last if math.isfinite(x) and x > 0.0]
    fitted = math.exp(sum(math.log(x) for x in finite) / len(finite)) if finite else math.inf
    if all(x <= RATIO_CONVERGENT for x in last) and math.isfinite(total):
        return Verdict("Convergent", fitted)
    if all(x >= RATIO_DIVERGENT for x in last):
        return Verdict("Divergent", fitted)
    if not math.isfinite(total) or total > PARTIAL_SUM_CAP:
        return Verdict("Divergent", fitted)
    return Verdict("Inconclusive", fitted)


# ---------------------------------------------------------------------------
# Stratified shell quadrature
# ---------------------------------------------------------------------------

def shell_estimate(
    params: CuspParams,
    region: RegionLabel,
    shell: Shell,
    integrand,
    samples: int,
    rng_seed_parts: tuple,
    radial_tilt: float = 0.0,
    max_retries: int = MAX_RETRIES,
) -> float:
    """Stratified estimate of one shell integral.

    `integrand(t, r, rng)` returns pointwise values on profile samples.  nan
    values (formula kinks hit head-on) trigger resampling of the whole shell
    with a fresh substream, a bounded number of times; inf values are kept,
    since genuinely divergent exponents overflow by design.
    """
    seed, k, salt = rng_seed_parts
    for attempt in range(max_retries + 1):
        rng = derive_rng(seed, k, region, salt=f"{salt}#{attempt}" if attempt else salt)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            prof = sample_profile(params, region, shell, samples, rng, radial_tilt=radial_tilt)
            vals = integrand(prof.t, prof.r, rng)
            weighted = prof.weight * vals
            if not np.any(np.isnan(weighted)):
                return prof.measure * float(np.mean(weighted))
    raise InterfaceRetryError(region, shell)


class InterfaceRetryError(RuntimeError):
    def __init__(self, region, shell):
        super().__init__(
            f"persistent non-finite integrand values on {region.value}, shell {shell.k}"
        )


def _distortion_tilt(region: RegionLabel, p: float, q: float, s: float) -> float:
    # Region E's integrand carries the radial power r^-((s-1)pq / (s(p-q)));
    # matching the conditional sampling density to it removes the variance
    # of the radially unbounded factor.
    if region is RegionLabel.RegionE:
        return (s - 1.0) * p * q / (s * (p - q))
    return 0.0


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

    Each shell is drawn once from the substream (seed, k, region, "dist")
    and every cell is reduced over that draw; on regions A..D the chart jet
    is shared as well, on region E each cell applies its own radial tilt to
    the shared draw.  A cell whose values hold a nan is redrawn under
    "dist#<attempt>", alone with the other such cells, at most MAX_RETRIES
    times; each cell's contributions equal a one-cell run's bit for bit.
    """
    cells = list(cells)
    for p, q in cells:
        _check_pq(p, q)
    if region not in reflections.COLLAR_REGIONS:
        raise ValueError(f"distortion integral is defined on A..E, not {region.value}")
    if reflections.chart_of_region(region) is not chart:
        raise ValueError(f"{region.value} is not a piece of chart {chart.value}")
    piece = reflections.piece_of_region(region)
    powers = [(p * q / (p - q), q / (p - q)) for p, q in cells]
    tilts = [_distortion_tilt(region, p, q, params.s) for p, q in cells]

    def jets(shell, rng, pending):
        """(cell, samples, opnorm, |det|) for each pending cell."""
        if region is RegionLabel.RegionE:
            draw = draw_scale(params, region, shell, samples_per_shell, rng)
            for i in pending:
                prof = draw.profile(tilts[i])
                _, _, opnorm, det = reflections.profile_jet(piece, params, prof.t, prof.r)
                yield i, prof, opnorm, np.abs(det)
            return
        prof = sample_profile(params, region, shell, samples_per_shell, rng)
        _, _, opnorm, det = reflections.profile_jet(piece, params, prof.t, prof.r)
        absdet = np.abs(det)
        for i in pending:
            yield i, prof, opnorm, absdet

    ks = [sh.k for sh in shells]
    values = [[] for _ in cells]
    for sh in shells:
        pending = list(range(len(cells)))
        for attempt in range(MAX_RETRIES + 1):
            if not pending:
                break
            rng = derive_rng(seed, sh.k, region, salt=f"dist#{attempt}" if attempt else "dist")
            nan_cells = []
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                for i, prof, opnorm, absdet in jets(sh, rng, pending):
                    P, Q = powers[i]
                    weighted = prof.weight * (opnorm**P / absdet**Q)
                    if np.any(np.isnan(weighted)):
                        nan_cells.append(i)
                    else:
                        values[i].append(prof.measure * float(np.mean(weighted)))
            pending = nan_cells
        if pending:
            raise InterfaceRetryError(region, sh)
    return [ShellSum.from_contributions(ks, v) for v in values]


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


def sobolev_seminorm(
    params: CuspParams,
    u,
    region: RegionLabel,
    p: float,
    shells,
    samples_per_shell: int = 4096,
    seed: int = 42,
) -> ShellSum:
    """Shellwise stratified estimate of the gradient term |Du|^p over the
    region (restricted to the t < 1/2 window the shells cover)."""
    if p < 1.0:
        raise WindowError(f"Sobolev exponent must satisfy p >= 1, got {p}")
    dim = params.n - 1

    def integrand(t, r, rng):
        dirs = random_directions(t.size, dim, rng)
        X = r[:, None] * dirs
        g_t, g_x = u.gradient_points(t, X)
        norm = np.sqrt(g_t**2 + np.sum(g_x**2, axis=1))
        return norm**p

    ks = [sh.k for sh in shells]
    values = [
        shell_estimate(params, region, sh, integrand, samples_per_shell, (seed, sh.k, "semi"))
        for sh in shells
    ]
    return ShellSum.from_contributions(ks, values)


def lp_norm_term(
    params: CuspParams,
    u,
    region: RegionLabel,
    p: float,
    shells,
    samples_per_shell: int = 4096,
    seed: int = 42,
) -> ShellSum:
    """Shellwise estimate of the value term |u|^p over the region."""
    dim = params.n - 1

    def integrand(t, r, rng):
        dirs = random_directions(t.size, dim, rng)
        X = r[:, None] * dirs
        return np.abs(u.value_points(t, X)) ** p

    ks = [sh.k for sh in shells]
    values = [
        shell_estimate(params, region, sh, integrand, samples_per_shell, (seed, sh.k, "lp"))
        for sh in shells
    ]
    return ShellSum.from_contributions(ks, values)


# ---------------------------------------------------------------------------
# Log-log fitting
# ---------------------------------------------------------------------------

def scaling_fit(pairs) -> tuple[float, float, float]:
    """Ordinary least squares on (log scale, log value).

    Returns (slope, intercept, residual) where residual is the RMS of the
    log-space misfit.  Rejects nonpositive inputs and fewer than 3 pairs.
    """
    pts = [(float(a), float(b)) for a, b in pairs]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 pairs for a fit, got {len(pts)}")
    if any(a <= 0.0 or b <= 0.0 for a, b in pts):
        raise ValueError("scaling_fit needs strictly positive scales and values")
    lx = np.log([a for a, _ in pts])
    ly = np.log([b for _, b in pts])
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
    """Per-shell geometric means of |det| and means of opnorm for a chart
    piece, plus the radial-compensated opnorm mean used by the region-E
    boundedness check."""
    piece = reflections.piece_of_region(region)
    s = params.s
    rows = []
    for sh in shells:
        rng = derive_rng(seed, sh.k, region, salt="scal")
        prof = sample_profile(params, region, sh, samples_per_shell, rng)
        _, _, opnorm, det = reflections.profile_jet(piece, params, prof.t, prof.r)
        # pair |J| with the geometric mean of the *sampled* scale variable,
        # so exact power laws (region A) fit to machine precision
        scale_var = prof.r if region is RegionLabel.RegionB else np.abs(prof.t)
        rows.append(
            {
                "k": sh.k,
                "scale": float(np.exp(np.mean(np.log(scale_var)))),
                "opnorm_mean": float(np.mean(opnorm)),
                "absdet_gmean": float(np.exp(np.mean(np.log(np.abs(det))))),
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


def qmax_crossing(n: int, s: float, tol: float = 1e-12) -> float:
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
        if hi - lo < tol * max(1.0, lo):
            break
    return 0.5 * (lo + hi)
