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
`distortion_integral` is its one-cell case.  Since every shell has its own
substream, a sweep call with enough work splits its shells over two
processes where this process may run on two CPUs (`_each_shell`): a forked
child computes the odd shells with the serial code, so the split gives the
serial bits and the serial first error.

The norm terms of a test function and of its extension run through one
shell loop, `function_shells`, whose shell primitive `shell_estimate` draws
each (region, shell) once, from the substream (seed, k, region, salt), and
reduces every term of that shell from the draw: the terms of one radial tilt
share one profile, which each integrand reads as a `ProfileSample`.  A draw
forms its radial band on the first read of r, so an untilted integrand of t
alone neither forms the band nor draws the radius.  What is the same for
every shell of a region is done once per region: both paths make the log
measures of all its shells (and region C's proposal masses) in one
`geometry._log_shell_masses` pass and hand each shell its own.  Shells span
hundreds of binary orders, so both paths work in logs from the measure to
the verdict: log measures and weights, integrands that return logs, one
reduce `_log_shell` with one nan rule (NonFiniteIntegrandError), and
`ShellSum`s of log contributions, whose log ratios the verdict reads.
"""

from __future__ import annotations

import math
import os
import signal
import threading
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
    _log_shell_masses,
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
# Values (cells x shells x samples) from which a `distortion_sweep` call
# splits its shells over two processes: below it the fixed cost of the split
# (about 8 ms) outweighs the second CPU.  Measured, see `distortion_sweep`.
SPLIT_VALUES = 2 ** 19


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
    log_measure: float | None = None,
    log_proposal: float | None = None,
) -> list[float]:
    """Stratified log estimates of the terms of one shell integral, all from
    one draw of the substream (seed, k, region, salt) of `rng_seed_parts` =
    (seed, k, salt).

    `terms` lists (integrand, radial_tilt) pairs.  `integrand(prof)` returns
    log values of shape (N,) on the `ProfileSample` of its tilt, or a stack
    (m, N) of m integrands, each row one estimate; the terms of one tilt get
    the same samples.  Their result is a new float array, which the
    estimate overwrites.  An untilted sample draws its radii on the first
    read of `prof.r`, so an integrand that reads t alone neither forms the
    radial band nor draws a radius.  A zero log weight (cones, bands, the
    slab) is not added.  The result lists the `_log_shell` of each row, in
    term order: a nan raises NonFiniteIntegrandError, while inf values are
    kept, since genuinely divergent exponents overflow by design.
    `log_measure` and `log_proposal` are the shell's entries of
    `geometry._log_shell_masses`, which `function_shells` makes for all its
    shells at once.
    """
    seed, k, salt = rng_seed_parts
    rng = derive_rng(seed, k, region, salt=salt)
    estimates = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        draw = draw_scale(params, region, shell, samples, rng, log_measure=log_measure,
                          log_proposal=log_proposal)
        profiles = {}
        for integrand, tilt in terms:
            if tilt not in profiles:
                profiles[tilt] = draw.profile(tilt)
            prof = profiles[tilt]
            L = integrand(prof)
            if np.ndim(prof.log_weight):  # a scalar log weight is 0.0
                L += prof.log_weight
            estimates += _log_shell(prof.log_measure, np.atleast_2d(L), region, shell).tolist()
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
    gives an infinite shell and an all -inf row an empty one.  L is the
    caller's scratch: it is shifted and exponentiated in place."""
    top = L.max(axis=1)  # nan where a row holds a nan
    if np.isnan(top).any():
        raise NonFiniteIntegrandError(region, shell)
    shift = np.where(np.isfinite(top), top, 0.0)
    L -= shift[:, None]
    return log_measure + shift + np.log(np.exp(L, out=L).sum(axis=1) / L.shape[1])


def _shell_masses(params: CuspParams, region: RegionLabel, shells) -> list[tuple]:
    """(log measure, log proposal mass or None) of each shell, from one
    `geometry._log_shell_masses` pass."""
    measures, proposals = _log_shell_masses(params, region, shells)
    return list(zip(measures.tolist(),
                    [None] * len(shells) if proposals is None else proposals.tolist()))


def sweep_processes(cells: int, shells: int, samples: int) -> int:
    """Processes that serve a `distortion_sweep` call of `cells` x `shells`
    x `samples` values: 2 when it has two shells or more, its values reach
    SPLIT_VALUES and this process may run on two CPUs or more, else 1.  A
    process that runs other Python threads gets 1: a fork copies only the
    calling thread, so a lock another thread holds would stay held in the
    child."""
    if (shells < 2 or cells * shells * samples < SPLIT_VALUES
            or threading.active_count() > 1 or not hasattr(os, "sched_getaffinity")):
        return 1
    return 2 if len(os.sched_getaffinity(0)) >= 2 else 1


def _first_failure(column, js):
    """Run column(j) for j in js: the first j that raises and its error, or
    (None, None)."""
    for j in js:
        try:
            column(j)
        except Exception as exc:
            return j, exc
    return None, None


def _each_shell(column, out: np.ndarray, processes: int) -> None:
    """Run column(j), which fills out[:, j], for every shell j, with the
    columns and the error of the loop in ascending j.

    With two processes a forked child runs the odd j and this process the
    even ones.  The child runs only `column`, which must call no BLAS and
    write no output; it sends its first failing j (or the shell count) and
    its columns as raw float64 bytes over a pipe and ends in `os._exit`.  This
    process then runs the odd shells from the child's failure on itself, up
    to its own first failure, so the first failing shell raises here with
    the serial loop's type and text.  A child that dies without sending
    counts as failing at shell 1.  The child is killed if still running and
    reaped before the call returns or raises.
    """
    count = out.shape[1]
    if processes < 2:
        for j in range(count):
            column(j)
        return
    odd = out[:, 1::2]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        try:
            os.close(read_fd)
            failed, _ = _first_failure(column, range(1, count, 2))
            with open(write_fd, "wb") as pipe:
                pipe.write(np.int64(count if failed is None else failed).tobytes()
                           + odd.tobytes())
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            stop, error = _first_failure(column, range(0, count, 2))
            sent = pipe.read()
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    failed = 1
    if len(sent) == 8 + odd.nbytes:
        failed = int(np.frombuffer(sent[:8], np.int64)[0])
        odd[...] = np.frombuffer(sent[8:]).reshape(odd.shape)
    for j in range(failed, count if stop is None else stop, 2):
        column(j)
    if error is not None:
        raise error


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

    Each shell is drawn once from the substream (seed, k, region, "dist"),
    with its log measure (and on region C its proposal mass) from one
    `geometry._log_shell_masses` pass over the shells.
    The integrand is reduced in log space: a block of cells forms
    L = log w + P log opnorm - Q log|det| by broadcasting its exponent
    columns (P, Q) against the shared log jet, and each cell's log shell is
    log measure + max L + log mean exp(L - max L).  On region E each
    block draws its own radii from the shared scale draw with its column of
    radial tilts.  Elementwise broadcasting makes every cell's contributions
    equal a one-cell run's bit for bit, except where a cell's radial
    exponent in `geometry._power_icdf` is one of numpy's special-cased powers
    (-1, 0.5, 2), which round differently in a one-cell column than in a
    longer one: such a cell agrees to a few ulps (3.6e-15 in a log shell of
    the (3, 2) cell on region E at n = 3, s = 2).  A nan in L raises
    NonFiniteIntegrandError; there is no redraw.

    A call of at least SPLIT_VALUES = 2^19 values (cells x shells x
    samples), with two shells or more, in a process that may run on two
    CPUs or more (`sweep_processes`) splits its shells: a forked child
    computes the odd shells and this process the even ones (`_each_shell`).
    The split is bit for bit: each shell is drawn from its own substream and
    its column is computed by the same code from the same inputs as in the
    serial loop, and the child's columns come back as raw float64 bytes.
    The first failing shell raises the serial loop's error.  A smaller call,
    or one CPU, runs the serial loop.  The floor is measured: a split costs
    about 8 ms per call on a 2-vCPU host (fork, copy-on-write faults,
    reaping), so it pays from about 2^17.5 values on R2, whose region E
    grows with the cells, and from 2^19 (4096 samples) to 2^19.6 (1024
    samples) on R1; the table is in README.md.
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
    masses = _shell_masses(params, region, shells)

    def column(j):
        sh, (log_measure, log_proposal) = shells[j], masses[j]
        rng = derive_rng(seed, sh.k, region, salt="dist")
        if tilted:
            draw = draw_scale(params, region, sh, samples_per_shell, rng,
                              log_measure=log_measure, log_proposal=log_proposal)
        else:
            draw = sample_profile(params, region, sh, samples_per_shell, rng,
                                  log_measure=log_measure, log_proposal=log_proposal)
            log_w = draw.log_weight
            log_op, log_det = reflections.profile_log_jet(piece, params, draw.t, draw.r)
        rows = max(1, BLOCK_VALUES // draw.count)
        scratch = np.empty((2, min(rows, len(cells)), draw.count))
        for lo in range(0, len(cells), rows):
            block = slice(lo, lo + rows)
            if tilted:
                prof = draw.profile(tilts[block])
                log_w = prof.log_weight
                log_op, log_det = reflections.profile_log_jet(piece, params, prof.t, prof.r)
            L, Q_log_det = scratch[:, :len(P[block])]
            np.multiply(P[block], log_op, out=L)
            if np.ndim(log_w):  # a scalar log weight is 0.0
                L += log_w
            L -= np.multiply(Q[block], log_det, out=Q_log_det)
            log_shells[block, j] = _log_shell(draw.log_measure, L, region, sh)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _each_shell(column, log_shells,
                    sweep_processes(len(cells), len(shells), samples_per_shell))
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
    substream (seed, k, region, salt), for all the terms.

    What does not change from shell to shell is done once per region: the
    log measures of all shells (and region C's proposal masses) are one
    `geometry._log_shell_masses` pass, handed to each shell's estimate.
    Within a shell, a radial band is formed only when an integrand reads r."""
    values = [shell_estimate(params, region, sh, terms, samples_per_shell, (seed, sh.k, salt),
                             *masses)
              for sh, masses in zip(shells, _shell_masses(params, region, shells))]
    ks = [sh.k for sh in shells]
    return [ShellSum(ks, column) for column in zip(*values)]


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
    over the region (restricted to the t < 1/2 window the shells cover),
    whose log p log|u'(t)| reads the log form `u.log_jet_t`."""
    if p < 1.0:
        raise WindowError(f"Sobolev exponent must satisfy p >= 1, got {p}")
    return function_shells(params, region, shells,
                           [(lambda prof: p * u.log_jet_t(prof.t)[1], 0.0)],
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
