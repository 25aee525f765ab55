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

Since every shell has its own substream, both shell loops split their
shells over two processes by one rule (`_each_shell`): a loop of two shells
or more splits where this process runs one thread and may run on two CPUs.
The second process is one shell worker per process, forked once the
process's shell loops have done enough work to repay the fork, pinned to
the other CPUs and kept until the process ends: each split sends it a
module-level column factory with its pickled arguments, it computes the odd
shells with the serial code, and this process the even ones.  The split
gives the serial bits and the serial first error.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import partial

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
# Values (cells or terms x shells x samples) of the shell loops that could
# split, the current one included, from which a process forks its shell
# worker (`_each_shell`): in a fresh process the fork costs 12-22 ms
# (copy-on-write faults, and the reaping at exit), which only a few hundred
# ms of shell work repays.  Measured, see README.md.
FORK_VALUES = 2 ** 22


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
    shell: -inf if this one is empty, else inf), with the `processes` that
    computed its shells.  The float views `contributions`, `partial_sums`,
    `ratios` and `total`, made once, read inf or 0 past the float range; the
    logs do not."""

    def __init__(self, ks, log_contributions, processes: int = 1):
        self.ks = list(ks)
        self.processes = processes
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
    """Convergence classification of a shell sum."""

    kind: str  # 'Convergent' | 'Divergent' | 'Inconclusive'

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
        return Verdict("Convergent")
    last = shell_sum.log_ratios[-VERDICT_TAIL:]
    if np.all(last <= math.log(RATIO_CONVERGENT)) and math.isfinite(log_total):
        return Verdict("Convergent")
    if np.all(last >= math.log(RATIO_DIVERGENT)):
        return Verdict("Divergent")
    if not math.isfinite(log_total) or log_total > math.log(PARTIAL_SUM_CAP):
        return Verdict("Divergent")
    return Verdict("Inconclusive")


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


class _Worker:
    """The shell worker: its pid, the files of its task and result pipes,
    and the pid of the process that forked it."""

    def __init__(self, pid: int, tasks, results):
        self.pid, self.tasks, self.results, self.owner = pid, tasks, results, os.getpid()


_worker: _Worker | None = None
# Values of the shell loops that could split while this process had no
# worker (`_each_shell`).
_unsplit_values = 0


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _run_shells(column, js) -> tuple[list, int | None, Exception | None]:
    """column(j) for j in js up to the first that raises: the columns before
    it, that j (or None) and its error."""
    done = []
    for j in js:
        try:
            done.append(column(j))
        except Exception as exc:
            return done, j, exc
    return done, None, None


def _serve(tasks, results) -> None:
    """The worker's loop: for each task (factory, args, shell count, numpy
    error state) the columns of the odd shells up to the first that raises,
    until the end of file of the task pipe.  Anything else that raises ends
    the worker, which the caller reads as a failure at shell 1."""
    while True:
        try:
            factory, args, count, errstate = pickle.load(tasks)
        except EOFError:
            return
        with np.errstate(**errstate):
            odd = _run_shells(factory(*args), range(1, count, 2))[0]
        pickle.dump(odd, results, pickle.HIGHEST_PROTOCOL)
        results.flush()


def _start_worker() -> _Worker | None:
    """Fork the shell worker, pinned to the allowed CPUs other than the one
    this process runs on and holding no file of this process but its pipes
    (and standard streams); None if the fork fails."""
    global _worker
    others = os.sched_getaffinity(0) - {_current_cpu()}
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_read, task_write, result_read, result_write):
            os.close(fd)
        return None
    if pid == 0:  # the worker
        try:
            # Hold none of the caller's files (a pipe it closes must reach
            # end of file), and finalize none of its garbage.
            gc.freeze()
            low, high = sorted((task_read, result_write))
            os.closerange(3, low)
            os.closerange(low + 1, high)
            os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            try:
                os.sched_setaffinity(0, others)
            except OSError:
                pass
            with open(task_read, "rb") as tasks, open(result_write, "wb") as results:
                _serve(tasks, results)
        finally:
            os._exit(0)
    os.close(task_read)
    os.close(result_write)
    _worker = _Worker(pid, open(task_write, "wb"), open(result_read, "rb"))
    return _worker


def _forget_worker() -> None:
    """Close this process's ends of the worker's pipes and forget it.  In a
    forked child (`os.register_at_fork`) the worker is the parent's, which
    the child neither uses nor keeps from its end of file."""
    global _worker
    worker, _worker = _worker, None
    for pipe in (worker.tasks, worker.results) if worker else ():
        try:
            pipe.close()
        except OSError:  # a task left in the buffer by a dead worker
            pass


def _stop_worker() -> None:
    """Kill and reap this process's shell worker, if it has one."""
    worker = _worker
    _forget_worker()
    if worker is not None and worker.owner == os.getpid():
        try:
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):  # absent where there is no os.fork
    os.register_at_fork(after_in_child=_forget_worker)


def _task(factory, args: tuple, count: int) -> bytes | None:
    """The pickled task of a split, or None where the arguments do not
    pickle."""
    try:
        return pickle.dumps((factory, args, count, np.geterr()), pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return None


def _reply(worker: _Worker) -> list | None:
    """The worker's columns, or None if it died."""
    try:
        return pickle.load(worker.results)
    except (EOFError, pickle.UnpicklingError):
        return None


def _each_shell(factory, args: tuple, count: int, values: int,
                splittable: bool = True) -> tuple[list, int]:
    """The columns column(j) of the shells j < count, column = factory(*args),
    with the error of the serial loop in ascending j, and the processes that
    made them (1 or 2).

    One rule decides the split.  A `splittable` loop of two shells or more,
    in a process that runs one Python thread and may run on two CPUs or more
    (`os.sched_getaffinity`), splits its shells with this process's shell
    worker if the worker runs, or else once the `values` (cells or terms x
    shells x samples) of such loops run without a worker, this one included,
    reach FORK_VALUES: that loop forks the worker, so a short command never
    pays the fork.  Beside another thread the loop is serial: a fork copies
    only the calling thread, so a lock another thread holds would stay held
    in the worker, and two threads would share its pipes.

    The worker is pinned to the allowed CPUs other than the one this process
    runs on (unpinned, the worker and its caller kept landing on one CPU);
    it stays for the life of the process and takes one task at a time over
    a pipe: the factory, a module-level function, with its pickled arguments
    and numpy's error state.  The worker builds its own column and returns
    the columns of the odd shells up to its first failure; this process runs
    the even shells meanwhile, then the odd shells from the worker's failure
    on itself, up to its own first failure, so the first failing shell
    raises here with the serial loop's type and text.  A split costs a pipe
    round trip and a few pickles, about 0.3 ms; only the first pays the
    fork.

    The worker exits at the end of file of its task pipe, so with this
    process, even one killed by SIGKILL; an `atexit` hook kills and reaps
    it; an exception or interrupt while a task is out kills and reaps it,
    and the next split forks a new one; a worker that dies counts as failing
    at shell 1.  A later fork of this process closes its copies of the
    worker's pipes (`_forget_worker`), and the owner pid keeps a fork that
    bypassed that hook from using them.  Arguments that do not pickle, or a
    failed fork, run the serial loop.

    The worker runs the code and module state it forked with: the factory
    and any function among its arguments are pickled by name and resolved
    there.  So only the package's own code goes to it (the integrands of
    `function_shells` are checked by `_library_integrand`), and a process
    that patches the package after the worker was forked must call
    `_stop_worker()` for the next split to see the patch.
    """
    global _unsplit_values
    column = factory(*args)
    if _worker is not None and _worker.owner != os.getpid():
        _forget_worker()  # a fork that bypassed `_forget_worker`
    splits = (splittable and count >= 2 and threading.active_count() == 1
              and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)
    if splits and _worker is None:
        _unsplit_values += values
        splits = _unsplit_values >= FORK_VALUES
    task = _task(factory, args, count) if splits else None
    worker = (_worker or _start_worker()) if task else None
    if worker is None:
        return [column(j) for j in range(count)], 1
    try:
        try:
            worker.tasks.write(task)
            worker.tasks.flush()
        except BrokenPipeError:  # the worker died after its last task
            _stop_worker()
        even, stop, error = _run_shells(column, range(0, count, 2))
        reply = _reply(worker) if _worker is worker else None
    except BaseException:
        _stop_worker()
        raise
    if reply is None:
        _stop_worker()
    odd = reply or []
    odd += [column(j) for j in range(1 + 2 * len(odd), count if stop is None else stop, 2)]
    if error is not None:
        raise error
    return [(odd if j % 2 else even)[j // 2] for j in range(count)], 1 if reply is None else 2


def _sweep_column(params, region, samples, seed, shells, masses, P, Q, tilts):
    """Column factory of `distortion_sweep`: column(j) is the log shell j of
    every cell, from one draw of the substream (seed, k, region, "dist")."""
    piece = piece_of_region(region)
    tilted = region is RegionLabel.RegionE

    def column(j):
        sh, (log_measure, log_proposal) = shells[j], masses[j]
        rng = derive_rng(seed, sh.k, region, salt="dist")
        if tilted:
            draw = draw_scale(params, region, sh, samples, rng,
                              log_measure=log_measure, log_proposal=log_proposal)
        else:
            draw = sample_profile(params, region, sh, samples, rng,
                                  log_measure=log_measure, log_proposal=log_proposal)
            log_w = draw.log_weight
            log_op, log_det = reflections.profile_log_jet(piece, params, draw.t, draw.r)
        out = np.empty(len(P))
        rows = max(1, BLOCK_VALUES // draw.count)
        scratch = np.empty((2, min(rows, len(P)), draw.count))
        for lo in range(0, len(P), rows):
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
            out[block] = _log_shell(draw.log_measure, L, region, sh)
        return out

    return column


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

    A call of two shells or more splits its shells by the rule of
    `_each_shell` (one thread, two allowed CPUs, and the shell worker
    running or forked once this process's loops reach FORK_VALUES values of
    cells x shells x samples): the worker computes the odd shells and this
    process the even ones.  The split is bit for bit: each shell is drawn
    from its own substream and its column is computed by the same code
    (`_sweep_column`) from the same inputs as in the serial loop, and the
    worker's columns come back pickled, float64 for float64.  The first
    failing shell raises the serial loop's error.  Any other call runs the
    serial loop.  Each shell sum records the `processes` that computed it.
    """
    cells = list(cells)
    for p, q in cells:
        _check_pq(p, q)
    if region not in COLLAR_REGIONS:
        raise ValueError(f"distortion integral is defined on A..E, not {region.value}")
    if chart_of_region(region) is not chart:
        raise ValueError(f"{region.value} is not a piece of chart {chart.value}")
    P = np.array([[p * q / (p - q)] for p, q in cells])
    Q = np.array([[q / (p - q)] for p, q in cells])
    tilts = np.array([[_distortion_tilt(region, p, q, params.s)] for p, q in cells])
    args = (params, region, samples_per_shell, seed, shells,
            _shell_masses(params, region, shells), P, Q, tilts)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        columns, processes = _each_shell(_sweep_column, args, len(shells),
                                         len(cells) * len(shells) * samples_per_shell)
    log_shells = np.empty((len(cells), len(shells)))
    log_shells.T[...] = columns
    ks = [sh.k for sh in shells]
    return [ShellSum(ks, row, processes) for row in log_shells]


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


def _norm_column(params, region, samples, seed, shells, masses, terms, salt):
    """Column factory of `function_shells`: column(j) is the `shell_estimate`
    of shell j."""

    def column(j):
        sh = shells[j]
        return shell_estimate(params, region, sh, terms, samples, (seed, sh.k, salt), *masses[j])

    return column


def _library_integrand(integrand) -> bool:
    """Whether the shell worker may run an integrand: a `functools.partial`
    of a function of this package bound to numbers, strings and objects of
    the package's classes.  The worker resolves a function by its name in
    the state it forked with, so an integrand of other code (which may have
    been redefined since) runs here."""
    def ours(obj):
        return getattr(obj, "__module__", "").startswith(f"{__package__}.")

    return type(integrand) is partial and ours(integrand.func) and all(
        type(a) in (bool, int, float, str) or isinstance(a, np.generic) or ours(type(a))
        for a in (*integrand.args, *integrand.keywords.values()))


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
    Within a shell, a radial band is formed only when an integrand reads r.
    The shells split by the rule of `_each_shell`, counting terms x shells x
    samples values, bit for bit and with the serial first error, as
    `distortion_sweep` does, if every integrand is the package's own
    (`_library_integrand`): the integrands then travel pickled, so the
    library's are module-level functions bound by `functools.partial`.
    Other integrands run serially."""
    args = (params, region, samples_per_shell, seed, shells,
            _shell_masses(params, region, shells), terms, salt)
    columns, processes = _each_shell(
        _norm_column, args, len(shells), len(terms) * len(shells) * samples_per_shell,
        all(_library_integrand(integrand) for integrand, _ in terms))
    ks = [sh.k for sh in shells]
    return [ShellSum(ks, row, processes) for row in zip(*columns)]


def _gradient_power(u, p, prof):
    """p log|u'(t)|: the seminorm integrand, read from `u.log_jet_t`."""
    return p * u.log_jet_t(prof.t)[1]


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
    return function_shells(params, region, shells, [(partial(_gradient_power, u, p), 0.0)],
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
