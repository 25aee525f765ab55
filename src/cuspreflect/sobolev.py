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
`distortion_sweeps` estimates the shells by stratified Monte Carlo in
profile coordinates for many (p, q) cells and regions at once and
`convergence_verdict` classifies the tail ratios.  The samples and the
chart jet of a shell depend only on (seed, k, region), so a sweep draws
each (region, shell) once; only a radial tilt, which depends on (p, q),
reshapes the radii, block of cells by block of cells.  A region's exponents
and tilt are read from its one row of `_EXPONENTS` (a new region is a new
row).  `distortion_integral` is its one-cell case.

The norm terms of a test function and of its extension run through
`function_shell_loops`, whose primitive `shell_estimate` reduces every term
of a block of a region's shells in one pass, each shell drawn once from its
substream (seed, k, region, salt).  Both plural forms hand their loops, one per region, to one
assembly (`_shell_sums`): one `geometry._log_shell_masses` pass per region
gives the log measures of its shells (and regions C's and E's proposal
masses), `_each_shell` runs the shells, and each row of the columns
becomes a `ShellSum`.  Shells span hundreds of binary orders, so both
paths work in logs from the measure to the verdict: log measures and
weights, integrands that return logs, one reduce `_log_shell` with one nan
rule (NonFiniteIntegrandError), and `ShellSum`s of log contributions,
whose log ratios the verdict reads.

Since every shell has its own substream, `_each_shell` splits the shells
of all the loops of a call, run as one loop, over two processes by one
rule, so a `sweep` or `extendnorm` command makes one split: a shell worker,
forked once the process's shell loops have done enough work to repay the
fork and kept until the process ends, computes the odd shells with the
serial code, and this process the even ones, each in its own blocks.  The
split gives the serial bits and the serial first error.
"""

from __future__ import annotations

import atexit
import gc
import io
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from functools import partial
from types import BuiltinFunctionType, FunctionType

import numpy as np

from . import reflections
from .errors import WindowError
from .geometry import (
    ChartId,
    CuspParams,
    RegionLabel,
    Shell,
    _grid_shape,
    _log_shell_masses,
    chart_of_region,
    check_scheme,
    derive_rng,
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
# Values of one block: cells x samples of a `distortion_sweeps` reduce,
# terms x shells x samples of a `shell_estimate`.  Larger blocks raise peak
# memory, and past it each block re-faults its pages (README.md).
BLOCK_VALUES = 8192
# Values (cells or terms x shells x samples) of the shell loops that could
# split, the current one included, from which a process forks its shell
# worker (`_each_shell`): in a fresh process the first split of a small sweep
# costs about 8 ms more than its serial loop (2 ms of it the fork itself, the
# rest copy-on-write faults) and the process 12-18 ms more with the reaping
# at exit, which only a few hundred ms of shell work repays.  Measured, see
# README.md.
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


def check_shell_count(count: int):
    """ValueError unless a shell range of `count` shells is long enough for
    `convergence_verdict`, so that a command refuses it before any draw."""
    if count < MIN_SHELLS:
        raise ValueError(f"need at least {MIN_SHELLS} shells, got {count}")


def _check_pq(p: float, q: float):
    if not (1.0 <= q < p < math.inf):
        raise WindowError(f"exponents must satisfy 1 <= q < p < inf, got p={p}, q={q}")


# The exponent table: each collar region's row (e0, c_Q, c_P) at (n, s).  In
# the region's scale variable the shell volume has the power e0 and |J| the
# power c_Q; opnorm has the radial singularity r^(-c_P/s), whose power
# r^-(c_P pq/(s(p-q))) of the distortion is the sweep's radial tilt: sampling
# the radii by it removes the variance of the radially unbounded factor.
_EXPONENTS = {
    **dict.fromkeys((RegionLabel.RegionA, RegionLabel.RegionB, RegionLabel.RegionC),
                    lambda n, s: (n - 1, (n - 1) * (s - 1.0), 0.0)),
    RegionLabel.RegionD: lambda n, s: ((n - 1) * s, 0.0, 0.0),
    RegionLabel.RegionE: lambda n, s: ((n - 1) * s, 0.0, s - 1.0),
}


def predicted_shell_exponent(region: RegionLabel, p: float, q: float, n: int, s: float) -> float:
    """Analytic power e = e0 - (c_Q + c_P p) q/(p-q) of the region's row of
    `_EXPONENTS`, with shell-k distortion mass ~ 2^(-k(e+1)).  Convergence
    of the region integral <=> e > -1."""
    _check_pq(p, q)
    _check_params(n, s)
    if (row := _EXPONENTS.get(region)) is None:
        raise ValueError(f"no shell exponent for region {region.value}")
    e0, c_Q, c_P = row(n, s)
    return e0 - (c_Q + c_P * p) * q / (p - q)


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
    check_shell_count(len(shell_sum.ks))
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

def shell_estimate(params: CuspParams, region: RegionLabel, shells, terms, samples: int,
                   seed: int, salt: str, masses=None) -> list[list[float]]:
    """Stratified log estimates of the terms of a block of shell integrals,
    one list per shell of `shells`, each shell drawn once from its substream
    (seed, k, region, salt) for all the terms.  The block is one pass: one
    `sample_profile` of its shells, whose arrays hold a row per shell, then
    per term one integrand call and one `_log_shell`; each shell's list
    equals its one-shell block's bit for bit (see `sample_profile`).

    `terms` lists (integrand, radial_tilt) pairs.  `integrand(prof)` returns
    log values of the shape of `prof.t` on the sample tilted by its
    `profile(radial_tilt)`, or a stack of m integrands, each one estimate;
    each term tilts the shared draw itself.  Their result is a new float
    array, which the estimate overwrites.  An untilted sample draws its radii
    on the first read of `prof.r`, so an integrand that reads t alone
    neither forms the radial band nor draws a radius.  A zero log weight
    (cones, bands, the slab) is not added.  A shell's list holds the
    `_log_shell` of each row, in term order: a nan raises
    NonFiniteIntegrandError, while inf values are kept, since genuinely
    divergent exponents overflow by design.  `masses` holds each shell's
    entries of `geometry._log_shell_masses`, which `_shell_sums` makes for
    all of a region's shells at once.
    """
    rngs = [derive_rng(seed, sh.k, region, salt=salt) for sh in shells]
    estimates = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        draw = sample_profile(params, region, shells, samples, rngs, masses=masses)
        for integrand, tilt in terms:
            prof = draw.profile(tilt)
            L = integrand(prof)
            if isinstance(prof.log_weight, np.ndarray):  # a scalar log weight is 0.0
                L += prof.log_weight
            L = L.reshape(-1, len(shells), prof.t.shape[-1])
            estimates.append(_log_shell(prof.log_measure, L, region, shells))
    return np.concatenate(estimates).T.tolist()


class NonFiniteIntegrandError(RuntimeError):
    """A shell's integrand values hold a nan."""

    def __init__(self, region, shell):
        super().__init__(f"non-finite integrand values on {region.value}, shell {shell.k}")


def _log_shell(log_measure, L: np.ndarray, region: RegionLabel, shells) -> np.ndarray:
    """log(measure * mean(exp(L), axis=-1)) row by row, for L of shape (...,
    J, N) on the J `shells` of log measures `log_measure` (a float or J), or
    NonFiniteIntegrandError naming the first shell with a nan in its rows.
    Each row is shifted by its max so that no exp over- or underflows; a row
    with an infinite max is not shifted, so an infinite L gives an infinite
    shell and an all -inf row an empty one.  A row reduces as a one-row
    array does.  L is the caller's scratch, shifted and exponentiated in
    place."""
    top = L.max(axis=-1)  # nan where a row holds a nan
    if np.isnan(top).any():
        nan = np.isnan(top).reshape(-1, len(shells)).any(axis=0)
        raise NonFiniteIntegrandError(region, shells[int(np.argmax(nan))])
    shift = np.where(np.isfinite(top), top, 0.0)
    L -= shift[..., None]
    return log_measure + shift + np.log(np.exp(L, out=L).sum(axis=-1) / L.shape[-1])


class _Worker:
    """The shell worker: its pid, the files of its task and result pipes,
    and the pid of the process that forked it."""

    def __init__(self, pid: int, tasks, results):
        self.pid, self.tasks, self.results, self.owner = pid, tasks, results, os.getpid()


_worker: _Worker | None = None
# Values of the shell loops that could split while this process had no
# worker (`_each_shell`).
_unsplit_values = 0


def _run_shells(blocks, js) -> tuple[list, int | None, Exception | None]:
    """The columns of the shells js, block by block of `blocks(js)`, up to
    the first shell that raises: the columns before it, that j (or None) and
    its error.  A block of several shells that raises is rerun shell by
    shell, so that the first failing shell raises its own error."""
    done = []
    for block, part in blocks(js):
        try:
            done += block([i for _, i in part])
            continue
        except Exception as exc:
            if len(part) == 1:
                return done, part[0][0], exc
        for j, i in part:
            try:
                done += block([i])
            except Exception as exc:
                return done, j, exc
    return done, None, None


def _serve(tasks, results) -> None:
    """The worker's loop: for each task (loops, numpy error state) the
    columns of the odd shells of the loops' `_joined_column` up to the first
    that raises, until the end of file of the task pipe.  Anything else that
    raises ends the worker, which the caller reads as a failure at shell 1."""
    while True:
        try:
            loops, errstate = pickle.load(tasks)
        except EOFError:
            return
        with np.errstate(**errstate):
            blocks, count = _joined_column(loops)
            odd = _run_shells(blocks, range(1, count, 2))[0]
        pickle.dump(odd, results, pickle.HIGHEST_PROTOCOL)
        results.flush()


def _start_worker() -> _Worker | None:
    """Fork the shell worker, holding no file of this process but its pipes
    (and standard streams); None if the fork fails."""
    global _worker
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


class _PackagePickler(pickle.Pickler):
    """Refuses (PicklingError) every class and function, however deep, whose
    module root is not in `roots`: the package, numpy, the standard library."""

    roots = frozenset({__package__, "numpy", *sys.stdlib_module_names})

    def reducer_override(self, obj):
        named = obj if isinstance(obj, (type, FunctionType, BuiltinFunctionType)) else type(obj)
        if str(getattr(named, "__module__", None)).partition(".")[0] not in self.roots:
            raise pickle.PicklingError(f"{named!r} may not go to the shell worker")
        return NotImplemented


def _task(loops: tuple) -> bytes | None:
    """The pickled loops and numpy error state of a split, or None where
    they do not pickle or `_PackagePickler` refuses them."""
    task = io.BytesIO()
    try:
        _PackagePickler(task, pickle.HIGHEST_PROTOCOL).dump((loops, np.geterr()))
    except (pickle.PicklingError, AttributeError, TypeError):
        return None
    return task.getvalue()


def _reply(worker: _Worker) -> list | None:
    """The worker's columns, or None if it died."""
    try:
        return pickle.load(worker.results)
    except (EOFError, pickle.UnpicklingError):
        return None


def _joined_column(loops):
    """The blocks of the (factory, args, count) `loops` run as one loop, and
    its shell count.  Shell j is shell i of one loop, the loops' shells taken
    one loop after another; factory(*args) gives the loop's (block, rows):
    block(shells i) makes their columns in one pass, at most `rows` of them.
    blocks(js) splits js into runs of one loop's shells, at most its `rows`,
    as (block, [(j, i), ...])."""
    made = [(*factory(*args), count) for factory, args, count in loops]
    index = [(block, rows, i) for block, rows, count in made for i in range(count)]

    def blocks(js):
        out = []
        for j in js:
            block, rows, i = index[j]
            if out and out[-1][0] is block and len(out[-1][1]) < rows:
                out[-1][1].append((j, i))
            else:
                out.append((block, [(j, i)]))
        return out

    return blocks, len(index)


def _each_shell(loops: tuple, values: int) -> tuple[list[list], int]:
    """The columns of the shells j < count of each (factory, args, count)
    loop of `loops`, made in blocks of factory(*args), one list per loop,
    with the error of the serial loop over the loops in turn and in
    ascending j, and the processes that made them (1 or 2).  The loops run
    as one loop (`_joined_column`), so a call costs one worker round trip
    and one wait at its end however many loops it has.

    One rule decides the split.  A loop of two shells or more, in a process
    that runs one Python thread and may run on two CPUs or more
    (`os.sched_getaffinity`), splits its shells with this process's shell
    worker if the worker runs, or else once the `values` (cells or terms x
    shells x samples, over all the loops) of such loops run without a worker,
    this one included, reach FORK_VALUES: that loop forks the worker, so a
    short command never pays the fork.  Beside another thread the loop is
    serial: a fork copies only the calling thread, so a lock another thread
    holds would stay held in the worker, and two threads would share its pipes.

    The worker stays for the life of the process and takes one task
    (`_task`) at a time over a pipe.  It returns the columns of the odd
    shells up to its first failure; this process runs the even shells
    meanwhile, then the odd ones from the worker's failure on, up to its own
    first failure, each side in blocks of its own shells, so the first
    failing shell raises here with the serial loop's type and text.  A split
    costs a pipe round trip and a few pickles, about 0.3 ms; only the first
    pays the fork, and a failed fork runs the serial loop.  The worker exits
    at the end of file of its task pipe, so with this process, even one
    killed by SIGKILL; an `atexit` hook kills and reaps it, as does an
    exception or interrupt while a task is out (the next split forks a new
    one); a worker that dies counts as failing at shell 1.  A later fork of
    this process closes its copies of the worker's pipes (`_forget_worker`),
    and the owner pid keeps a fork that bypassed that hook from using them.

    The worker resolves each class and function of a task by name in the
    state it forked with, so one gate, `_task`, decides what it runs: a task
    that does not pickle, or holds code of other roots than the package,
    numpy and the standard library, runs serially.  After patching the
    package, call `_stop_worker()` so that the next split sees the patch.
    """
    global _unsplit_values
    blocks, count = _joined_column(loops)
    if _worker is not None and _worker.owner != os.getpid():
        _forget_worker()  # a fork that bypassed `_forget_worker`
    splits = (count >= 2 and threading.active_count() == 1
              and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)
    if splits and _worker is None:
        _unsplit_values += values
        splits = _unsplit_values >= FORK_VALUES
    task = _task(loops) if splits else None
    worker = (_worker or _start_worker()) if task else None
    reply = None
    if worker is None:
        columns, _, error = _run_shells(blocks, range(count))
    else:
        try:
            try:
                worker.tasks.write(task)
                worker.tasks.flush()
            except BrokenPipeError:  # the worker died after its last task
                _stop_worker()
            even, stop, error = _run_shells(blocks, range(0, count, 2))
            reply = _reply(worker) if _worker is worker else None
        except BaseException:
            _stop_worker()
            raise
        if reply is None:
            _stop_worker()
        odd = reply or []
        more, _, odd_error = _run_shells(blocks, range(1 + 2 * len(odd),
                                                       count if stop is None else stop, 2))
        error = error if odd_error is None else odd_error  # odd shells come before `stop`
        odd += more
        columns = [column for pair in zip(even, odd) for column in pair] + even[len(odd):]
    if error is not None:
        raise error
    ordered = iter(columns)
    return [[next(ordered) for _ in range(n)] for *_, n in loops], 1 if reply is None else 2


def _shell_sums(params: CuspParams, loops, shells, samples: int, seed: int,
                width: int) -> list[list[ShellSum]]:
    """The shell sums of each (factory, region, extra args) loop of `loops`,
    one per row of the columns of factory(params, region, samples, seed,
    shells, masses, *extra), with `masses` the (log measure, log proposal
    mass or None) of each shell from one `geometry._log_shell_masses` pass.
    All the loops are one `_each_shell` loop of `width` (cells or terms) x
    shells x samples values.  An empty `shells` raises ValueError before any
    draw, and a `width` of 0 no draw."""
    if not shells:
        raise ValueError("the shell list is empty: a shell sum needs at least one shell")
    if not width:
        return [[] for _ in loops]
    runs = []
    for factory, region, extra in loops:
        measures, proposals = _log_shell_masses(params, region, shells)
        masses = list(zip(measures.tolist(), [None] * len(shells) if proposals is None
                          else proposals.tolist()))
        runs.append((factory, (params, region, samples, seed, shells, masses, *extra),
                     len(shells)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        by_loop, processes = _each_shell(tuple(runs), width * len(shells) * samples)
    ks = [sh.k for sh in shells]
    return [[ShellSum(ks, row, processes) for row in np.array(columns, dtype=float).T.copy()]
            for columns in by_loop]


def _sweep_column(params, region, samples, seed, shells, masses, P, Q, tilts):
    """Block factory of a region of `distortion_sweeps`, a shell per block:
    column(j), the log shell j of every cell, from one draw of the substream
    (seed, k, region, "dist"); untilted, the cells share one chart jet."""
    tilted = tilts.any()

    def column(j):
        sh, (log_measure, log_proposal) = shells[j], masses[j]
        rng = derive_rng(seed, sh.k, region, salt="dist")
        draw = sample_profile(params, region, [sh], samples, [rng],
                              masses=[(log_measure, log_proposal)])
        if not tilted:
            log_w = draw.log_weight
            log_op, log_det = reflections.profile_log_jet(region, params, draw.t, draw.r)
        out = np.empty(len(P))
        rows = max(1, BLOCK_VALUES // draw.count)
        scratch = np.empty((2, min(rows, len(P)), draw.count))
        for lo in range(0, len(P), rows):
            block = slice(lo, lo + rows)
            if tilted:
                prof = draw.profile(tilts[block])
                log_w = prof.log_weight
                log_op, log_det = reflections.profile_log_jet(region, params, prof.t, prof.r)
            L, Q_log_det = scratch[:, :len(P[block])]
            np.multiply(P[block], log_op, out=L)
            if isinstance(log_w, np.ndarray):  # a scalar log weight is 0.0
                L += log_w
            L -= np.multiply(Q[block], log_det, out=Q_log_det)
            out[block] = _log_shell(draw.log_measure, L[:, None], region, [sh])[:, 0]
        return out

    return (lambda block: [column(j) for j in block]), 1


def distortion_sweeps(
    params: CuspParams,
    chart: ChartId,
    regions,
    cells,
    shells,
    samples_per_shell: int = 4096,
    seed: int = 42,
) -> list[list[ShellSum]]:
    """Shellwise stratified estimates of the distortion integral
    opnorm(DR)^(pq/(p-q)) / |J|^(q/(p-q)) over each of the chart's
    `regions`, one list per region of one shell sum per (p, q) cell, in cell
    order.

    Each shell is drawn once from the substream (seed, k, region, "dist").
    The integrand is reduced in log space: a block of cells forms
    L = log w + P log opnorm - Q log|det| by broadcasting its exponent
    columns (P, Q) against the shared log jet, and each cell's log shell is
    log measure + max L + log mean exp(L - max L).  On region E each
    block's `ProfileSample.profile` of the shared draw takes its own radii
    with its column of radial tilts.  Elementwise broadcasting makes every
    cell's contributions equal a one-cell run's bit for bit, except where a
    cell's radial exponent in `geometry._power_icdf` is one of numpy's
    special-cased powers (-1, 0.5, 2), which round differently in a one-cell
    column than in a longer one: such a cell agrees to a few ulps (3.6e-15 in a log shell of
    the (3, 2) cell on region E at n = 3, s = 2).  A nan in L raises
    NonFiniteIntegrandError; there is no redraw.

    The shells of all the regions, region after region, are one loop of
    `_shell_sums`, which `_each_shell` splits by its rule.  The split is bit
    for bit: each shell is drawn from its own substream and its column is
    computed by the same code (`_sweep_column`) from the same inputs as in
    the serial loop, and the worker's columns come back pickled, float64
    for float64.  The first failing shell, in the order of the regions,
    raises the serial loop's error.  Each shell sum records the `processes`
    that computed it.
    """
    cells = list(cells)
    for p, q in cells:
        _check_pq(p, q)
    regions = list(regions)
    for region in regions:
        if region not in _EXPONENTS:
            raise ValueError(f"distortion integral is defined on A..E, not {region.value}")
        if chart_of_region(region) is not chart:
            raise ValueError(f"{region.value} is not a piece of chart {chart.value}")
    P = np.array([[p * q / (p - q)] for p, q in cells])
    Q = np.array([[q / (p - q)] for p, q in cells])
    c_Ps = [_EXPONENTS[region](params.n, params.s)[2] for region in regions]
    loops = [(_sweep_column, region,
              (P, Q, np.array([[c_P * p * q / (params.s * (p - q))] for p, q in cells])))
             for region, c_P in zip(regions, c_Ps)]
    return _shell_sums(params, loops, shells, samples_per_shell, seed, len(loops) * len(cells))


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
    opnorm(DR)^(pq/(p-q)) / |J|^(q/(p-q)) over the region: the one-region,
    one-cell case of `distortion_sweeps`."""
    return distortion_sweeps(params, chart, [region], [(p, q)], shells, samples_per_shell,
                             seed)[0][0]


def _norm_column(params, region, samples, seed, shells, masses, terms, salt):
    """Block factory of a loop of `function_shell_loops`: a block is one
    `shell_estimate` of its shells, at most BLOCK_VALUES values (terms x
    shells x samples)."""
    return (lambda block: shell_estimate(params, region, [shells[i] for i in block], terms,
                                         samples, seed, salt, [masses[i] for i in block]),
            max(1, BLOCK_VALUES // (len(terms) * math.prod(_grid_shape(samples)))))


def function_shell_loops(
    params: CuspParams,
    loops,
    shells,
    samples_per_shell: int,
    seed: int,
) -> list[list[ShellSum]]:
    """Shell sums of the (integrand, radial_tilt) terms of each (region,
    terms, salt) of `loops` over its region, one list per loop of one sum
    per estimate row of `shell_estimate`; each shell is drawn once, from
    the substream (seed, k, region, salt), for all the loop's terms.

    Within a shell, a radial band is formed only when an integrand reads r.
    The shells of all the loops, loop after loop, are one loop of
    `_shell_sums`, which splits as `distortion_sweeps` does, counting terms
    x shells x samples values.  The integrands then travel pickled, so the
    library's are module-level functions bound by `functools.partial`; a
    loop whose integrands do not pickle or hold other code than the
    package, numpy and the standard library runs serially (`_task`)."""
    runs = [(_norm_column, region, (terms, salt)) for region, terms, salt in loops]
    return _shell_sums(params, runs, shells, samples_per_shell, seed,
                       sum(len(terms) for _, terms, _ in loops))


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
    terms = [(partial(_gradient_power, u, p), 0.0)]
    return function_shell_loops(params, [(region, terms, "semi")], shells, samples_per_shell,
                                seed)[0][0]


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
    s = params.s
    rows = []
    for sh in shells:
        rng = derive_rng(seed, sh.k, region, salt="scal")
        prof = sample_profile(params, region, [sh], samples_per_shell, [rng])
        log_opnorm, log_absdet = reflections.profile_log_jet(region, params, prof.t, prof.r)
        opnorm = np.exp(log_opnorm)
        # pair |J| with the geometric mean of the *sampled* scale variable
        # (|t|, or the radii that region B's slab fixes), so exact power laws
        # (region A) fit to machine precision
        scale_var = np.abs(prof.t) if prof.fixed_r is None else prof.fixed_r
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
    """Analytic log-log slope c_Q of |J| in the region's scale variable, from
    its row of `_EXPONENTS`."""
    if (row := _EXPONENTS.get(region)) is None:
        raise ValueError(f"no scaling target for {region.value}")
    return row(n, s)[1]


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
