"""Benchmark of `cuspreflect`: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload window_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
run self-tests the benchmark's checkers, times fresh interpreters for
`setup_s`, warms the workload up, then repeats whole passes over the
workload's inputs until `--seconds` have gone by, checking every output.
Times are scaled to a nominal host speed (calibrate.py).  With `--trace 0`
it prints the end-to-end metrics, with `--trace 1` the per-layer metrics of a
traced run.  The last line of standard output is the result.
"""

from __future__ import annotations

import os

# One thread per numpy/BLAS pool, set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import calibrate  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOADS = ("window_sweep", "extension_norms", "point_maps")
# Fresh interpreters timed per run for setup_s.
SETUP_STARTS = 8
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def cold_starts(workload: str, count: int) -> list[dict]:
    """`count` fresh interpreters that import the package and make the
    workload's first call: the wall time of each, the import time it
    reports, and the host-speed factor measured around it."""
    runs = []
    before = calibrate.time_kernel()
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "warmup.py"), workload, str(OUT)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        after = calibrate.time_kernel()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr[-2000:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"wall_s": wall, "speed": calibrate.speed(before, after), **info})
        before = after
    return runs


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)  # failures outside known faults
    changed: set[str] = field(default_factory=set)  # blocks whose output changed


def run_passes(blocks, seconds: float):
    """Whole passes over the blocks until `seconds` have gone by.

    Only the calls into the program are timed; checking their outputs is
    not.  The reference kernel runs before the first block and after every
    block, and each block's time is scaled by the kernel runs on either side
    of it.  Returns the raw and the scaled time of every pass, the raw times
    of each block, and the tally.
    """
    tally = Tally()
    digests: dict[str, bytes] = {}
    block_times: dict[str, list[float]] = {b.name: [] for b in blocks}
    raw_passes, passes = [], []
    before = calibrate.time_kernel()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        raw = scaled = 0.0
        for block in blocks:
            t0 = time.perf_counter()
            result = block.run()
            dt = time.perf_counter() - t0
            after = calibrate.time_kernel()
            raw += dt
            scaled += dt * calibrate.speed(before, after)
            before = after
            block_times[block.name].append(dt)
            ops, failures = block.check(result)
            tally.attempted += ops
            tally.failed += len(failures)
            if failures and not block.known_fault:
                tally.unexpected.extend(failures)
            digest = block.digest(result)
            if digests.setdefault(block.name, digest) != digest:
                tally.changed.add(block.name)
        raw_passes.append(raw)
        passes.append(scaled)
    return raw_passes, passes, block_times, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cuspreflect" / "__init__.py").is_file():
        print(f"error: {SRC}/cuspreflect not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    import selftest

    problems = selftest.run()
    if problems:
        print("error: the benchmark's checkers failed their self-test:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    setups = cold_starts(args.workload, SETUP_STARTS)

    import cuspreflect
    import tracing
    import warmup
    import workloads

    if Path(cuspreflect.__file__).resolve().parent != (SRC / "cuspreflect").resolve():
        print(f"error: imported cuspreflect from {cuspreflect.__file__}", file=sys.stderr)
        return 2

    blocks = workloads.WORKLOADS[args.workload](args.seed, OUT)
    warmup.first_call(args.workload, OUT)
    check_names = [name for name, *_ in workloads.CHECKS]
    tracer = tracing.Tracer(check_names) if args.trace else None
    if tracer:
        tracer.install()
    try:
        raw_passes, passes, block_times, tally = run_passes(blocks, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()

    # Times in seconds at the nominal host speed (calibrate.py).
    wall = statistics.mean(passes)
    setup = statistics.mean(r["wall_s"] * r["speed"] for r in setups)
    print("raw (not speed-scaled): " + json.dumps({
        "pass_s": statistics.mean(raw_passes),
        "setup_s": statistics.mean(r["wall_s"] for r in setups),
        "passes": len(passes)}), file=sys.stderr)
    ops_per_pass = (tally.attempted - tally.failed) / len(passes)  # completed
    for name, times in block_times.items():
        print(f"  {name:40s} median {statistics.median(times):8.4f} s", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {wall:.4f} s per pass at nominal speed, "
          f"{ops_per_pass:g} operations completed per pass", file=sys.stderr)

    if tracer:
        metrics = tracing.layer_metrics(tracer, len(passes), check_names)
        metrics["trace.pass_s"] = (wall, "s")
        metrics["setup.import_s"] = (
            statistics.mean(r["import_s"] * r["speed"] for r in setups), "s")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "ops_per_s": (ops_per_pass / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup, "s"),
        }

    correct = not tally.unexpected and not tally.changed
    for failure in tally.unexpected[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name in sorted(tally.changed):
        print(f"NONDETERMINISTIC output of {name} between passes", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
