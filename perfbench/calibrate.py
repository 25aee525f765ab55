"""Host-speed reference for the timed metrics.

The host's speed drifts between and within processes by far more than the
bounds of the timed metrics (see README.md).  The benchmark therefore runs
this fixed kernel, which never changes with the program, before and after
every timed call, and scales the call's time by NOMINAL_S over the mean of
those two kernel times: times read as seconds on a host that runs the kernel
in NOMINAL_S.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference host (README.md).
NOMINAL_S = 0.030


def reference_kernel() -> float:
    """Fixed amounts of the three kinds of work the program does: numpy
    calls on tiny arrays (the scalar point API), plain interpreter work, and
    arithmetic on arrays of a few thousand points (the shell quadrature)."""
    acc = 0.0
    v = np.array([0.3, 0.4, 0.5])
    for i in range(1000):
        w = np.concatenate(([0.1 * i], v))
        acc += float(np.linalg.norm(w)) + float(np.max(np.abs(w - 0.2)))
    x = 0
    for j in range(60000):
        x = (x * 31 + j) % 1000003
    rng = np.random.default_rng(12345)
    for _ in range(150):
        a = rng.random(4096) + 0.5
        acc += float(np.mean(np.sqrt(a**1.7 + a * a) / a))
    return acc + x


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed(before_s: float, after_s: float) -> float:
    """Factor turning a time measured between two kernel runs into seconds
    at the nominal host speed."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
