"""Per-layer spans and counters for the traced run.

The tracer replaces each public library function at every module attribute
that holds it (the library imports samplers by name into `sobolev`,
`extension` and `checks`), so calls the library makes internally are seen as
well as the benchmark's own.  A span records its duration and the part of it
covered by nested traced spans; self time is the difference.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

TRACED = {
    "geometry": ("sample_profile", "derive_rng", "random_directions", "sample_region",
                 "classify"),
    "reflections": ("profile_jet", "piece_profile", "apply", "differential",
                    "differential_fd", "invert"),
    "sobolev": ("shell_estimate", "distortion_integral"),
    "extension": ("extension_norm_experiment", "extend_eval", "extend_gradient", "cutoff_psi"),
    "cli": ("main",),
}


def _profile_points(args, kwargs, result):
    return np.broadcast(args[2], args[3]).size


def _count_arg(args, kwargs, result):
    return args[0] if args else kwargs["count"]


# Work per call, in points, for the functions that take batches.
POINTS = {
    "geometry.sample_profile": lambda args, kwargs, result: result.count,
    "geometry.random_directions": _count_arg,
    "geometry.sample_region": lambda args, kwargs, result: len(result),
    "reflections.profile_jet": _profile_points,
    "reflections.piece_profile": _profile_points,
}


def _is_resample(args, kwargs, result):
    """`shell_estimate` redraws a shell under the salt '<salt>#<attempt>'."""
    return "#" in str(kwargs.get("salt", args[3] if len(args) > 3 else ""))


MARKS = {"geometry.derive_rng": _is_resample}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    points: int = 0
    marks: int = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    def __init__(self, check_names):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._targets = {**TRACED, "checks": tuple(check_names)}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "cuspreflect" or name.startswith("cuspreflect.")]
        for modname, names in self._targets.items():
            owner = sys.modules[f"cuspreflect.{modname}"]
            for name in names:
                fn = getattr(owner, name)
                wrapper = self._wrap(f"{modname}.{name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        points = POINTS.get(key)
        mark = MARKS.get(key)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.child_s += frame[0]
            if points is not None:
                stat.points += int(points(args, kwargs, result))
            if mark is not None and mark(args, kwargs, result):
                stat.marks += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(tracer: Tracer, passes: int, check_names) -> dict[str, tuple[float, str]]:
    """Per-pass counts and per-call or per-point times; a layer the workload
    never reaches reads 0."""
    st = tracer.stats

    def per(key, attr, scale):
        s = st[key]
        denom = s.points if attr == "points" else s.calls
        return s.total_s * scale / denom if denom else 0.0

    m = {
        "geometry.sample_profile.calls": (st["geometry.sample_profile"].calls / passes, "count"),
        "geometry.sample_profile.points": (st["geometry.sample_profile"].points / passes, "count"),
        "geometry.sample_profile.ns_per_point": (per("geometry.sample_profile", "points", 1e9), "ns"),
        "geometry.derive_rng.calls": (st["geometry.derive_rng"].calls / passes, "count"),
        "geometry.derive_rng.us_per_call": (per("geometry.derive_rng", "calls", 1e6), "us"),
        "reflections.profile_jet.points": (st["reflections.profile_jet"].points / passes, "count"),
        "reflections.profile_jet.ns_per_point": (per("reflections.profile_jet", "points", 1e9), "ns"),
        "sobolev.shell_estimate.calls": (st["sobolev.shell_estimate"].calls / passes, "count"),
        "sobolev.shell_estimate.self_us_per_call": (
            st["sobolev.shell_estimate"].self_s * 1e6 / st["sobolev.shell_estimate"].calls
            if st["sobolev.shell_estimate"].calls else 0.0, "us"),
        "sobolev.shell_estimate.resamples": (st["geometry.derive_rng"].marks / passes, "count"),
        "sobolev.distortion_integral.calls": (st["sobolev.distortion_integral"].calls / passes, "count"),
        "reflections.piece_profile.ns_per_point": (per("reflections.piece_profile", "points", 1e9), "ns"),
        "geometry.random_directions.ns_per_point": (per("geometry.random_directions", "points", 1e9), "ns"),
        "extension.extension_norm_experiment.s_per_call": (
            per("extension.extension_norm_experiment", "calls", 1.0), "s"),
        "geometry.classify.us_per_call": (per("geometry.classify", "calls", 1e6), "us"),
        "geometry.sample_region.us_per_point": (per("geometry.sample_region", "points", 1e6), "us"),
        "cli.main.self_s": (st["cli.main"].self_s / passes, "s"),
    }
    for name in ("apply", "differential", "differential_fd", "invert"):
        m[f"reflections.{name}.us_per_call"] = (per(f"reflections.{name}", "calls", 1e6), "us")
    for name in ("extend_eval", "extend_gradient", "cutoff_psi"):
        m[f"extension.{name}.us_per_call"] = (per(f"extension.{name}", "calls", 1e6), "us")
    for name in check_names:
        m[f"checks.{name}.s"] = (per(f"checks.{name}", "calls", 1.0), "s")
    return m
