"""The three workloads: their inputs, the program calls a pass makes, and the
checks of each call's output.

A workload is a list of blocks.  A block is one call (or one loop of scalar
calls) into `cuspreflect` through the entry point users take, the number of
operations it stands for, and a checker that names the operations whose
output is wrong.  Every pass runs the same blocks on the same inputs, so
`failed` is the same share of `attempted` in every run.

Blocks marked `known_fault` reproduce faults of the program on inputs that do
not depend on the seed; their failures are counted but do not make the run
incorrect.  A failure anywhere else does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import oracles

# Modules are looked up at call time (`cli.main`, `reflections.apply`, ...) so
# that the traced run sees every call through the wrapped attributes.
from cuspreflect import checks, cli, extension, geometry, reflections, sobolev

Check = Callable[[Any], "tuple[int, list[str]]"]


@dataclass
class Block:
    name: str
    run: Callable[[], Any]
    check: Check
    digest: Callable[[Any], bytes]
    known_fault: bool = False


@dataclass
class CliResult:
    rc: int | None
    error: BaseException | None
    csv: bytes = b""


def cli_block(name: str, out_dir: Path, args: list[str], check: Check,
              known_fault: bool = False) -> Block:
    """Block running `cuspreflect <args> --out <csv>` in-process."""
    path = out_dir / f"{name}.csv"

    def run() -> CliResult:
        path.unlink(missing_ok=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([*args, "--out", str(path)])
        except Exception as exc:  # a fault escaping main is an operation result
            return CliResult(None, exc)
        return CliResult(rc, None, path.read_bytes() if path.exists() else b"")

    return Block(name, run, check, lambda res: res.csv, known_fault)


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _one_op(label: str, problems: list[str]) -> tuple[int, list[str]]:
    """A block that is one operation fails once, however many problems."""
    return 1, ([f"{label}: " + "; ".join(problems[:3])] if problems else [])


def _flags(**kw) -> list[str]:
    out = []
    for key, value in kw.items():
        out += [f"--{key.replace('_', '-')}", str(value)]
    return out


# ---------------------------------------------------------------------------
# window_sweep
# ---------------------------------------------------------------------------

# (scheme, n, s, grid, samples): both schemes' acceptance grids at two (n, s),
# one per shell budget.  1024 samples per shell is dominated by the fixed
# cost of each shell estimate, 4096 by the per-point cost.
SWEEP_BLOCKS = (
    ("r1", 3, 2.0, 7, 1024),
    ("r2", 3, 2.0, 7, 1024),
    ("r1", 4, 1.5, 5, 4096),
    ("r2", 4, 1.5, 5, 4096),
)
SWEEP_K = (5, 26)
REGIONS = {"r1": ("RegionA", "RegionB", "RegionC"), "r2": ("RegionD", "RegionE")}

# Fault (a): deep shells underflow |det| to zero on region A, so convergent
# cells read Divergent with partial_sum = inf.
DEEP_SHELL_ARGS = ["sweep", "--scheme", "r1", "--n", "6", "--s", "4", "--p", "30",
                   "--q", "1.5,5", "--k-max", "80", "--seed", "42"]
# Fault (b): InterfaceRetryError escapes `main` on region E.  One cell per
# command, so a failing cell cannot abort passing ones.
RETRY_CELLS = ((5, 3.0, "1.3", "1.25"), (4, 3.0, "2.3", "2.25"), (5, 2.0, "2.19", "2.14"))


def sweep_checker(scheme: str, n: int, s: float, cells, error_exit_ok: bool = False) -> Check:
    """Every (cell, region) row is one operation; a missing row fails.

    With `error_exit_ok`, the documented domain-error exit (code 3, no CSV)
    also passes: it is how a mended fault (b) reports the cell.
    """
    want = [(p, q, region) for p, q in cells for region in REGIONS[scheme]]

    def check(res: CliResult) -> tuple[int, list[str]]:
        if res.error is not None:
            return len(want), [f"{type(res.error).__name__}: {res.error}"] * len(want)
        if error_exit_ok and res.rc == 3 and not res.csv:
            return len(want), []
        rows = _rows(res.csv) if res.rc == 0 else []
        failures = []
        for i, (p, q, region) in enumerate(want):
            if i >= len(rows):
                failures.append(f"missing row {region} p={p} q={q} (rc {res.rc})")
                continue
            row = rows[i]
            if (row["region"] != region or abs(float(row["p"]) - p) > 1e-9
                    or abs(float(row["q"]) - q) > 1e-9):
                failures.append(f"row {i} is {row['region']} p={row['p']} q={row['q']}")
                continue
            problem = oracles.sweep_row_problem(row, n, s, scheme)
            if problem:
                failures.append(f"{scheme} n={n} s={s} {region} p={p:.6g} q={q:.6g}: {problem}")
        if len(rows) > len(want):
            failures.append(f"{len(rows) - len(want)} unexpected rows")
        return len(want), failures

    return check


def window_sweep(seed: int, out_dir: Path) -> list[Block]:
    blocks = []
    for scheme, n, s, grid, samples in SWEEP_BLOCKS:
        args = ["sweep", *_flags(scheme=scheme, n=n, s=s, grid=grid, samples=samples,
                                 k_min=SWEEP_K[0], k_max=SWEEP_K[1], seed=seed)]
        cells = oracles.acceptance_grid(scheme, n, s, grid)
        blocks.append(cli_block(f"sweep-{scheme}-n{n}-s{s}-{samples}", out_dir, args,
                                sweep_checker(scheme, n, s, cells)))
    blocks.append(cli_block("fault-a-deep-shell", out_dir, DEEP_SHELL_ARGS,
                            sweep_checker("r1", 6, 4.0, [(30.0, 1.5), (30.0, 5.0)]),
                            known_fault=True))
    for n, s, p, q in RETRY_CELLS:
        args = ["sweep", *_flags(scheme="r2", n=n, s=s, p=p, q=q, samples=1024,
                                 k_max=26, seed=42)]
        blocks.append(cli_block(f"fault-b-retry-n{n}-s{s}", out_dir, args,
                                sweep_checker("r2", n, s, [(float(p), float(q))],
                                              error_exit_ok=True),
                                known_fault=True))
    return blocks


# ---------------------------------------------------------------------------
# extension_norms
# ---------------------------------------------------------------------------

# (scheme, n, s, function, p, q, samples, expected verdict).  The power family
# sits on both sides of its threshold for each scheme: q = n/(alpha+1) under
# R1 and (1+(n-1)s)/(alpha+s) under R2.  clampt runs below its only
# threshold, R2's (1+(n-1)s)/(s-1).
EXPERIMENTS = (
    ("r1", 3, 2.0, "power:1.4", 2.0, 1.1, 4096, "Convergent"),
    ("r1", 3, 2.0, "power:1.4", 2.0, 1.4, 4096, "Divergent"),
    ("r2", 3, 2.0, "power:1.4", 2.0, 1.3, 4096, "Convergent"),
    ("r2", 3, 2.0, "power:1.4", 2.0, 1.65, 4096, "Divergent"),
    ("r1", 4, 1.5, "power:1", 2.5, 1.7, 1024, "Convergent"),
    ("r1", 4, 1.5, "power:1", 2.5, 2.3, 1024, "Divergent"),
    ("r2", 4, 1.5, "power:1", 2.5, 1.9, 1024, "Convergent"),
    ("r2", 4, 1.5, "power:1", 2.5, 2.45, 1024, "Divergent"),
    ("r1", 4, 1.5, "clampt", 3.0, 2.5, 1024, "Convergent"),
    ("r2", 4, 1.5, "clampt", 3.0, 2.0, 4096, "Convergent"),
    ("r1", 3, 2.0, "clampt", 3.0, 2.0, 4096, "Convergent"),
)
EXT_K = (5, 30)
# Largest relative error of a shell mass; the estimates measured within 1.5 %.
MASS_RTOL = 0.05
SEMINORM_SHELLS = (1, 40)
SEMINORM_RTOL = 0.01


def extension_checker(scheme, n, s, function, q, expected) -> Check:
    ks = list(range(EXT_K[0], EXT_K[1] + 1))
    exact = oracles.extension_shell_masses(function, scheme, n, s, q, ks)
    implied = oracles.tail_verdict([v + g for v, g in exact])

    def check(res: CliResult) -> tuple[int, list[str]]:
        if res.error is not None or res.rc != 0:
            return 1, [f"extendnorm failed: rc={res.rc} {res.error!r}"]
        rows = _rows(res.csv)
        problems = []
        if [int(r["k"]) for r in rows] != ks:
            problems.append("shell column is not k_min..k_max")
        for row, (v, g) in zip(rows, exact):
            for col, want in (("Lq_value_term", v), ("Lq_grad_term", g)):
                got = float(row[col])
                if not abs(got / want - 1.0) <= MASS_RTOL:
                    problems.append(f"k={row['k']} {col} {got:.6g} vs exact {want:.6g}")
        verdicts = {r["verdict"] for r in rows}
        if implied != expected:
            problems.append(f"exact shells imply {implied}, input chosen for {expected}")
        if verdicts != {implied}:
            problems.append(f"verdict {sorted(verdicts)} but exact shells imply {implied}")
        return _one_op(f"{scheme} n={n} s={s} {function} q={q}", problems)

    return check


def seminorm_block(seed: int) -> Block:
    """|D t^(-1/2)|^2 over the n = 3, s = 2 cusp window: pi/32 (criterion 6)."""
    ks = range(SEMINORM_SHELLS[0], SEMINORM_SHELLS[1] + 1)

    def run():
        return sobolev.sobolev_seminorm(
            geometry.CuspParams(3, 2.0), extension.PowerAlpha(0.5),
            geometry.RegionLabel.CuspInterior, 2.0, geometry.shells(*SEMINORM_SHELLS),
            4096, seed)

    def check(ss) -> tuple[int, list[str]]:
        problems = []
        if abs(ss.total / (math.pi / 32.0) - 1.0) > SEMINORM_RTOL:
            problems.append(f"seminorm {ss.total:.8g} vs pi/32")
        for k in ks:
            if abs(ss.contributions[k] / oracles.seminorm_shell(k) - 1.0) > MASS_RTOL:
                problems.append(f"seminorm shell {k}: {ss.contributions[k]:.6g}")
        return _one_op("seminorm", problems)

    return Block("seminorm-t^-1/2", run, check,
                 lambda ss: np.array([ss.contributions[k] for k in ks]).tobytes())


def extension_norms(seed: int, out_dir: Path) -> list[Block]:
    blocks = []
    for i, (scheme, n, s, fn, p, q, samples, expected) in enumerate(EXPERIMENTS):
        args = ["extendnorm", *_flags(scheme=scheme, n=n, s=s, function=fn, p=p, q=q,
                                      samples=samples, k_min=EXT_K[0], k_max=EXT_K[1],
                                      seed=seed)]
        blocks.append(cli_block(f"extendnorm-{i:02d}", out_dir, args,
                                extension_checker(scheme, n, s, fn, q, expected)))
    blocks.append(seminorm_block(seed))
    return blocks


# ---------------------------------------------------------------------------
# point_maps
# ---------------------------------------------------------------------------

PARAMS = ((3, 2.0), (4, 1.5), (3, 3.0))
POINTS_PER_PIECE = 12
PIECES = ("A", "B", "C", "D", "E", "P1", "P2", "P3")
PIECE_CHART = {"A": "R1Outer", "B": "R1Outer", "C": "R1Outer", "D": "R2Outer",
               "E": "R2Outer", "P1": "R1Inner", "P2": "R1Inner", "P3": "R1Inner"}
PIECE_LABEL = {"A": "RegionA", "B": "RegionB", "C": "RegionC", "D": "RegionD",
               "E": "RegionE", "P1": "InnerPiece1", "P2": "InnerPiece2", "P3": "InnerPiece3"}

# (check, (n, s) index, budget, pinned threshold or {result name: threshold});
# budgets are those of the acceptance tests and `verify --full`.
CHECKS = (
    ("check_boundary_fixity", 1, 10_000, 1e-12),
    ("check_interface_continuity", 1, 1000, 1e-9),
    ("check_fd_agreement", 0, 1000, 1e-5),
    ("check_round_trip", 2, 400, 1e-8),
    ("check_sampler_hit_rate", 2, 400, 0.0),
    ("check_equivariance", 1, 200, 1e-12),
    ("check_native_identity", 2, 300, 0.0),
    ("check_trace_matching", 1, 500, 1e-8),
    ("check_cutoff_product", 0, 200, 0.0),
    ("check_winfty_positive", 0, 120, 1.05),
    ("check_holder_negative", 2, None,
     {"extension.holder_exponent": 0.02, "extension.holder_residual": 1e-3}),
)


def _results_check(name: str, pinned) -> Check:
    def check(results) -> tuple[int, list[str]]:
        results = results if isinstance(results, list) else [results]
        problems = []
        for r in results:
            want = pinned.get(r.name) if isinstance(pinned, dict) else pinned
            if not r.passed or not (r.worst_error <= r.threshold) or r.samples <= 0:
                problems.append(f"{r.name}: worst {r.worst_error:.3g} vs {r.threshold:.3g}")
            if r.threshold != want:
                problems.append(f"{r.name}: threshold {r.threshold} is not {want}")
        return _one_op(name, problems)

    return check


def _check_block(name: str, params_index: int, budget, threshold, seed: int) -> Block:
    n, s = PARAMS[params_index]

    def run():
        params = geometry.CuspParams(n, s)
        fn = getattr(checks, name)
        return fn(params) if budget is None else fn(params, budget, seed)

    def digest(results) -> bytes:
        results = results if isinstance(results, list) else [results]
        return repr([(r.name, r.samples, r.worst_error, r.passed) for r in results]).encode()

    return Block(f"{name}-n{n}-s{s}", run, _results_check(name, threshold), digest)


def _exact_values_block() -> Block:
    """Criterion 1: R1Inner at (1/2, 1e-8, 0) has opnorm 12 and |det| 144;
    R2Outer on D has opnorm 1 and |det| 2^-(n-1) exactly, n = 3, 4, 5."""

    def run():
        jets = [reflections.differential(reflections.ChartId.R1Inner,
                                         geometry.CuspParams(3, 2.0),
                                         geometry.Point(0.5, [1e-8, 0.0]))]
        for n in (3, 4, 5):
            jets.append(reflections.differential(
                reflections.ChartId.R2Outer, geometry.CuspParams(n, 2.0),
                geometry.Point(-0.25, [0.01] + [0.0] * (n - 2))))
        return [(j.opnorm, j.det) for j in jets]

    def check(vals) -> tuple[int, list[str]]:
        problems = []
        opnorm, det = vals[0]
        if abs(opnorm - 12.0) > 1e-10 * 12.0 or abs(abs(det) - 144.0) > 1e-10 * 144.0:
            problems.append(f"R1Inner opnorm {opnorm!r} |det| {abs(det)!r}")
        for n, (opnorm, det) in zip((3, 4, 5), vals[1:]):
            if opnorm != 1.0 or abs(det) != 2.0 ** -(n - 1):
                problems.append(f"R2Outer n={n} opnorm {opnorm!r} |det| {abs(det)!r}")
        return _one_op("exact values", problems)

    return Block("exact-values", run, check, lambda vals: repr(vals).encode())


def piece_points(seed: int, n: int, s: float, piece: str, count: int):
    """`count` points strictly inside a chart piece, scale log-uniform in
    [2^-10, 0.45], kept 1e-3 (relative) away from every interface."""
    rng = np.random.default_rng([seed, n, int(s * 1000), PIECES.index(piece)])
    xi = np.exp(rng.uniform(math.log(2.0**-10), math.log(0.45), count))
    u = rng.uniform(1e-3, 1.0 - 1e-3, count)
    ts = xi**s
    t = xi.copy()
    if piece == "A":
        t, r = -xi, xi * u
    elif piece == "B":
        r, t = xi, xi * (2.0 * u - 1.0)
    elif piece == "C":
        r = ts + (xi - ts) * u
    elif piece == "D":
        t, r = -xi, ts * u
    elif piece == "E":
        t = xi * np.where(rng.random(count) < 0.5, 1.0, -1.0)
        r = ts + (0.5**s - ts) * u
    elif piece == "P1":
        r = ts / 6.0 * u
    elif piece == "P2":
        r = ts * (1.0 + u) / 6.0
    else:
        r = ts * (1.0 + 2.0 * u) / 3.0
    dirs = rng.standard_normal((count, n - 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return [(float(ti), ri * d) for ti, ri, d in zip(t, r, dirs)]


class MapPoint(NamedTuple):
    """A generated point of one chart piece and its image from the chart table."""

    params: geometry.CuspParams
    piece: str
    t: float
    x: np.ndarray
    image: np.ndarray

    @property
    def point(self) -> geometry.Point:
        return geometry.Point(self.t, self.x)

    @property
    def chart(self) -> reflections.ChartId:
        return getattr(reflections.ChartId, PIECE_CHART[self.piece])


def map_points(seed: int) -> list[MapPoint]:
    out = []
    for n, s in PARAMS:
        params = geometry.CuspParams(n, s)
        for piece in PIECES:
            for t, x in piece_points(seed, n, s, piece, POINTS_PER_PIECE):
                out.append(MapPoint(params, piece, t, x, oracles.chart_image(piece, s, t, x)))
    return out


def scalar_block(name: str, points: list[MapPoint], call, check_one) -> Block:
    """One scalar pass: `call(m)` on every generated point m; then
    `check_one(value, m)` names what is wrong, or None."""

    def run():
        return [call(m) for m in points]

    def check(values) -> tuple[int, list[str]]:
        problems = []
        for m, value in zip(points, values):
            problem = check_one(value, m)
            if problem:
                problems.append(f"n={m.params.n} s={m.params.s} {m.piece} t={m.t:.6g}: {problem}")
        return _one_op(name, problems)

    return Block(name, run, check, lambda values: repr(values).encode())


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _apply(m: MapPoint):
    return reflections.apply(m.chart, m.params, m.point).as_array()


def check_apply(img, m: MapPoint):
    err = _rel(img, m.image)
    return f"image off by {err:.3g}" if err > 1e-10 else None


def _differential(m: MapPoint):
    jet = reflections.differential(m.chart, m.params, m.point)
    return jet.differential, jet.det, jet.opnorm


def _check_differential(value, m: MapPoint):
    M, det, opnorm = value
    fd = oracles.chart_jacobian(m.piece, m.params.s, np.concatenate(([m.t], m.x)))
    scale = float(np.max(np.abs(fd)))
    if np.max(np.abs(M - fd)) > 1e-5 * scale:
        return f"differential off FD by {np.max(np.abs(M - fd)) / scale:.3g}"
    if abs(det / np.linalg.det(fd) - 1.0) > 1e-4:
        return f"det {det:.6g} vs FD {np.linalg.det(fd):.6g}"
    if abs(opnorm / np.linalg.norm(fd, 2) - 1.0) > 1e-4:
        return f"opnorm {opnorm:.6g} vs FD {np.linalg.norm(fd, 2):.6g}"
    return None


def _invert(m: MapPoint):
    img = geometry.Point(m.image[0], m.image[1:])
    return reflections.invert(m.chart, m.params, img).as_array()


def _check_invert(src, m: MapPoint):
    err = _rel(src, np.concatenate(([m.t], m.x)))
    return f"inverse off by {err:.3g}" if err > 1e-8 else None


def _classify(m: MapPoint):
    scheme = "R2" if m.piece in ("D", "E") else "R1"
    return geometry.classify(m.params, scheme, m.point).value


def _check_classify(label, m: MapPoint):
    return None if label == PIECE_LABEL[m.piece] else f"classified {label}"


_POWER = 0.7


def _extend(m: MapPoint):
    """Outward extension of t^-0.7 (native on the inner pieces) and inward
    extension of clamp(t, 0, 1) (native on the R1 collar)."""
    if m.piece in ("D", "E"):
        spec = extension.ExtensionSpec("R2", extension.Direction.FromInside)
        return extension.extend_eval(spec, m.params, extension.PowerAlpha(_POWER), m.point)
    out = extension.extend_eval(extension.ExtensionSpec("R1", extension.Direction.FromInside),
                                m.params, extension.PowerAlpha(_POWER), m.point)
    inw = extension.extend_eval(extension.ExtensionSpec("R1", extension.Direction.FromOutside),
                                m.params, extension.ClampT(), m.point)
    return out, inw


def _check_extend(value, m: MapPoint):
    if m.piece in ("D", "E"):
        want = [m.image[0] ** -_POWER]
    elif m.piece in ("A", "B", "C"):
        want = [m.image[0] ** -_POWER, min(max(m.t, 0.0), 1.0)]
    else:
        want = [m.t ** -_POWER, min(max(m.image[0], 0.0), 1.0)]
    got = np.atleast_1d(value)
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    return f"extension off by {err:.3g}" if err > 1e-10 else None


def _cutoff(m: MapPoint):
    return extension.cutoff_psi(m.params, m.point)


def _check_cutoff(psi, m: MapPoint):
    if m.piece.startswith("P"):
        want = 1.0  # the cusp core is inside the domain
    else:
        r = float(np.linalg.norm(m.x))
        d_out = oracles.dist_to_collar_complement(m.params.s, m.t, r)
        d_in = oracles.dist_to_domain(m.params.s, m.t, r)
        want = d_out / (d_out + d_in)
    return None if abs(psi - want) <= 1e-6 else f"psi {psi:.9g} vs {want:.9g}"


def point_maps(seed: int, out_dir: Path) -> list[Block]:
    blocks = [_exact_values_block()]
    blocks += [_check_block(name, idx, budget, thr, seed) for name, idx, budget, thr in CHECKS]
    points = map_points(seed)
    blocks += [
        scalar_block("apply", points, _apply, check_apply),
        scalar_block("differential", points, _differential, _check_differential),
        scalar_block("invert", points, _invert, _check_invert),
        scalar_block("classify", points, _classify, _check_classify),
        scalar_block("extend_eval", points, _extend, _check_extend),
        scalar_block("cutoff_psi", points, _cutoff, _check_cutoff),
    ]
    return blocks


WORKLOADS = {
    "window_sweep": window_sweep,
    "extension_norms": extension_norms,
    "point_maps": point_maps,
}
