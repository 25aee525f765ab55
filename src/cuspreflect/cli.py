"""Command-line front end: point utilities, the verify suite, and the
sweep / scaling / extendnorm / holder experiments, all emitting CSV plus a
JSON run manifest.

Exit codes: 0 success, 1 failed verification, 2 argument errors (argparse),
3 domain/window errors.  Floats print with 12 significant digits and every
run is reproducible from its recorded seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, checks, extension, geometry, reflections, sobolev
from .errors import ChartDomainError, EmptyRegionError, InterfaceError, WindowError
from .extension import ClampT, Constant, Direction, ExtensionSpec, PowerAlpha
from .geometry import ChartId, CuspParams, Point, classify, shells

_CHARTS = {
    "r1-outer": ChartId.R1Outer,
    "r1-inner": ChartId.R1Inner,
    "r2-outer": ChartId.R2Outer,
}

def f12(x) -> str:
    """Fixed 12-significant-digit decimal used in all outputs."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _parse_floats(flag: str, text: str) -> list[float]:
    """The finite numbers of a comma list; any other entry raises a
    WindowError that names the flag."""
    values = []
    for entry in text.split(","):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise WindowError(f"{flag} {text!r}: needs finite numbers, got {entry.strip()!r}")
        values.append(value)
    return values


def _parse_point(text: str, n: int) -> Point:
    parts = _parse_floats("--point", text)
    if len(parts) != n:
        raise WindowError(f"point needs {n} coordinates for n={n}, got {len(parts)}")
    return Point(parts[0], parts[1:])


def _params(args) -> CuspParams:
    return CuspParams(args.n, args.s)


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else f12(v) for v in row])


def _write_manifest(path: Path, args, extra: dict, wall: float) -> None:
    manifest = {
        "command": args.command,
        "version": __version__,
        "flags": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
        "wall_time_s": round(wall, 3),
        **extra,
    }
    with open(path.with_suffix(path.suffix + ".manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# point utilities
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    params = _params(args)
    z = _parse_point(args.point, params.n)
    print(classify(params, args.scheme.upper(), z).value)
    return 0


def cmd_reflect(args) -> int:
    params = _params(args)
    z = _parse_point(args.point, params.n)
    img = reflections.apply(_CHARTS[args.chart], params, z)
    print(",".join(f12(v) for v in img.as_array()))
    return 0


def cmd_jacobian(args) -> int:
    params = _params(args)
    z = _parse_point(args.point, params.n)
    jet = reflections.differential(_CHARTS[args.chart], params, z)
    print(f"opnorm={f12(jet.opnorm)} det={f12(jet.det)}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    params = _params(args)
    start = time.perf_counter()
    results, check_s = checks.run_all(params, quick=not args.full, seed=args.seed)
    rows = [
        [r.name, r.samples, r.worst_error, r.threshold, r.passed]
        for r in results
    ]
    out = Path(args.out)
    _write_rows(out, ["name", "samples", "worst_error", "threshold", "pass"], rows)
    wall = time.perf_counter() - start
    _write_manifest(out, args, {"invariants": len(results),
                                "check_s": {k: round(v, 3) for k, v in check_s.items()}}, wall)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} "
              f"(worst {f12(r.worst_error)} vs {f12(r.threshold)})")
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed "
          f"in {wall:.1f} s -> {out}")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    params = _params(args)
    start = time.perf_counter()
    scheme = args.scheme.upper()
    chart = geometry.outer_chart(scheme)
    regions = geometry.chart_regions(chart)
    if args.p is not None:
        cells = [(p, q) for p in _parse_floats("--p", args.p)
                 for q in _parse_floats("--q", args.q)]
    else:
        cells = checks.sweep_grid(params, scheme, grid=args.grid)
    shl = shells(args.k_min, args.k_max)
    valid = [(p, q) for p, q in cells if 1.0 <= q < p]
    sums = {
        region: dict(zip(valid, sobolev.distortion_sweep(
            params, chart, region, valid, shl, args.samples, args.seed)))
        for region in regions
    }
    rows = []
    for p, q in cells:
        try:
            qm = sobolev.q_max(scheme, p, params.n, params.s)
        except WindowError:
            qm = float("nan")
        for region in regions:
            base = [params.n, params.s, scheme.lower(), region.value, p, q]
            if not (1.0 <= q < p):
                rows.append(base + [qm, "", "", args.k_min, args.k_max, "", "",
                                    "WindowError", "", args.seed])
                continue
            admissible = bool(q < qm) if np.isfinite(qm) else False
            e = sobolev.predicted_shell_exponent(region, p, q, params.n, params.s)
            ss = sums[region][(p, q)]
            verdict = sobolev.convergence_verdict(ss)
            agrees = (verdict.kind == "Inconclusive") or (
                (verdict.kind == "Convergent") == (e > -1.0)
            )
            rows.append(base + [qm, admissible, e, args.k_min, args.k_max,
                                ss.total, ss.ratios[-1], verdict.kind, agrees, args.seed])
    out = Path(args.out)
    _write_rows(
        out,
        ["n", "s", "scheme", "region", "p", "q", "q_max_theory", "admissible_theory",
         "e_predicted", "k_min", "k_max", "partial_sum", "last_ratio", "verdict",
         "agrees", "seed"],
        rows,
    )
    wall = time.perf_counter() - start
    processes = max((ss.processes for by_cell in sums.values() for ss in by_cell.values()),
                    default=1)
    _write_manifest(out, args, {"rows": len(rows), "processes": processes}, wall)
    print(f"swept {len(rows)} cells in {wall:.1f} s -> {out}")
    return 0


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def cmd_scaling(args) -> int:
    params = _params(args)
    start = time.perf_counter()
    collar = {geometry.piece_of_region(label): label for label in geometry.COLLAR_REGIONS}
    letters = [r.strip().upper() for r in args.regions.split(",")] if args.regions else collar
    for letter in letters:
        if letter not in collar:
            raise WindowError(f"unknown region {letter!r} (use {','.join(collar)})")
    labels = [collar[letter] for letter in letters]
    rows = []
    for label in labels:
        shl = shells(args.k_min, args.k_max)
        data = sobolev.scaling_profile(params, label, shl, args.samples, args.seed)
        slope, _, _ = sobolev.scaling_fit([(d["log_scale"], d["log_absdet"]) for d in data])
        target = sobolev.det_scaling_target(label, params.n, params.s)
        for d in data:
            rows.append([label.value, math.exp(d["log_scale"]), d["opnorm_mean"],
                         math.exp(d["log_absdet"]), slope, target])
    out = Path(args.out)
    _write_rows(out, ["region", "scale", "opnorm", "abs_det", "fitted_slope",
                      "target_slope"], rows)
    wall = time.perf_counter() - start
    _write_manifest(out, args, {"rows": len(rows)}, wall)
    print(f"scaling rows: {len(rows)} in {wall:.1f} s -> {out}")
    return 0


# ---------------------------------------------------------------------------
# extendnorm
# ---------------------------------------------------------------------------

def _function_number(kind: str, arg: str) -> float:
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise WindowError(f"{kind} needs a finite number, got {arg!r}")
    return value


def _parse_function(text: str):
    """The test function of `--function`; every malformed value raises a
    WindowError that names the flag."""
    kind, colon, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "clampt" and not colon:
            return ClampT()
        if kind == "power":
            return PowerAlpha(_function_number(kind, arg))
        if kind == "const":
            return Constant(_function_number(kind, arg) if colon else 1.0)
        raise WindowError("use power:A, clampt or const:C")
    except WindowError as exc:
        raise WindowError(f"--function {text!r}: {exc}") from None


def cmd_extendnorm(args) -> int:
    params = _params(args)
    start = time.perf_counter()
    u = _parse_function(args.function)
    spec = ExtensionSpec(args.scheme.upper(), Direction.FromInside)
    report = extension.extension_norm_experiment(
        params, spec, u, args.p, args.q, shells(args.k_min, args.k_max),
        args.samples, args.seed,
    )
    rows = []
    for i, k in enumerate(report.total_sum.ks):
        rows.append([
            f"2^-{k + 1}..2^-{k}", k,
            report.value_sum.contributions[k],
            report.grad_sum.contributions[k],
            report.total_sum.partial_sums[i],
            report.verdict.kind,
        ])
    out = Path(args.out)
    _write_rows(out, ["shell", "k", "Lq_value_term", "Lq_grad_term", "partial",
                      "verdict"], rows)
    wall = time.perf_counter() - start
    _write_manifest(
        out, args,
        {"verdict": report.verdict.kind, "u_norm": report.u_norm, "ratio": report.ratio,
         "processes": report.processes},
        wall,
    )
    print(f"extendnorm verdict: {report.verdict.kind} "
          f"(u-norm {f12(report.u_norm)}, ratio {f12(report.ratio)}) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# holder
# ---------------------------------------------------------------------------

def cmd_holder(args) -> int:
    params = _params(args)
    start = time.perf_counter()
    ts = (_parse_floats("--t-values", args.t_values) if args.t_values
          else [2.0 ** (-k) for k in range(3, 11)])
    probe = extension.holder_probe(params, ts, radial_samples=args.radial_samples)
    rows = [[t, o, d, probe.exponent]
            for t, o, d in zip(probe.t_values, probe.oscillations, probe.diameters)]
    out = Path(args.out)
    _write_rows(out, ["t", "osc", "diam", "fitted_exponent"], rows)
    wall = time.perf_counter() - start
    _write_manifest(out, args, {"exponent": probe.exponent, "residual": probe.residual}, wall)
    print(f"holder exponent: {f12(probe.exponent)} (1/s = {f12(1.0 / params.s)}) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str, minimum: int = 1) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be a positive integer >= {minimum}, got {value}")
    return value


def _radial_count(text: str) -> int:
    """At least 2: with one radial sample per height every oscillation is 0."""
    return _positive_int(text, minimum=2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse starts
    from a fresh namespace, so one command's flags never reach the next."""
    parser = argparse.ArgumentParser(
        prog="cuspreflect",
        description="Cusp reflection charts, Jacobians, and extension-exponent experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags it reads.
    def cusp(sp):
        sp.add_argument("--n", type=int, default=3, help="dimension (>= 3)")
        sp.add_argument("--s", type=float, default=2.0, help="cusp degree (> 1)")

    def seeded(sp):
        cusp(sp)
        sp.add_argument("--seed", type=int, default=42)

    def shelled(sp, k_min=5, k_max=30):
        seeded(sp)
        sp.add_argument("--k-min", type=int, default=k_min)
        sp.add_argument("--k-max", type=int, default=k_max)
        sp.add_argument("--samples", type=_positive_int, default=4096,
                        help="samples per shell")

    sp = sub.add_parser("classify", help="region label of a point")
    cusp(sp)
    sp.add_argument("--scheme", choices=["r1", "r2"], default="r1")
    sp.add_argument("--point", required=True, help="t,x1,...,x_{n-1}")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("reflect", help="image of a point under a chart")
    cusp(sp)
    sp.add_argument("--scheme", dest="chart", choices=sorted(_CHARTS), required=True)
    sp.add_argument("--point", required=True)
    sp.set_defaults(func=cmd_reflect)

    sp = sub.add_parser("jacobian", help="opnorm and determinant of a chart differential")
    cusp(sp)
    sp.add_argument("--scheme", dest="chart", choices=sorted(_CHARTS), required=True)
    sp.add_argument("--point", required=True)
    sp.set_defaults(func=cmd_jacobian)

    sp = sub.add_parser("verify", help="run the invariant suite")
    seeded(sp)
    sp.add_argument("--full", action="store_true", help="full-size Monte Carlo budgets")
    sp.add_argument("--out", default="verify.csv")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="(p, q) distortion-integral sweep")
    shelled(sp)
    sp.add_argument("--scheme", choices=["r1", "r2"], default="r1")
    sp.add_argument("--p", help="comma list of p values (default: acceptance grid)")
    sp.add_argument("--q", help="comma list of q values (with --p)")
    sp.add_argument("--grid", type=_positive_int, default=21, help="grid size per axis")
    sp.add_argument("--out", default="sweep.csv")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("scaling", help="Jacobian scaling-law fits per region")
    shelled(sp, k_min=8, k_max=24)
    sp.add_argument("--regions", help="comma list among A,B,C,D,E (default all)")
    sp.add_argument("--out", default="scaling.csv")
    sp.set_defaults(func=cmd_scaling)

    sp = sub.add_parser("extendnorm", help="extension-norm shell experiment")
    shelled(sp)
    sp.add_argument("--scheme", choices=["r1", "r2"], default="r1")
    sp.add_argument("--function", default="power:1.4", help="power:A | clampt | const:C")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--out", default="extendnorm.csv")
    sp.set_defaults(func=cmd_extendnorm)

    sp = sub.add_parser("holder", help="oscillation/diameter exponent probe")
    cusp(sp)
    sp.add_argument("--t-values", help="comma list of heights in (0, 1/2)")
    sp.add_argument("--radial-samples", type=_radial_count, default=64)
    sp.add_argument("--out", default="holder.csv")
    sp.set_defaults(func=cmd_holder)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and (args.p is None) != (args.q is None):
        parser.error("sweep takes --p and --q together, or neither for the default grid")
    try:
        return args.func(args)
    except (WindowError, ChartDomainError, InterfaceError, EmptyRegionError, ValueError,
            sobolev.NonFiniteIntegrandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
