"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Budgets and tolerances are pinned here; the module reuses the library's
invariant-check functions with full-size Monte Carlo budgets.
"""

import math
import time

from cuspreflect import checks, extension, reflections, sobolev
from cuspreflect.cli import main as cli_main
from cuspreflect.extension import Direction, ExtensionSpec, PowerAlpha, membership_oracle
from cuspreflect.geometry import ChartId, CuspParams, Point, RegionLabel, shells


def _report(num, name, ok, elapsed, budget, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f} s / {budget:.0f} s)"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {line}"


def test_criterion_1_exact_distortion_values():
    start = time.perf_counter()
    params = CuspParams(3, 2.0)
    jet = reflections.differential(ChartId.R1Inner, params, Point(0.5, [1e-8, 0.0]))
    ok = abs(jet.opnorm - 12.0) <= 1e-10 * 12.0
    ok &= abs(abs(jet.det) - 144.0) <= 1e-10 * 144.0
    for n in (3, 4, 5):
        p = CuspParams(n, 2.0)
        z = Point(-0.25, [0.01] + [0.0] * (n - 2))
        jet = reflections.differential(ChartId.R2Outer, p, z)
        ok &= jet.opnorm == 1.0
        ok &= abs(jet.det) == 2.0 ** -(n - 1)
    _report(1, "exact-distortion-values", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_boundary_fixity_and_interface_continuity():
    start = time.perf_counter()
    ok = True
    worst_fix = worst_int = 0.0
    for n in (3, 4):
        for s in (1.5, 2.0, 3.0):
            params = CuspParams(n, s)
            fix = checks.check_boundary_fixity(params, 10_000, seed=2)
            cont = checks.check_interface_continuity(params, 1000, seed=2)
            ok &= fix.passed and cont.passed
            worst_fix = max(worst_fix, fix.worst_error)
            worst_int = max(worst_int, cont.worst_error)
    _report(2, "boundary-fixity+interface-continuity", ok, time.perf_counter() - start,
            30.0, f"fixity {worst_fix:.1e} <= 1e-12, continuity {worst_int:.1e} <= 1e-9")


def test_criterion_3_jacobian_oracle():
    start = time.perf_counter()
    res = checks.check_fd_agreement(CuspParams(3, 2.0), per_piece=1000, seed=3)
    _report(3, "jacobian-fd-oracle", res.passed, time.perf_counter() - start, 30.0,
            f"{res.samples} points, worst rel err {res.worst_error:.2e} <= 1e-5")


def test_criterion_4_scaling_laws():
    start = time.perf_counter()
    ok = True
    details = []
    for n, s in ((3, 2.0), (3, 1.5), (3, 3.0), (4, 2.0)):
        params = CuspParams(n, s)
        for res in checks.check_jacobian_scaling(params, samples=4096, seed=4):
            ok &= res.passed
        factor = checks.check_e_opnorm_factor(params, samples=2048, seed=4)
        ok &= factor.passed
        details.append(f"(n={n},s={s}) E-factor {factor.worst_error:.2f}")
    _report(4, "jacobian-scaling-laws", ok, time.perf_counter() - start, 60.0,
            "; ".join(details))


def test_criterion_5_sharp_window_sweep():
    start = time.perf_counter()
    params = CuspParams(3, 2.0)
    res = checks.check_window_consistency(params, samples_per_shell=4096,
                                          k_min=5, k_max=30, grid=21, seed=42)
    ok = res.passed
    ident = 0.0
    for n in (3, 4, 5):
        for s in (1.5, 2.0, 3.0):
            ps = sobolev.p_star(n, s)
            ident = max(ident, abs(sobolev.q_max_r1(ps, n, s) - (n - 1)))
            ident = max(ident, abs(sobolev.q_max_r2(ps, n, s) - (n - 1)))
    ok &= ident <= 1e-12
    _report(5, "sharp-window-sweep", ok, time.perf_counter() - start, 600.0,
            f"{res.samples} grid cells, q_max identity dev {ident:.1e}")


def test_criterion_6_extension_sharpness():
    start = time.perf_counter()
    params = CuspParams(3, 2.0)
    u = PowerAlpha(1.4)
    ok = membership_oracle(u, 2.0, 3, 2.0)
    spec = ExtensionSpec("R1", Direction.FromInside)
    rep_lo = extension.extension_norm_experiment(params, spec, u, 2.0, 1.1,
                                                 shells(5, 30), 4096, 42)
    rep_hi = extension.extension_norm_experiment(params, spec, u, 2.0, 1.3,
                                                 shells(5, 30), 4096, 42)
    ok &= rep_lo.verdict.kind == "Convergent"
    ok &= rep_hi.verdict.kind == "Divergent"
    semi = sobolev.sobolev_seminorm(params, PowerAlpha(0.5), RegionLabel.CuspInterior,
                                    2.0, shells(1, 40), 100_000, 42)
    rel = abs(semi.total - math.pi / 32.0) / (math.pi / 32.0)
    ok &= rel <= 0.01
    _report(6, "extension-sharpness", ok, time.perf_counter() - start, 120.0,
            f"verdicts {rep_lo.verdict.kind}/{rep_hi.verdict.kind} bracket q_max=1.2, "
            f"seminorm rel err {rel:.2e}")


def test_criterion_7_winfty_dichotomy():
    start = time.perf_counter()
    pos = checks.check_winfty_positive(CuspParams(3, 2.0), per_shell=120, seed=7)
    ok = pos.passed
    exps = []
    for s in (1.5, 2.0, 3.0):
        probe = extension.holder_probe(CuspParams(3, s), [2.0 ** (-k) for k in range(3, 11)])
        ok &= abs(probe.exponent - 1.0 / s) <= 0.02
        ok &= probe.residual < 1e-3
        exps.append(f"s={s}: {probe.exponent:.4f}")
    _report(7, "winfty-dichotomy", ok, time.perf_counter() - start, 60.0,
            "positive bounded; exponents " + ", ".join(exps))


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    ok = True
    cases = [
        ["sweep", "--scheme", "r2", "--p", "2,3", "--q", "1.05,1.3", "--samples",
         "1024", "--k-max", "26"],
        ["extendnorm", "--function", "power:1.4", "--p", "2", "--q", "1.3",
         "--samples", "1024", "--k-max", "20"],
        ["scaling", "--regions", "A,B,E", "--samples", "1024"],
        ["holder", "--s", "3"],
    ]
    for i, args in enumerate(cases):
        a = tmp_path / f"a{i}.csv"
        b = tmp_path / f"b{i}.csv"
        cli_main(args + ["--out", str(a)])
        cli_main(args + ["--out", str(b)])
        ok &= a.read_bytes() == b.read_bytes()
    _report(8, "byte-identical-reruns", ok, time.perf_counter() - start, 60.0)
