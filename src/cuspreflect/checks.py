"""Invariant suite behind `cuspreflect verify` and the acceptance tests.

Each check returns an InvariantResult row (name, samples, worst observed
error, threshold, pass flag); `run_all` executes every suite for one
parameter set.  Budgets are arguments so the CLI can run a fast profile
while the acceptance tests run the full-size one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import extension, reflections, sobolev
from .errors import WindowError
from .extension import ClampT, Direction, ExtensionSpec, PowerAlpha
from .geometry import (
    _log_shell_masses,
    SAMPLEABLE,
    SCHEME_CHARTS,
    ChartId,
    CuspParams,
    RegionLabel,
    Shell,
    chart_regions,
    classify_profile,
    derive_rng,
    outer_chart,
    radii,
    random_directions,
    sample_profile,
    sample_region_points,
    scheme_of,
    shell_measure,
    shells,
)


@dataclass
class InvariantResult:
    name: str
    samples: int
    worst_error: float
    threshold: float
    passed: bool

    @classmethod
    def of(cls, name, samples, worst, threshold):
        worst = float(worst)
        return cls(name, int(samples), worst, float(threshold), bool(worst <= threshold))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _region_predicates(params: CuspParams, scheme: str, t, r):
    """Defining inequalities of each collar region, as boolean arrays."""
    s = params.s
    if scheme == "R1":
        return {
            RegionLabel.RegionA: (-0.5 < t) & (t <= 0) & (r <= -t),
            RegionLabel.RegionB: (np.abs(t) < 0.5) & (np.abs(t) <= r) & (r < 0.5),
            RegionLabel.RegionC: (0 <= t) & (t < 0.5) & (t_pow(t, s) <= r) & (r <= t),
        }
    return {
        RegionLabel.RegionD: (-0.5 < t) & (t <= 0) & (r <= np.abs(t) ** s),
        RegionLabel.RegionE: (np.abs(t) < 0.5) & (np.abs(t) ** s < r) & (r < 0.5**s),
    }


def t_pow(t, s):
    with np.errstate(invalid="ignore"):
        return np.where(t > 0, np.abs(t) ** s, np.nan)


def check_partition(params: CuspParams, scheme: str, samples: int = 100_000, seed: int = 7):
    """Collar points away from interfaces satisfy exactly one region's
    inequalities, and classify returns that region."""
    rng = derive_rng(seed, 0, f"partition-{scheme}")
    cap = 0.5 if scheme == "R1" else 0.5 ** params.s
    t = rng.uniform(-0.5, 0.5, samples * 2)
    r = rng.uniform(0.0, cap, samples * 2)
    s = params.s
    # keep points clearly off every interface and outside the closed domain
    margin = 1e-6
    ts = t_pow(t, s)
    off = (
        (np.abs(r - np.abs(t)) > margin)
        & (np.abs(r - np.nan_to_num(ts, nan=-1.0)) > margin)
        & (np.abs(t) > margin)
        & (r > margin)
        & (np.abs(r - np.abs(t) ** s) > margin)
        & (cap - r > margin)
        & (0.5 - np.abs(t) > margin)
        & ((t < 0) | (r - np.nan_to_num(ts, nan=-1.0) > margin))
    )
    t, r = t[off][:samples], r[off][:samples]
    preds = _region_predicates(params, scheme, t, r)
    hits = np.sum([p.astype(int) for p in preds.values()], axis=0)
    bad_multi = int(np.sum(hits != 1))
    labels = classify_profile(params, scheme, t, r)
    bad_label = 0
    for lab, pred in preds.items():
        bad_label += int(np.sum(pred & (labels != lab)))
    worst = bad_multi + bad_label
    return InvariantResult.of(f"geometry.partition.{scheme}", t.size, worst, 0)


def check_boundary_consistency(params: CuspParams, samples: int = 10_000, seed: int = 7):
    """Every point with |x| = t^s, 0 < t < 1/2 classifies BoundaryCusp."""
    rng = derive_rng(seed, 0, "boundary")
    t = np.exp(rng.uniform(np.log(2.0**-20), np.log(0.5), samples))
    bad = 0
    for scheme in ("R1", "R2"):
        labels = classify_profile(params, scheme, t, t**params.s)
        bad += int(np.sum(labels != RegionLabel.BoundaryCusp))
    return InvariantResult.of("geometry.boundary_consistency", 2 * samples, bad, 0)


def check_shell_measure_sums(params: CuspParams):
    """Sum of shell measures k=1..40 converges to the closed-form volume of
    the scale range [0, 1/2] the shells cover; in logs where the volume is
    below the normal floats (large n)."""
    k_max = 40
    worst = 0.0
    for label in SAMPLEABLE:
        exact = shell_measure(params, label, (0.0, 0.5))
        if exact >= 2.0 ** -1022:
            total = sum(shell_measure(params, label, Shell(k)) for k in range(1, k_max + 1))
            error = abs(total - exact) / exact
        else:
            logs, _ = _log_shell_masses(params, label,
                                        [*map(Shell, range(1, k_max + 1)), (0.0, 0.5)])
            error = abs(math.expm1(np.logaddexp.reduce(logs[:-1]) - logs[-1]))
        worst = max(worst, error)
    return InvariantResult.of("geometry.shell_measure_sums", len(SAMPLEABLE) * k_max, worst, 1e-6)


def check_sampler_hit_rate(params: CuspParams, count: int = 400, seed: int = 7):
    """sample_region output classifies back to its region, every time: one
    classification per scheme of all its (region, shell) draws."""
    misses = 0
    total = 0
    cases = [(scheme_of(chart), lab) for chart in ChartId for lab in chart_regions(chart)]
    # under R1 the cusp core splits into the inner pieces, so the plain
    # cusp-interior label is only reachable through scheme R2 here
    cases += [("R2", RegionLabel.CuspInterior)]
    for scheme in SCHEME_CHARTS:
        draws = [(label, sample_region_points(params, scheme, label, Shell(k), count, seed))
                 for case, label in cases if case == scheme for k in (1, 3, 8, 20)]
        t, X = _joined(draw for _, draw in draws)
        want = np.repeat([label for label, _ in draws], [draw[0].size for _, draw in draws])
        total += t.size
        misses += int(np.sum(classify_profile(params, scheme, t, radii(X)) != want))
    return InvariantResult.of("geometry.sampler_hit_rate", total, misses, 0)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def check_boundary_fixity(params: CuspParams, samples: int = 10_000, seed: int = 7):
    """All charts restrict to the identity on the cusp wall."""
    rng = derive_rng(seed, 0, "fixity")
    t = np.exp(rng.uniform(np.log(2.0**-20), np.log(0.5), samples))
    dirs = random_directions(samples, params.n - 1, rng)
    # float_power rounds as scalar t ** s does; a vectorised ** can differ
    # in the last bit
    X = np.float_power(t, params.s)[:, None] * dirs
    worst = 0.0
    for chart in ChartId:
        T, X_img = reflections.apply_points(chart, params, t, X)
        worst = max(worst, float(np.max(np.abs(T - t))), float(np.max(np.abs(X_img - X))))
    return InvariantResult.of("reflections.boundary_fixity", 3 * samples, worst, 1e-12)


# (piece-minus, piece-plus, interface radius as function of t, t-range)
def _interfaces(params: CuspParams):
    s, L = params.s, RegionLabel
    return [
        (L.RegionA, L.RegionB, lambda t: -t, (-0.49, -0.01)),
        (L.RegionB, L.RegionC, lambda t: t, (0.01, 0.49)),
        (L.RegionC, None, lambda t: t**s, (0.01, 0.49)),
        (L.InnerPiece1, L.InnerPiece2, lambda t: t**s / 6.0, (0.01, 0.49)),
        (L.InnerPiece2, L.InnerPiece3, lambda t: t**s / 3.0, (0.01, 0.49)),
        (L.InnerPiece3, None, lambda t: t**s, (0.01, 0.49)),
        (L.RegionD, L.RegionE, lambda t: (-t) ** s, (-0.49, -0.01)),
        (L.RegionE, None, lambda t: t**s, (0.01, 0.49)),
    ]


def check_interface_continuity(params: CuspParams, pairs_per_interface: int = 1000, seed: int = 7):
    """Adjacent piece formulas agree in the limit at every interface.

    Evaluated as the two formulas at the common interface point: the
    one-sided limits of `apply` equal these values, without the O(|DR| * h)
    error a straddling stencil would inject on the strongly expanding
    inner pieces.
    """
    rng = derive_rng(seed, 0, "interface")
    worst = 0.0
    count = 0
    for minus, plus, radius, (t_lo, t_hi) in _interfaces(params):
        t = rng.uniform(t_lo, t_hi, pairs_per_interface)
        r = radius(t)
        Tm, _, _, Pm, _, _ = reflections.piece_profile(minus, params, t, r)
        if plus is None:
            Tp, Pp = t, r  # cusp wall: identity
        else:
            Tp, _, _, Pp, _, _ = reflections.piece_profile(plus, params, t, r)
        worst = max(worst, float(np.max(np.hypot(Tm - Tp, Pm - Pp))))
        count += pairs_per_interface
    return InvariantResult.of("reflections.interface_continuity", count, worst, 1e-9)


def check_straddle_continuity(params: CuspParams, pairs_per_interface: int = 200, seed: int = 7):
    """Straddle check (radial offsets 1e-10) across the outer-chart
    interfaces at moderate heights |t| in (0.3, 0.45), where the chart
    Lipschitz constants are O(1) and the offset injects < 1e-9."""
    rng = derive_rng(seed, 0, "straddle")
    eps = 1e-10
    worst = 0.0
    count = 0
    for minus, plus, radius, (t_lo, _) in _interfaces(params):
        if minus in chart_regions(ChartId.R1Inner):
            continue  # inner pieces expand by ~ t^(1-s); the limit check covers them
        sign = -1.0 if t_lo < 0 else 1.0
        t = sign * rng.uniform(0.3, 0.45, pairs_per_interface)
        r = radius(t)
        Tm, _, _, Pm, _, _ = reflections.piece_profile(minus, params, t, r - eps)
        if plus is None:
            Tp, Pp = t, r + eps  # cusp wall: identity on the outer side
        else:
            Tp, _, _, Pp, _, _ = reflections.piece_profile(plus, params, t, r + eps)
        worst = max(worst, float(np.max(np.hypot(Tm - Tp, Pm - Pp))))
        count += pairs_per_interface
    return InvariantResult.of("reflections.straddle_continuity", count, worst, 1e-9)


_BANDS = {
    RegionLabel.RegionA: (0.0, 1.0 / 6.0),
    RegionLabel.RegionB: (1.0 / 6.0, 0.5),
    RegionLabel.RegionC: (0.5, 1.0),
    RegionLabel.RegionD: (0.0, 0.5),
    RegionLabel.RegionE: (0.5, 1.0),
}


def check_image_bands(params: CuspParams, samples: int = 2000, seed: int = 7):
    """Outer charts land in the advertised radius bands of the cusp core."""
    worst = 0.0
    total = 0
    for label, (lo, hi) in _BANDS.items():
        for k in (1, 4, 9):
            rng = derive_rng(seed, k, label, salt="bands")
            prof = sample_profile(params, label, [Shell(k)], samples, [rng])
            T, phi, _, _ = reflections.profile_jet(label, params, prof.t, prof.r)
            ts = T**params.s
            viol = np.maximum(lo * ts - phi, phi - hi * ts) / ts
            worst = max(worst, float(np.max(viol)))
            total += prof.count
    return InvariantResult.of("reflections.image_bands", total, worst, 1e-9)


def check_equivariance(params: CuspParams, samples: int = 200, seed: int = 7):
    """apply commutes with rotations of the cross-section: one batch of every
    piece's draw per chart, each rotated by its own q."""
    rng = derive_rng(seed, 0, "equivariance")
    n = params.n
    worst = 0.0
    total = 0

    def rotate(q, X):  # q @ x row by row
        return (q @ X[:, :, None])[:, :, 0]

    for chart in (ChartId.R1Outer, ChartId.R2Outer, ChartId.R1Inner):
        draws = [sample_region_points(params, scheme_of(chart), label, Shell(3), samples, seed)
                 for label in chart_regions(chart)]
        qs = [np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0] for _ in draws]
        t, X = _joined(draws)
        q = np.repeat(qs, [draw[0].size for draw in draws], axis=0)  # each row's rotation
        T, X_img = reflections.apply_points(chart, params, t, X)
        T_rot, X_rot = reflections.apply_points(chart, params, t, rotate(q, X))
        worst = max(worst, float(np.max(np.abs(T_rot - T))),
                    float(np.max(np.abs(X_rot - rotate(q, X_img)))))
        total += t.size
    return InvariantResult.of("reflections.equivariance", total, worst, 1e-12)


def check_jacobian_scaling(params: CuspParams, samples: int = 2048, seed: int = 7):
    """log-log slope of |J| in the scale variable: exact (n-1)(s-1) on A,
    within 0.02 on B and C."""
    out = []
    for label, tol, krange in (
        (RegionLabel.RegionA, 1e-6, range(8, 25)),
        (RegionLabel.RegionB, 0.02, range(8, 25)),
        (RegionLabel.RegionC, 0.02, range(8, 25)),
    ):
        rows = sobolev.scaling_profile(params, label, [Shell(k) for k in krange], samples, seed)
        slope, _, _ = sobolev.scaling_fit([(r["log_scale"], r["log_absdet"]) for r in rows])
        target = sobolev.det_scaling_target(label, params.n, params.s)
        out.append(InvariantResult.of(
            f"reflections.jacobian_scaling.{label.value}", samples * len(rows),
            abs(slope - target), tol))
    return out


def check_boundedness(params: CuspParams, samples: int = 2048, seed: int = 7):
    """Sampled opnorm on the R1 collar does not grow as shells refine."""
    worst = 0.0
    total = 0
    for label in chart_regions(ChartId.R1Outer):
        running = 0.0
        for k in range(5, 21):
            rng = derive_rng(seed, k, label, salt="bound")
            prof = sample_profile(params, label, [Shell(k)], samples, [rng])
            _, _, opnorm, _ = reflections.profile_jet(label, params, prof.t, prof.r)
            mx = float(np.max(opnorm))
            if running > 0.0:
                worst = max(worst, mx / running)
            running = max(running, mx)
            total += prof.count
    return InvariantResult.of("reflections.boundedness_outer", total, worst, 1.05)


def check_e_opnorm_factor(params: CuspParams, samples: int = 2048, seed: int = 7):
    """opnorm * |x|^((s-1)/s) on region E stays within a factor 4."""
    rows = sobolev.scaling_profile(params, RegionLabel.RegionE,
                                   [Shell(k) for k in range(5, 21)], samples, seed)
    vals = [r["opnorm_comp_mean"] for r in rows]
    factor = max(vals) / min(vals)
    return InvariantResult.of("reflections.e_opnorm_factor", samples * len(rows), factor, 4.0)


def _fd_points(params: CuspParams, chart: ChartId, label: RegionLabel, count: int, seed: int):
    """Up to `count` piece-interior points (t, X) with comfortable margins
    for the FD stencil."""
    ts, Xs = [], []
    got = 0
    k = 2
    while got < count and k < 7:
        t, X = sample_region_points(params, scheme_of(chart), label, Shell(k), count, seed + k)
        r = radii(X)
        room = np.minimum(*reflections.piece_gaps(label, params, t, r))
        keep = room > 4.0 * reflections.fd_step(t, r)
        ts.append(t[keep][: count - got])
        Xs.append(X[keep][: count - got])
        got += ts[-1].size
        k += 1
    return np.concatenate(ts), np.concatenate(Xs)


def _joined(draws) -> tuple[np.ndarray, np.ndarray]:
    """One point batch (t, X) of the (t, X) draws, in their order."""
    ts, Xs = zip(*draws)
    return np.concatenate(ts), np.concatenate(Xs)


def check_fd_agreement(params: CuspParams, per_piece: int = 1000, seed: int = 7):
    """Analytic differentials match central finite differences: one batch of
    every piece's points per chart."""
    worst = 0.0
    total = 0
    for chart in ChartId:
        t, X = _joined(_fd_points(params, chart, label, per_piece, seed)
                       for label in chart_regions(chart))
        _, _, M, _, _ = reflections.differential_points(chart, params, t, X)
        fd = reflections.differential_fd_points(chart, params, t, X)
        err = np.max(np.abs(M - fd), axis=(1, 2)) / np.max(np.abs(M), axis=(1, 2))
        worst = max(worst, float(np.max(err, initial=0.0)))
        total += t.size
    return InvariantResult.of("reflections.fd_agreement", total, worst, 1e-5)


def check_round_trip(params: CuspParams, per_piece: int = 400, seed: int = 7):
    """invert(apply(z)) = z and apply(invert(w)) = w within 1e-8: one batch
    of every piece's three shell draws per chart."""
    worst = 0.0
    total = 0
    for chart in ChartId:
        t, X = _joined(sample_region_points(params, scheme_of(chart), label, Shell(k),
                                            per_piece // 3 + 1, seed)
                       for label in chart_regions(chart) for k in (1, 4, 9))
        T, W = reflections.apply_points(chart, params, t, X)
        t_back, X_back = reflections.invert_points(chart, params, T, W)
        T_fwd, W_fwd = reflections.apply_points(chart, params, t_back, X_back)
        worst = max(worst, *(float(np.max(np.abs(a - b))) for a, b in
                             ((t_back, t), (X_back, X), (T_fwd, T), (W_fwd, W))))
        total += t.size
    return InvariantResult.of("reflections.round_trip", total, worst, 1e-8)


# ---------------------------------------------------------------------------
# sobolev
# ---------------------------------------------------------------------------

def sweep_grid(params: CuspParams, scheme: str, grid: int = 21):
    """The acceptance (p, q) grid: p in [1.1 p_min, 6], q in [1, p - 0.05]."""
    ps = np.linspace(1.1 * sobolev.p_min(scheme, params.n, params.s), 6.0, grid)
    return [(float(p), float(q)) for p in ps for q in np.linspace(1.0, p - 0.05, grid)]


def region_prediction(region: RegionLabel, p: float, q: float, n: int, s: float) -> bool:
    """Whether the region's own distortion integral converges (e > -1)."""
    return sobolev.predicted_shell_exponent(region, p, q, n, s) > -1.0


def check_window_consistency(
    params: CuspParams,
    samples_per_shell: int = 1024,
    k_min: int = 5,
    k_max: int = 26,
    grid: int = 21,
    seed: int = 42,
):
    """Verdicts agree with the per-region analytic predicate away from the
    critical curve; Inconclusive cells appear only within 0.05 in q of it."""
    n, s = params.n, params.s
    shl = shells(k_min, k_max)
    bad = 0
    cells = 0
    for scheme in SCHEME_CHARTS:
        chart = outer_chart(scheme)
        grid_cells = sweep_grid(params, scheme, grid=grid)
        regions = chart_regions(chart)
        by_region = sobolev.distortion_sweeps(params, chart, regions, grid_cells, shl,
                                              samples_per_shell, seed)
        for region, sums in zip(regions, by_region):
            # no critical curve where the exponent is constant (c_Q = c_P = 0)
            constant = sobolev._EXPONENTS[region](n, s)[1:] == (0.0, 0.0)
            for (p, q), ss in zip(grid_cells, sums):
                qm = sobolev.q_max(scheme, p, n, s)
                cells += 1
                verdict = sobolev.convergence_verdict(ss)
                predicted = region_prediction(region, p, q, n, s)
                near_curve = abs(q - qm) < 0.05 and not constant
                if not near_curve and (verdict.kind == "Inconclusive"
                                       or (verdict.kind == "Convergent") != predicted):
                    bad += 1
    return InvariantResult.of("sobolev.window_consistency", cells, bad, 0)


# Region E's exponent targets, on the singular-dominated side of e = -1.
_E_SINGULAR = (-0.9, -0.35)


def _singular_side_q(p: float, e: float, n: int, s: float) -> float:
    """The q at which region E's shell exponent at p is e, from its row."""
    e0, _, c_P = sobolev._EXPONENTS[RegionLabel.RegionE](n, s)
    w = (e0 - e) / c_P
    return w * p / (p + w)


def check_shell_exponent_match(params: CuspParams, n_pairs: int = 10, seed: int = 11,
                               samples_per_shell: int = 4096):
    """Fitted log2 shell ratio equals -(e+1) within 0.05 for in-window pairs.

    Region E is tested on the singular-dominated side (e in [-0.9, -0.35)):
    for e > 0 its shells are dominated by the regular outer-radius mass and
    decay like plain volume, so the pure power law only rules near the
    critical curve (where the verdicts live).  Where no such pair has
    1 <= q < q_max - 0.05, as at n = 6, s = 4, this raises a WindowError
    before sampling; where they are too rare to draw, as at n = 6, s = 3.6,
    after 200 attempts per pair.
    """
    n, s = params.n, params.s
    # q rises with p, and so does its gap below q_max (the q of e = -1), so
    # region E has a pair iff it has one at the largest p drawn, 6
    q_hi, q_lo = (_singular_side_q(6.0, e, n, s) for e in _E_SINGULAR)
    if not (q_hi >= 1.0 and max(q_lo, 1.0) < sobolev.q_max_r2(6.0, n, s) - 0.05):
        raise WindowError(f"RegionE has no exponent pair with e in [-0.9, -0.35) and "
                          f"1 <= q < q_max - 0.05 at n={n}, s={s:g}")
    rng = derive_rng(seed, 0, "expmatch")
    worst = 0.0
    total = 0
    for scheme in SCHEME_CHARTS:
        chart = outer_chart(scheme)
        pmin = sobolev.p_min(scheme, n, s)
        for region in chart_regions(chart):
            made = 0
            attempts = 0
            while made < n_pairs:
                attempts += 1
                if attempts > 200 * n_pairs:
                    raise WindowError(f"could not draw {n_pairs} in-window pairs for "
                                      f"{region.value} at n={n}, s={s:g} in "
                                      f"{attempts - 1} attempts")
                p = float(rng.uniform(max(1.2, 1.1 * pmin), 6.0))
                qm = sobolev.q_max(scheme, p, n, s)
                if qm <= 1.1:
                    continue
                if region is RegionLabel.RegionE:
                    # solve q from a target exponent on the singular side
                    q = _singular_side_q(p, float(rng.uniform(*_E_SINGULAR)), n, s)
                    if not (1.0 <= q < qm - 0.05):
                        continue
                else:
                    q = float(rng.uniform(1.0, qm - 0.1))
                e = sobolev.predicted_shell_exponent(region, p, q, n, s)
                ss = sobolev.distortion_integral(
                    params, chart, region, p, q, shells(5, 32), samples_per_shell, seed
                )
                fitted = float(np.mean(ss.log_ratios[-8:]) / np.log(2.0))
                worst = max(worst, abs(fitted + (e + 1.0)))
                made += 1
                total += 1
    return InvariantResult.of("sobolev.shell_exponent_match", total, worst, 0.05)


def check_qmax_curves(params: CuspParams):
    """q_max_r1 linear increasing; q_max_r2 increasing, concave, asymptoting;
    curves cross at p* where both equal n-1."""
    n, s = params.n, params.s
    ps = np.linspace(1.05 * max(sobolev.p_min_r1(n, s), sobolev.p_min_r2(n, s)), 40.0, 400)
    q1 = np.array([sobolev.q_max_r1(p, n, s) for p in ps])
    q2 = np.array([sobolev.q_max_r2(p, n, s) for p in ps])
    worst = 0.0
    worst = max(worst, float(np.max(np.abs(np.diff(q1, 2)))))        # linear
    worst = max(worst, float(np.max(-np.diff(q1))))                  # increasing
    worst = max(worst, float(np.max(-np.diff(q2))))                  # increasing
    worst = max(worst, float(np.max(np.diff(q2, 2))))                # concave
    asym = sobolev.q_max_asymptote_r2(n, s)
    worst = max(worst, float(np.max(q2 - asym)))                     # below asymptote
    crossing = sobolev.qmax_crossing(n, s)
    pstar = sobolev.p_star(n, s)
    worst = max(worst, abs(crossing - pstar))
    worst = max(worst, abs(sobolev.q_max_r1(pstar, n, s) - (n - 1)))
    worst = max(worst, abs(sobolev.q_max_r2(pstar, n, s) - (n - 1)))
    return InvariantResult.of("sobolev.qmax_curves", ps.size, worst, 1e-9)


def check_dual_roundtrip(params: CuspParams, samples: int = 200, seed: int = 7):
    """dual_exponent composed with its Moebius inverse is the identity, and
    p = n is the self-dual point."""
    n = params.n
    rng = derive_rng(seed, 0, "dual")
    ps = n - 1 + np.exp(rng.uniform(np.log(1e-3), np.log(40.0), samples))
    worst = 0.0
    for p in ps:
        d = sobolev.dual_exponent(float(p), n)
        worst = max(worst, abs(sobolev.dual_exponent_inverse(d, n) - p) / p)
    worst = max(worst, abs(sobolev.dual_exponent(float(n), n) - n))
    return InvariantResult.of("sobolev.dual_roundtrip", samples, worst, 1e-12)


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def check_native_identity(params: CuspParams, samples: int = 300, seed: int = 7):
    """The extension equals u exactly on the native side."""
    cases = [(ExtensionSpec("R1", Direction.FromInside), PowerAlpha(0.7), label)
             for label in (RegionLabel.CuspInterior, RegionLabel.InnerPiece2,
                           RegionLabel.InnerPiece3)]
    cases += [(ExtensionSpec("R1", Direction.FromOutside), ClampT(), label)
              for label in chart_regions(ChartId.R1Outer)]
    worst = 0.0
    total = 0
    for spec, u, label in cases:
        t, X = sample_region_points(params, "R1", label, Shell(2), samples, seed)
        ext = extension.extend_eval_points(spec, params, u, t, X)
        worst = max(worst, float(np.max(np.abs(ext - u.value_t(t)))))
        total += t.size
    return InvariantResult.of("extension.native_identity", total, worst, 0.0)


def check_trace_matching(params: CuspParams, samples: int = 500, seed: int = 7):
    """For continuous u the two-sided extension limits agree on the wall."""
    u = ClampT()
    eps = 1e-10
    rng = derive_rng(seed, 0, "trace")
    t = np.exp(rng.uniform(np.log(1e-4), np.log(0.49), samples))
    worst = 0.0
    e1 = np.zeros(params.n - 1)
    e1[0] = 1.0
    wall = np.float_power(t, params.s)  # rounds as scalar t ** s does
    for scheme in SCHEME_CHARTS:
        spec = ExtensionSpec(scheme, Direction.FromInside)
        inner = extension.extend_eval_points(spec, params, u, t, (wall * (1 - eps))[:, None] * e1)
        outer = extension.extend_eval_points(spec, params, u, t, (wall * (1 + eps))[:, None] * e1)
        worst = max(worst, float(np.max(np.abs(inner - outer))))
    return InvariantResult.of("extension.trace_matching", 2 * samples, worst, 1e-8)


def check_cutoff_product(params: CuspParams, samples: int = 200, seed: int = 7):
    """psi * E(u) equals u on the domain and vanishes outside the collar."""
    u = PowerAlpha(0.4)
    spec = ExtensionSpec("R1", Direction.FromInside)
    t, X = sample_region_points(params, "R1", RegionLabel.CuspInterior, Shell(2), samples, seed)
    inside = extension.extend_global_points(spec, params, u, t, X) - u.value_t(t)
    # far-outside points, drawn row by row: t in [-2, -0.6), then x in [0.6, 2)^(n-1)
    rng = derive_rng(seed, 0, "cutoffout")
    low = np.r_[-2.0, np.full(params.n - 1, 0.6)]
    high = np.r_[-0.6, np.full(params.n - 1, 2.0)]
    Z = rng.uniform(low, high, (samples, params.n))
    outside = extension.extend_global_points(spec, params, u, Z[:, 0], Z[:, 1:])
    worst = float(np.max(np.abs(np.concatenate([inside, outside]))))
    return InvariantResult.of("extension.cutoff_product", 2 * samples, worst, 0.0)


def check_winfty_positive(params: CuspParams, per_shell: int = 120, seed: int = 7):
    """Lipschitz data stays Lipschitz under outward extension: shell maxima
    of the extension gradient do not grow.  Every (shell, region) draw goes
    into one batch, each shell's draws one segment of it."""
    u = ClampT()
    spec = ExtensionSpec("R1", Direction.FromInside)
    draws = [[sample_region_points(params, "R1", label, Shell(k), per_shell, seed)
              for label in chart_regions(ChartId.R1Outer)] for k in range(5, 21)]
    t, X = _joined(draw for shell in draws for draw in shell)
    g = extension.extend_gradient_points(spec, params, u, t, X)
    sizes = [sum(draw[0].size for draw in shell) for shell in draws]
    maxima = np.maximum.reduceat(radii(g), np.cumsum([0, *sizes[:-1]]))
    worst = maxima.max() / maxima[:8].max()
    return InvariantResult.of("extension.winfty_positive", t.size, worst, 1.05)


def check_holder_negative(params: CuspParams):
    """The inward extension of the ramp obeys osc ~ diam^(1/s)."""
    probe = extension.holder_probe(params, [2.0 ** (-k) for k in range(3, 11)])
    nsamples = len(probe.t_values) * 64
    return [
        InvariantResult.of("extension.holder_exponent", nsamples,
                           abs(probe.exponent - 1.0 / params.s), 0.02),
        InvariantResult.of("extension.holder_residual", nsamples, probe.residual, 1e-3),
    ]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_all(params: CuspParams, quick: bool = True, seed: int = 42):
    """Run every module invariant; `quick` shrinks the Monte Carlo budgets to
    keep the CLI profile under a minute.

    Returns the results and the wall time in seconds of each check function,
    keyed by its name (both partition schemes count as one check).
    """
    part = 20_000 if quick else 100_000
    fix = 2_000 if quick else 10_000
    fd = 150 if quick else 1000
    sps = 1024 if quick else 4096
    grid = 11 if quick else 21
    suite = [
        partial(check_partition, params, "R1", part, seed),
        partial(check_partition, params, "R2", part, seed),
        partial(check_boundary_consistency, params, fix, seed),
        partial(check_shell_measure_sums, params),
        partial(check_sampler_hit_rate, params, 200 if quick else 400, seed),
        partial(check_boundary_fixity, params, fix, seed),
        partial(check_interface_continuity, params, 1000, seed),
        partial(check_straddle_continuity, params, 200, seed),
        partial(check_image_bands, params, 1000 if quick else 2000, seed),
        partial(check_equivariance, params, 60 if quick else 200, seed),
        partial(check_jacobian_scaling, params, 1024 if quick else 4096, seed),
        partial(check_boundedness, params, 1024 if quick else 2048, seed),
        partial(check_e_opnorm_factor, params, 1024 if quick else 2048, seed),
        partial(check_fd_agreement, params, fd, seed),
        partial(check_round_trip, params, 120 if quick else 400, seed),
        partial(check_window_consistency, params, sps, grid=grid, seed=seed),
        partial(check_shell_exponent_match, params, 4 if quick else 10, seed, sps),
        partial(check_qmax_curves, params),
        partial(check_dual_roundtrip, params, 100, seed),
        partial(check_native_identity, params, 150 if quick else 300, seed),
        partial(check_trace_matching, params, 200 if quick else 500, seed),
        partial(check_cutoff_product, params, 100 if quick else 200, seed),
        partial(check_winfty_positive, params, 60 if quick else 120, seed),
        partial(check_holder_negative, params),
    ]
    results, seconds = [], {}
    for check in suite:
        start = time.perf_counter()
        out = check()
        name = check.func.__name__
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
        results += out if isinstance(out, list) else [out]
    return results, seconds
