"""Closed forms the benchmark checks the program against.

Everything here is written from the formulas of the paper model (the chart
table in the `reflections` module docstring, the critical curves, the shell
decomposition of the collar pieces), not imported from `cuspreflect`, so a
fault in the library cannot hide itself by also being in the oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Tail rule of the verdict classifier, as documented in `convergence_verdict`.
RATIO_CONVERGENT = 0.94
RATIO_DIVERGENT = 1.0
VERDICT_TAIL = 4
PARTIAL_SUM_CAP = 1e12

# Sweep verdicts may read Inconclusive only this close to the critical curve.
CURVE_MARGIN = 0.05


def ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def pow_integral(lo: float, hi: float, m: float) -> float:
    """Integral of x^m over [lo, hi], 0 < lo <= hi."""
    if abs(m + 1.0) < 1e-14:
        return math.log(hi / lo)
    return (hi ** (m + 1.0) - lo ** (m + 1.0)) / (m + 1.0)


# ---------------------------------------------------------------------------
# Exponent windows
# ---------------------------------------------------------------------------

def p_min(scheme: str, n: int, s: float) -> float:
    c = 1.0 + (n - 1) * s
    return c / n if scheme == "r1" else c / (2.0 + (n - 2) * s)


def q_max(scheme: str, p: float, n: int, s: float) -> float:
    c = 1.0 + (n - 1) * s
    return n * p / c if scheme == "r1" else c * p / (c + (s - 1.0) * p)


def shell_exponent(region: str, p: float, q: float, n: int, s: float) -> float:
    """Power e with shell-k distortion mass ~ 2^(-k(e+1)); converges iff e > -1."""
    if region in ("RegionA", "RegionB", "RegionC"):
        return (n - 1) - (n - 1) * (s - 1.0) * q / (p - q)
    if region == "RegionD":
        return (n - 1) * s
    if region == "RegionE":
        return (n - 1) * s - (s - 1.0) * p * q / (p - q)
    raise ValueError(region)


def acceptance_grid(scheme: str, n: int, s: float, grid: int) -> list[tuple[float, float]]:
    """p in [1.1 p_min, 6], q in [1, p - 0.05], `grid` values each."""
    ps = np.linspace(1.1 * p_min(scheme, n, s), 6.0, grid)
    return [(float(p), float(q)) for p in ps for q in np.linspace(1.0, p - 0.05, grid)]


def sweep_row_problem(row: dict, n: int, s: float, scheme: str) -> str | None:
    """Why one `sweep` CSV row is wrong, or None.

    A decisive verdict must match e > -1; Inconclusive is allowed only within
    CURVE_MARGIN of the critical curve in q, and never on region D, whose
    distortion is constant.
    """
    region, p, q, verdict = row["region"], float(row["p"]), float(row["q"]), row["verdict"]
    e = shell_exponent(region, p, q, n, s)
    if abs(float(row["e_predicted"]) - e) > 1e-9 * max(1.0, abs(e)):
        return f"e_predicted {row['e_predicted']} != {e:.12g}"
    if verdict == "Inconclusive":
        if region == "RegionD":
            return "region D Inconclusive"
        if abs(q - q_max(scheme, p, n, s)) >= CURVE_MARGIN:
            return f"Inconclusive {abs(q - q_max(scheme, p, n, s)):.3g} from the curve"
        return None
    if verdict not in ("Convergent", "Divergent"):
        return f"unknown verdict {verdict!r}"
    if (verdict == "Convergent") != (e > -1.0):
        return f"{verdict} with e = {e:.6g}"
    return None


# ---------------------------------------------------------------------------
# Chart formulas (the table in the reflections module docstring)
# ---------------------------------------------------------------------------

def chart_image(piece: str, s: float, t: float, x: np.ndarray) -> np.ndarray:
    """Image (t', x') of the point (t, x) under one chart piece."""
    r = float(np.linalg.norm(x))
    u = x / r if r > 0.0 else np.zeros_like(x)
    if piece == "A":
        return np.concatenate(([-t], abs(t) ** (s - 1.0) * x / 6.0))
    if piece == "B":
        return np.concatenate(([r], (t / 6.0) * r ** (s - 2.0) * x + r ** (s - 1.0) * x / 3.0))
    if piece == "C":
        g = t ** (s - 1.0)
        lam = g / (2.0 * (g - 1.0))
        mu = t**s - t ** (2.0 * s - 1.0) / (2.0 * (g - 1.0))
        return np.concatenate(([t], lam * x + mu * u))
    if piece == "D":
        return np.concatenate(([-t], x / 2.0))
    if piece == "E":
        return np.concatenate(([r ** (1.0 / s)], (t / 4.0) * x / r ** (1.0 / s) + 0.75 * x))
    if piece == "P1":
        return np.concatenate(([-t], 6.0 * x / t ** (s - 1.0)))
    if piece == "P2":
        return np.concatenate(([12.0 * r / t ** (s - 1.0) - 3.0 * t], t * u))
    a = 3.0 * (t**s - t) / (2.0 * t**s)
    b = (3.0 * t - t**s) / 2.0
    return np.concatenate(([t], a * x + b * u))


def kink_scale(piece: str, t: float, r: float) -> float:
    """Distance to the kinks of a piece formula (t = 0 for powers of |t|,
    r = 0 for x/|x|); central differences need steps well below it."""
    if piece == "D":
        return 1.0
    if piece in ("B", "E"):
        return r
    if piece in ("A", "P1"):
        return abs(t)
    return min(abs(t), r)


def chart_jacobian(piece: str, s: float, z: np.ndarray) -> np.ndarray:
    """Central differences of `chart_image` with step 1e-5 * kink_scale."""
    n = z.size
    step = 1e-5 * kink_scale(piece, z[0], float(np.linalg.norm(z[1:])))
    M = np.empty((n, n))
    for j in range(n):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        M[:, j] = (chart_image(piece, s, zp[0], zp[1:])
                   - chart_image(piece, s, zm[0], zm[1:])) / (2.0 * step)
    return M


# ---------------------------------------------------------------------------
# Cutoff distances
# ---------------------------------------------------------------------------

def dist_to_domain(s: float, t: float, r: float) -> float:
    """Profile distance to {0 < tau <= 1, rho <= tau^s} u ball((2,0), sqrt 2),
    by a dense search in tau refined once around the best node."""
    taus = np.linspace(0.0, 1.0, 4097)
    gaps = np.hypot(t - taus, np.maximum(0.0, r - taus**s))
    i = int(np.argmin(gaps))
    fine = np.linspace(taus[max(0, i - 1)], taus[min(4096, i + 1)], 4097)
    best = float(np.min(np.hypot(t - fine, np.maximum(0.0, r - fine**s))))
    return min(best, max(0.0, math.hypot(t - 2.0, r) - math.sqrt(2.0)))


def dist_to_collar_complement(s: float, t: float, r: float) -> float:
    """Profile distance from a collar point to the complement of the R1
    neighbourhood: walls t = -1/2, r = 1/2 and the wedge {t >= 1/2, r >= t^s}."""
    corner = 0.5 - t if r >= 0.5**s else math.hypot(0.5 - t, 0.5**s - r)
    return max(0.0, min(t + 0.5, 0.5 - r, corner))


# ---------------------------------------------------------------------------
# Extension-norm shell masses
# ---------------------------------------------------------------------------

def _piece_masses(piece: str, n: int, s: float, k: int, val: tuple, grad: tuple,
                  e_val: tuple, e_grad: tuple) -> tuple[float, float]:
    """(value, gradient) L^q masses of u o R on one piece and shell k.

    On A-D the composed function depends on the shell's scale variable xi
    alone (T = xi, |grad T| = 1), so `val`/`grad` = (K, g) stand for the
    integrand K xi^g.  On E, T = r^(1/s) and `e_val`/`e_grad` = (K, mu) stand
    for K r^mu; swapping the order of integration leaves
    2 |S^(n-2)| [int_{a^s}^{b^s} r^(n-2+mu) (r^(1/s) - a) dr
                 + (b - a) int_{b^s}^{2^-s} r^(n-2+mu) dr].
    """
    a, b = 2.0 ** (-k - 1), 2.0 ** (-k)
    c = ball_volume(n - 1)
    out = []
    if piece == "E":
        for K, mu in (e_val, e_grad):
            m = n - 2 + mu
            body = pow_integral(a**s, b**s, m + 1.0 / s) - a * pow_integral(a**s, b**s, m)
            out.append(2.0 * (n - 1) * c * K * (body + (b - a) * pow_integral(b**s, 0.5**s, m)))
        return out[0], out[1]
    for K, g in (val, grad):
        if piece == "A":
            mass = c * pow_integral(a, b, g + n - 1)
        elif piece == "B":
            mass = 2.0 * (n - 1) * c * pow_integral(a, b, g + n - 1)
        elif piece == "C":
            mass = c * (pow_integral(a, b, g + n - 1) - pow_integral(a, b, g + s * (n - 1)))
        else:  # D
            mass = c * pow_integral(a, b, g + s * (n - 1))
        out.append(K * mass)
    return out[0], out[1]


def extension_shell_masses(function: str, scheme: str, n: int, s: float, q: float,
                           ks) -> list[tuple[float, float]]:
    """Per-shell (value, gradient) L^q masses of u o R summed over the pieces
    of the scheme, for u = t^(-alpha) ("power:alpha") or clamp(t, 0, 1)."""
    kind, _, arg = function.partition(":")
    if kind == "power":
        al = float(arg)
        val, grad = (1.0, -al * q), (al**q, -(al + 1.0) * q)
        e_val, e_grad = (1.0, -al * q / s), ((al / s) ** q, -al * q / s - q)
    elif kind == "clampt":
        val, grad = (1.0, q), (1.0, 0.0)
        e_val, e_grad = (1.0, q / s), (s ** (-q), (1.0 / s - 1.0) * q)
    else:
        raise ValueError(function)
    pieces = ("A", "B", "C") if scheme == "r1" else ("D", "E")
    rows = []
    for k in ks:
        v = g = 0.0
        for piece in pieces:
            dv, dg = _piece_masses(piece, n, s, k, val, grad, e_val, e_grad)
            v += dv
            g += dg
        rows.append((v, g))
    return rows


def tail_verdict(masses) -> str:
    """The classifier's tail rule applied to exact shell masses."""
    ratios = [b / a for a, b in zip(masses, masses[1:])]
    last = ratios[-VERDICT_TAIL:]
    if all(x <= RATIO_CONVERGENT for x in last):
        return "Convergent"
    if all(x >= RATIO_DIVERGENT for x in last) or sum(masses) > PARTIAL_SUM_CAP:
        return "Divergent"
    return "Inconclusive"


def seminorm_shell(k: int) -> float:
    """Shell k of the W^(1,2) seminorm of t^(-1/2) on the n = 3, s = 2 cusp:
    int (t^-3 / 4) pi t^4 dt = pi (b^2 - a^2) / 8; the shells sum to pi/32."""
    a, b = 2.0 ** (-k - 1), 2.0 ** (-k)
    return math.pi * (b * b - a * a) / 8.0
