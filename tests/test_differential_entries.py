"""Entry-by-entry cross-check of the analytic differentials.

Each matrix below is expanded componentwise from the chart formulas with
plain loops and no shared code with the library's profile-based assembly,
so an index or sign slip in either derivation shows up here.
"""

import numpy as np
import pytest

from cuspreflect.geometry import ChartId, CuspParams, Point, RegionLabel, Shell, sample_region
from cuspreflect.reflections import differential


def _entries_A(n, s, t, x):
    r = np.linalg.norm(x)
    M = np.zeros((n, n))
    M[0, 0] = -1.0
    xi = -t
    for i in range(n - 1):
        M[1 + i, 0] = -(s - 1.0) * xi ** (s - 2.0) * x[i] / 6.0
        M[1 + i, 1 + i] = xi ** (s - 1.0) / 6.0
    return M


def _entries_B(n, s, t, x):
    r = np.linalg.norm(x)
    M = np.zeros((n, n))
    for j in range(n - 1):
        M[0, 1 + j] = x[j] / r
    for i in range(n - 1):
        M[1 + i, 0] = x[i] * r ** (s - 2.0) / 6.0
        for j in range(n - 1):
            d = 1.0 if i == j else 0.0
            M[1 + i, 1 + j] = (t / 6.0) * (
                d * r ** (s - 2.0) + (s - 2.0) * r ** (s - 4.0) * x[i] * x[j]
            ) + (1.0 / 3.0) * (
                d * r ** (s - 1.0) + (s - 1.0) * r ** (s - 3.0) * x[i] * x[j]
            )
    return M


def _entries_C(n, s, t, x):
    r = np.linalg.norm(x)
    g = t ** (s - 1.0)
    lam = g / (2.0 * (g - 1.0))
    mu = t**s - t ** (2.0 * s - 1.0) / (2.0 * (g - 1.0))
    lam_p = -(s - 1.0) * t ** (s - 2.0) / (2.0 * (g - 1.0) ** 2)
    mu_p = (
        s * g
        - (2.0 * s - 1.0) * t ** (2.0 * s - 2.0) / (2.0 * (g - 1.0))
        + (s - 1.0) * t ** (3.0 * s - 3.0) / (2.0 * (g - 1.0) ** 2)
    )
    M = np.zeros((n, n))
    M[0, 0] = 1.0
    for i in range(n - 1):
        M[1 + i, 0] = lam_p * x[i] + mu_p * x[i] / r
        for j in range(n - 1):
            d = 1.0 if i == j else 0.0
            M[1 + i, 1 + j] = lam * d + mu * (d / r - x[i] * x[j] / r**3)
    return M


def _entries_D(n, s, t, x):
    return np.diag([-1.0] + [0.5] * (n - 1))


def _entries_E(n, s, t, x):
    r = np.linalg.norm(x)
    M = np.zeros((n, n))
    for j in range(n - 1):
        M[0, 1 + j] = x[j] / (s * r ** (2.0 - 1.0 / s))
    for i in range(n - 1):
        M[1 + i, 0] = x[i] / (4.0 * r ** (1.0 / s))
        for j in range(n - 1):
            d = 1.0 if i == j else 0.0
            M[1 + i, 1 + j] = (t / 4.0) * (
                d * r ** (-1.0 / s) - (1.0 / s) * x[i] * x[j] * r ** (-1.0 / s - 2.0)
            ) + 0.75 * d
    return M


def _entries_P1(n, s, t, x):
    M = np.zeros((n, n))
    M[0, 0] = -1.0
    for i in range(n - 1):
        M[1 + i, 0] = 6.0 * (1.0 - s) * x[i] * t ** (-s)
        M[1 + i, 1 + i] = 6.0 * t ** (1.0 - s)
    return M


def _entries_P2(n, s, t, x):
    r = np.linalg.norm(x)
    M = np.zeros((n, n))
    M[0, 0] = 12.0 * (1.0 - s) * r * t ** (-s) - 3.0
    for j in range(n - 1):
        M[0, 1 + j] = 12.0 * x[j] / (r * t ** (s - 1.0))
    for i in range(n - 1):
        M[1 + i, 0] = x[i] / r
        for j in range(n - 1):
            d = 1.0 if i == j else 0.0
            M[1 + i, 1 + j] = t * (d / r - x[i] * x[j] / r**3)
    return M


def _entries_P3(n, s, t, x):
    r = np.linalg.norm(x)
    a = 1.5 * (1.0 - t ** (1.0 - s))
    a_p = 1.5 * (s - 1.0) * t ** (-s)
    b = (3.0 * t - t**s) / 2.0
    b_p = (3.0 - s * t ** (s - 1.0)) / 2.0
    M = np.zeros((n, n))
    M[0, 0] = 1.0
    for i in range(n - 1):
        M[1 + i, 0] = a_p * x[i] + b_p * x[i] / r
        for j in range(n - 1):
            d = 1.0 if i == j else 0.0
            M[1 + i, 1 + j] = a * d + b * (d / r - x[i] * x[j] / r**3)
    return M


CASES = [
    (ChartId.R1Outer, RegionLabel.RegionA, "R1", _entries_A),
    (ChartId.R1Outer, RegionLabel.RegionB, "R1", _entries_B),
    (ChartId.R1Outer, RegionLabel.RegionC, "R1", _entries_C),
    (ChartId.R2Outer, RegionLabel.RegionD, "R2", _entries_D),
    (ChartId.R2Outer, RegionLabel.RegionE, "R2", _entries_E),
    (ChartId.R1Inner, RegionLabel.InnerPiece1, "R1", _entries_P1),
    (ChartId.R1Inner, RegionLabel.InnerPiece2, "R1", _entries_P2),
    (ChartId.R1Inner, RegionLabel.InnerPiece3, "R1", _entries_P3),
]


@pytest.mark.parametrize("chart,label,scheme,entries", CASES,
                         ids=[c[1].value for c in CASES])
@pytest.mark.parametrize("n,s", [(3, 2.0), (4, 1.5), (5, 3.0)])
def test_componentwise_matrix_matches_assembly(chart, label, scheme, entries, n, s):
    params = CuspParams(n, s)
    for k in (1, 4, 9):
        for z in sample_region(params, scheme, label, Shell(k), 30, 31):
            if z.r == 0.0:
                continue
            jet = differential(chart, params, z)
            M = entries(n, s, z.t, z.x)
            scale = np.max(np.abs(M))
            assert np.max(np.abs(jet.differential - M)) <= 1e-13 * scale
