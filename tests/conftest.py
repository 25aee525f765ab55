"""Shared fixtures, a planted differential fault, the child-process
environment and the brute-force quadrature oracle.

The oracle integrates profile integrands over region/shell intersections by
dense midpoint rules (log-spaced in the radial direction where integrands
are radially singular), fully independent of the stratified sampler it is
used to check.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import cuspreflect
import cuspreflect.reflections as refl
from cuspreflect.geometry import CuspParams, RegionLabel, Shell, unit_ball_volume


@pytest.fixture
def params():
    return CuspParams(3, 2.0)


def package_env() -> dict:
    """Environment for a child interpreter that imports the package from
    where this process found it."""
    src = str(Path(cuspreflect.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def negate_entry(i, j):
    """The differential's matrix assembly with entry (i, j) negated: a
    planted fault for `monkeypatch.setattr(refl, "_jacobian_matrices", ...)`."""
    assemble = refl._jacobian_matrices

    def planted(*args):
        M = assemble(*args)
        M[:, i, j] = -M[:, i, j]
        return M

    return planted


def brute_shell_integral(
    params: CuspParams,
    region: RegionLabel,
    k: int,
    f,
    m_scale: int = 400,
    m_cond: int = 400,
    log_radial: bool = False,
) -> float:
    """Midpoint quadrature of integral f(t, r) dV over region /\\ shell k."""
    n, s = params.n, params.s
    sh = Shell(k)
    a, b = sh.lo, sh.hi
    omega = (n - 1) * unit_ball_volume(n - 1)  # area of the unit (n-2)-sphere

    def cond_grid(lo, hi):
        if log_radial:
            lo = np.maximum(lo, 1e-300)
            edges = np.exp(np.linspace(np.log(lo), np.log(hi), m_cond + 1))
        else:
            edges = np.linspace(lo, hi, m_cond + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        return mid, np.diff(edges)

    xi_edges = np.linspace(a, b, m_scale + 1)
    xi = 0.5 * (xi_edges[:-1] + xi_edges[1:])
    dxi = np.diff(xi_edges)

    total = 0.0
    if region is RegionLabel.RegionB:
        # scale is the radius; t runs over [-r, r]
        for r_i, dr in zip(xi, dxi):
            t_edges = np.linspace(-r_i, r_i, m_cond + 1)
            t_mid = 0.5 * (t_edges[:-1] + t_edges[1:])
            dt = np.diff(t_edges)
            total += float(np.sum(f(t_mid, np.full_like(t_mid, r_i)) * dt)) * (
                omega * r_i ** (n - 2) * dr
            )
        return total

    for xi_i, dxi_i in zip(xi, dxi):
        if region is RegionLabel.RegionA:
            t_i, lo, hi, sides = -xi_i, 0.0, xi_i, (1,)
        elif region is RegionLabel.RegionC:
            t_i, lo, hi, sides = xi_i, xi_i**s, xi_i, (1,)
        elif region is RegionLabel.RegionD:
            t_i, lo, hi, sides = -xi_i, 0.0, xi_i**s, (1,)
        elif region is RegionLabel.RegionE:
            t_i, lo, hi, sides = xi_i, xi_i**s, 0.5**s, (1, -1)
        elif region is RegionLabel.CuspInterior:
            t_i, lo, hi, sides = xi_i, 0.0, xi_i**s, (1,)
        elif region is RegionLabel.InnerPiece1:
            t_i, lo, hi, sides = xi_i, 0.0, xi_i**s / 6.0, (1,)
        elif region is RegionLabel.InnerPiece2:
            t_i, lo, hi, sides = xi_i, xi_i**s / 6.0, xi_i**s / 3.0, (1,)
        elif region is RegionLabel.InnerPiece3:
            t_i, lo, hi, sides = xi_i, xi_i**s / 3.0, xi_i**s, (1,)
        else:
            raise ValueError(region)
        r_mid, dr = cond_grid(lo, hi)
        for side in sides:
            t_arr = np.full_like(r_mid, side * t_i)
            total += float(np.sum(f(t_arr, r_mid) * omega * r_mid ** (n - 2) * dr)) * dxi_i
    return total
