"""Shared fixtures, a planted differential fault, a spy on the shell
streams, the child-process environment, the child-process check and the
brute-force quadrature oracle.

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
from cuspreflect import sobolev
from cuspreflect.geometry import CuspParams, RegionLabel, Shell, unit_ball_volume


@pytest.fixture
def params():
    return CuspParams(3, 2.0)


@pytest.fixture(autouse=True)
def no_process_left():
    """Start every test with no shell-loop values counted toward the fork, as
    in a fresh process; stop the shell worker after it, so that a monkeypatch
    never meets a worker forked before it, and check that no child is left."""
    sobolev._unsplit_values = 0
    yield
    sobolev._stop_worker()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def children() -> set[int]:
    """Pids of this process's children, exited or not, from /proc."""
    found = set()
    for entry in Path("/proc").iterdir():
        fields = _stat_fields(entry.name) if entry.name.isdigit() else None
        if fields and int(fields[1]) == os.getpid():
            found.add(int(entry.name))
    return found


def gone(pid: int) -> bool:
    """Whether process pid has exited: no /proc entry, or a zombie."""
    fields = _stat_fields(str(pid))
    return fields is None or fields[0] == b"Z"


def _stat_fields(pid: str) -> list[bytes] | None:
    """Fields 3 on (state, ppid, ...) of /proc/<pid>/stat, or None."""
    try:
        return (Path("/proc") / pid / "stat").read_bytes().rsplit(b")", 1)[1].split()
    except OSError:
        return None


def package_env() -> dict:
    """Environment for a child interpreter that imports the package from
    where this process found it."""
    src = str(Path(cuspreflect.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def force_split(monkeypatch, split: bool):
    """Make every library shell loop of two shells or more split its shells
    (two allowed CPUs) or stay serial (one), with the worker forked by the
    first split (FORK_VALUES 0)."""
    monkeypatch.setattr(sobolev, "FORK_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1 + split)))


def hex_sums(sums) -> list[list[str]]:
    """The log contributions of each shell sum as float.hex strings."""
    return [[float.hex(x) for x in ss.log_contributions.tolist()] for ss in sums]


def plant_nan_on_shells(monkeypatch, ks):
    """A nan in the first value of the first row of every reduce of the
    shells ks, in whichever block and process computes the shell."""
    reduce = sobolev._log_shell

    def planted(log_measure, L, region, shells):
        for j, shell in enumerate(shells):
            if shell.k in ks:
                L[(0,) * (L.ndim - 2) + (j, 0)] = np.nan
        return reduce(log_measure, L, region, shells)

    monkeypatch.setattr(sobolev, "_log_shell", planted)


def negate_entry(i, j):
    """The differential's matrix assembly with entry (i, j) negated: a
    planted fault for `monkeypatch.setattr(refl, "_jacobian_matrices", ...)`."""
    assemble = refl._jacobian_matrices

    def planted(*args):
        M = assemble(*args)
        M[:, i, j] = -M[:, i, j]
        return M

    return planted


def spy_rng(monkeypatch) -> list:
    """Record the (seed, k, label, salt) of every `derive_rng` call of sobolev."""
    calls = []
    derive = sobolev.derive_rng

    def spy(seed, k, label, salt=""):
        calls.append((seed, k, label, salt))
        return derive(seed, k, label, salt=salt)

    monkeypatch.setattr(sobolev, "derive_rng", spy)
    return calls


def spy_draws(monkeypatch) -> list:
    """Record the (region, k, sample) of every shell of every `sample_profile`
    call of sobolev, one entry per shell of a batch, which shares the
    batch's sample."""
    draws = []
    sample_profile = sobolev.sample_profile

    def spy(params, region, shells, *args, **kwargs):
        sample = sample_profile(params, region, shells, *args, **kwargs)
        draws.extend((region, shell.k, sample) for shell in shells)
        return sample

    monkeypatch.setattr(sobolev, "sample_profile", spy)
    return draws


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
