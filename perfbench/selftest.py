"""Self-test of the benchmark's checkers on tiny synthetic outputs.

Each case feeds a checker a correct output, which must pass, and the same
output with one planted error (a flipped verdict, a perturbed shell mass, a
wrong chart image), which must count as exactly one failed operation.
`run.py` runs it before every measurement; `python3 perfbench/selftest.py`
runs it alone.
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _csv(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _expect(label: str, check, good, bad) -> list[str]:
    problems = []
    ops, failures = check(good)
    if failures:
        problems.append(f"{label}: correct output rejected: {failures[:1]}")
    ops_bad, failures = check(bad)
    if len(failures) != 1 or ops_bad != ops:
        problems.append(f"{label}: planted error gave {len(failures)} failures, want 1")
    return problems


def _sweep_case(workloads, oracles) -> list[str]:
    scheme, n, s = "r1", 3, 2.0
    cells = [(2.0, 1.1), (4.0, 3.5)]
    rows = []
    for p, q in cells:
        for region in workloads.REGIONS[scheme]:
            e = oracles.shell_exponent(region, p, q, n, s)
            rows.append([region, p, q, repr(e), "Convergent" if e > -1.0 else "Divergent"])
    header = ["region", "p", "q", "e_predicted", "verdict"]
    flipped = [list(r) for r in rows]
    flipped[4][4] = "Convergent" if flipped[4][4] == "Divergent" else "Divergent"
    return _expect("flipped sweep verdict", workloads.sweep_checker(scheme, n, s, cells),
                   workloads.CliResult(0, None, _csv(header, rows)),
                   workloads.CliResult(0, None, _csv(header, flipped)))


def _mass_case(workloads, oracles) -> list[str]:
    scheme, n, s, fn, p, q, _, expected = workloads.EXPERIMENTS[1]
    ks = range(workloads.EXT_K[0], workloads.EXT_K[1] + 1)
    exact = oracles.extension_shell_masses(fn, scheme, n, s, q, ks)
    verdict = oracles.tail_verdict([v + g for v, g in exact])
    rows = [[k, repr(v), repr(g), verdict] for k, (v, g) in zip(ks, exact)]
    header = ["k", "Lq_value_term", "Lq_grad_term", "verdict"]
    perturbed = [list(r) for r in rows]
    perturbed[7][2] = repr(float(perturbed[7][2]) * 1.25)
    return _expect("perturbed shell mass",
                   workloads.extension_checker(scheme, n, s, fn, q, expected),
                   workloads.CliResult(0, None, _csv(header, rows)),
                   workloads.CliResult(0, None, _csv(header, perturbed)))


def _image_case(workloads) -> list[str]:
    points = workloads.map_points(seed=0)
    block = workloads.scalar_block("apply", points, None, workloads.check_apply)
    good = [m.image for m in points]
    bad = [img.copy() for img in good]
    bad[40][0] += 1e-6
    return _expect("wrong chart image", block.check, good, bad)


def run() -> list[str]:
    """Problems found in the checkers; empty when they all work."""
    import oracles
    import workloads

    return _sweep_case(workloads, oracles) + _mass_case(workloads, oracles) + _image_case(workloads)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    found = run()
    for line in found:
        print(line)
    print("selftest:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
