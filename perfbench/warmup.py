"""First call of a workload, the lazy set-up its timed passes must not pay.

`python3 perfbench/warmup.py <workload> <out_dir>` runs it in a fresh
interpreter and prints one JSON line with the import and first-call times;
`run.py` times such processes for `setup_s` and calls `first_call` in its own
process before the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def first_call(workload: str, out_dir: Path) -> None:
    from cuspreflect import checks, cli, extension, geometry, reflections

    if workload == "window_sweep":
        args = ["sweep", "--scheme", "r2", "--p", "2", "--q", "1.3", "--samples", "64",
                "--k-max", "11"]
    elif workload == "extension_norms":
        args = ["extendnorm", "--function", "power:1.4", "--p", "2", "--q", "1.1",
                "--samples", "64", "--k-max", "11"]
    elif workload == "point_maps":
        params = geometry.CuspParams(3, 2.0)
        z = geometry.Point(-0.2, [0.05, 0.0])
        img = reflections.apply(reflections.ChartId.R1Outer, params, z)
        reflections.differential(reflections.ChartId.R1Outer, params, z)
        reflections.invert(reflections.ChartId.R1Outer, params, img)
        geometry.classify(params, "R1", z)
        spec = extension.ExtensionSpec("R1", extension.Direction.FromInside)
        extension.extend_eval(spec, params, extension.PowerAlpha(0.7), z)
        extension.cutoff_psi(params, z)
        checks.check_interface_continuity(params, 10)
        return
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*args, "--out", str(out_dir / f"warmup-{workload}.csv")])
    if rc != 0:
        raise RuntimeError(f"warm-up {args[0]} exited with {rc}")


def main(workload: str, out_dir: str) -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cuspreflect  # noqa: F401

    imported = time.perf_counter()
    first_call(workload, Path(out_dir))
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "first_call_s": done - imported}))


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    main(sys.argv[1], sys.argv[2])
