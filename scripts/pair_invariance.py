"""Check that two rieszcap source trees give bitwise equal pair sums and
probe iterates.

    python3 scripts/pair_invariance.py REF_SRC [--src SRC]

REF_SRC and SRC (default: this checkout's src/) are `src` directories of two
checkouts, for example a `git archive` of a parent commit.  Each tree runs
in its own process with one BLAS thread and reports:

  * the six starts of the benchmark's probe pool (`bench/workloads.py`,
    `probe_generate(3)`) optimized at s = -1, max_iters 20000,
    grad_tol 3e-5 N: iteration counts, stop reasons, final energies and a
    digest of the final points;
  * energies and gradients of uniform random sets at N in {32, 64, 128}
    for s in {-1, 0, 1/2, 2};
  * whether `optimize` with three restarts gives the same result with
    threads=1 and threads=3.

The script prints both reports and one JSON line with the verdict, and
exits 0 when everything is bitwise equal and threads agree, 1 otherwise.
It is not a test: bitwise equality across trees depends on the BLAS
kernels, and so on the host and the BLAS build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GRID_N = (32, 64, 128)
GRID_S = (-1.0, 0.0, 0.5, 2.0)


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()[:16]


def report() -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from rieszcap import energy, optimizer, pointsets

    probe = []
    for X0 in workloads.probe_generate(3):
        cfg = optimizer.OptimizerConfig(
            s=-1.0, max_iters=workloads.PROBE_MAX_ITERS,
            grad_tol=workloads.PROBE_GRAD_TOL_PER_N * X0.n,
        )
        res = optimizer.optimize(X0, cfg, threads=1)
        probe.append({"N": X0.n, "iterations": res.iterations, "stop": res.stop_reason,
                      "energy": res.energy.hex(), "points": _digest(res.best.points)})
    grid = {}
    for n in GRID_N:
        X = pointsets.random_uniform(2, n, seed=n)
        for s in GRID_S:
            e, g = energy.riesz_energy_and_gradient(X, s)
            grid[f"N={n} s={s:g}"] = {"energy": e.hex(), "gradient": _digest(g)}
    cfg = optimizer.OptimizerConfig(s=-1.0, max_iters=200, grad_tol=1e-6, restarts=3, seed=5)
    X0 = pointsets.random_uniform(2, 48, seed=7)
    serial, threaded = (optimizer.optimize(X0, cfg, threads=t) for t in (1, 3))
    same = serial.to_json() == threaded.to_json() and bool(
        (serial.best.points == threaded.best.points).all()
    )
    return {"probe": probe, "grid": grid, "threads_1_vs_3_equal": same}


def _run(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--report"], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", type=Path, help="src directory of the reference tree")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--report", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.report:
        print(json.dumps(report()))
        return 0
    if args.ref is None:
        parser.error("REF_SRC is required")
    ref, new = _run(args.ref.resolve()), _run(args.src.resolve())
    print(json.dumps({"ref": ref, "src": new}, indent=1))
    verdict = {
        "probe_equal": ref["probe"] == new["probe"],
        "grid_equal": ref["grid"] == new["grid"],
        "iterations": [p["iterations"] for p in new["probe"]],
        "threads_1_vs_3_equal": new["threads_1_vs_3_equal"],
    }
    print(json.dumps(verdict))
    ok = verdict["probe_equal"] and verdict["grid_equal"] and verdict["threads_1_vs_3_equal"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
