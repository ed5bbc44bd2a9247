"""Check that two rieszcap source trees give bitwise equal pair sums, probe
iterates and discrepancy estimators.

    python3 scripts/pair_invariance.py REF_SRC [--src SRC]

REF_SRC and SRC (default: this checkout's src/) are `src` directories of two
checkouts, for example a `git archive` of a parent commit.  Each tree runs
in its own process with one BLAS thread and reports:

  * the six starts of the benchmark's probe pool (`bench/workloads.py`,
    `probe_generate(3)`) optimized at s = -1, max_iters 20000,
    grad_tol 3e-5 N: iteration and energy/gradient evaluation counts, stop
    reasons, final energies and a digest of the final points;
  * energies (from the energy-only walk and from the gradient walk) and
    gradients for s in {-1, 0, 1/2, 2}, on the one-strip grid of uniform
    random sets at N in {32, 64, 128} and on multi-strip inputs, whose
    strips share one buffer and repair close pairs: uniform random S^2 at
    N = 600 and 4096, the 4096th roots of unity and uniform random S^3 at
    N = 1000;
  * every `disc` report, as the JSON text of its `to_json()` (floats
    written round-trip exact, keys in order), on the benchmark's
    `disc_generate(7)` inputs: `l2_cap_discrepancy`,
    `l2_cap_discrepancy_direct` and `cap_sup_discrepancy_lower` (1024
    centers on each S^2 set, 256 on S^3) on all of them, and `cui_freeden`,
    `sum_distance_discrepancy`, `leveque_report` and the Weyl sums, both at
    L = 64, on the S^2 sets; and sigma_d on 201 thresholds in [-1, 1] for
    d = 1..8;
  * whether `optimize` with three restarts gives the same result with
    threads=1 and threads=3.

The script prints both reports and one JSON line with the verdict, and
exits 0 when everything is bitwise equal and threads agree, 1 otherwise.
When bits differ it prints one more JSON line with how far they moved: the
largest relative energy difference and the largest gradient difference
over max|g| on both grids, the probe iteration and evaluation counts of
both trees side by side, and the estimator entries that differ.
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
# (label, d, N) of the multi-strip inputs; "roots" is roots_of_unity(N)
MULTI_STRIP = (("S2", 2, 600), ("S2", 2, 4096), ("roots", 1, 4096), ("S3", 3, 1000))
DISC_SEED = 7


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()[:16]


def _sums(energy, inputs, values: dict) -> dict:
    # hex energies and gradient digests by "name s=..."; raw values into `values`
    out = {}
    for name, X in inputs:
        for s in GRID_S:
            e, g = energy.riesz_energy_and_gradient(X, s)
            e_only = energy.riesz_energy(X, s)
            key = f"{name} s={s:g}"
            out[key] = {"energy": e.hex(), "energy_only": e_only.hex(), "gradient": _digest(g)}
            values[key] = {"energy": e, "energy_only": e_only, "gradient": g.tolist()}
    return out


def _estimators(discrepancy, workloads) -> dict:
    # reports and digests by "estimator input"
    inputs = workloads.disc_generate(DISC_SEED)
    cases = [(label, X, workloads.DISC_CENTERS) for label, X in inputs["s2"]]
    cases.append(("s3", inputs["s3"], workloads.DISC_CENTERS_S3))
    out = {}
    for label, X, centers in cases:
        reports = {
            "l2": discrepancy.l2_cap_discrepancy(X),
            "l2-direct": discrepancy.l2_cap_discrepancy_direct(X, centers, DISC_SEED),
            "cap-sup-lower": discrepancy.cap_sup_discrepancy_lower(X, centers, DISC_SEED),
        }
        if X.d == 2:
            reports["cui-freeden"] = discrepancy.cui_freeden(X)
            reports["sum-distance"] = discrepancy.sum_distance_discrepancy(X)
            reports["leveque"] = discrepancy.leveque_report(X, workloads.DISC_DEGREE)
            out[f"weyl {label}"] = _digest(discrepancy.weyl_sums(X, workloads.DISC_DEGREE))
        out.update({f"{kind} {label}": json.dumps(rep.to_json()) for kind, rep in reports.items()})
    t = np.linspace(-1.0, 1.0, 201)
    for d in range(1, 9):
        out[f"sigma d={d}"] = _digest(discrepancy._sigma_cap_values(d, t))
    return out


def report() -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from rieszcap import discrepancy, energy, optimizer, pointsets

    # counted at the optimizer's module name, as bench/tracing.py counts,
    # so trees whose results carry no evaluation counts report them too
    calls = [0]
    evaluate = optimizer.riesz_energy_and_gradient

    def counting(X, s, **kwargs):  # the keywords a tree passes, such as a reused walk
        calls[0] += 1
        return evaluate(X, s, **kwargs)

    optimizer.riesz_energy_and_gradient = counting
    probe = []
    for X0 in workloads.probe_generate(3):
        calls[0] = 0
        cfg = optimizer.OptimizerConfig(
            s=-1.0, max_iters=workloads.PROBE_MAX_ITERS,
            grad_tol=workloads.PROBE_GRAD_TOL_PER_N * X0.n,
        )
        res = optimizer.optimize(X0, cfg, threads=1)
        probe.append({"N": X0.n, "iterations": res.iterations, "evaluations": calls[0],
                      "stop": res.stop_reason,
                      "energy": res.energy.hex(), "points": _digest(res.best.points)})
    optimizer.riesz_energy_and_gradient = evaluate
    values = {}
    grid = _sums(energy, [(f"N={n}", pointsets.random_uniform(2, n, seed=n)) for n in GRID_N],
                 values)
    multi = _sums(energy, [
        (f"{label} N={n}",
         pointsets.roots_of_unity(n) if label == "roots" else pointsets.random_uniform(d, n, seed=n))
        for label, d, n in MULTI_STRIP
    ], values)
    cfg = optimizer.OptimizerConfig(s=-1.0, max_iters=200, grad_tol=1e-6, restarts=3, seed=5)
    X0 = pointsets.random_uniform(2, 48, seed=7)
    serial, threaded = (optimizer.optimize(X0, cfg, threads=t) for t in (1, 3))
    same = serial.to_json() == threaded.to_json() and bool(
        (serial.best.points == threaded.best.points).all()
    )
    return {"probe": probe, "grid": grid, "multi_strip": multi,
            "estimators": _estimators(discrepancy, workloads), "threads_1_vs_3_equal": same,
            "values": values}


def moved(ref: dict, new: dict) -> dict:
    """How far the grid values and the probe iteration and evaluation counts moved."""
    rel_e, rel_g = 0.0, 0.0
    for key, a in ref["values"].items():
        b = new["values"][key]
        for e in ("energy", "energy_only"):
            if a[e] != b[e]:
                rel_e = max(rel_e, abs(b[e] - a[e]) / abs(a[e]))
        ga, gb = np.array(a["gradient"]), np.array(b["gradient"])
        rel_g = max(rel_g, float(np.abs(gb - ga).max() / np.abs(ga).max()))
    return {
        "max_rel_energy_diff": rel_e,
        "max_grad_diff_over_max_g": rel_g,
        "probe_N_iterations_evaluations_ref_vs_src": [
            [p["N"], p["iterations"], q["iterations"], p["evaluations"], q["evaluations"]]
            for p, q in zip(ref["probe"], new["probe"])
        ],
        "estimators_differing": [k for k, v in ref["estimators"].items() if new["estimators"][k] != v],
    }


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
    shown = {tree: {k: v for k, v in rep.items() if k != "values"}
             for tree, rep in (("ref", ref), ("src", new))}
    print(json.dumps(shown, indent=1))
    verdict = {
        "probe_equal": ref["probe"] == new["probe"],
        "grid_equal": ref["grid"] == new["grid"],
        "multi_strip_equal": ref["multi_strip"] == new["multi_strip"],
        "estimators_equal": ref["estimators"] == new["estimators"],
        "iterations": [p["iterations"] for p in new["probe"]],
        "evaluations": [p["evaluations"] for p in new["probe"]],
        "threads_1_vs_3_equal": new["threads_1_vs_3_equal"],
    }
    print(json.dumps(verdict))
    equal = all(verdict[k] for k in ("probe_equal", "grid_equal", "multi_strip_equal", "estimators_equal"))
    if not equal:
        print(json.dumps(moved(ref, new)))
    ok = equal and verdict["threads_1_vs_3_equal"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
