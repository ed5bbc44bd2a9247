"""Check that two rieszcap source trees give bitwise equal pair sums, probe
iterates, discrepancy estimators and command-line output.

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
    L = 64, on the S^2 sets; `l2_cap_discrepancy` on the S^1 sets (roots
    of unity, N = 2^8..2^12) and `mean_distance` of the roots of unity at
    N = 2^13..2^16; and sigma_d on 201 thresholds in [-1, 1] for d = 1..8;
  * whether `optimize` with three restarts gives the same result with
    threads=1 and threads=3;
  * the exit code, stdout, stderr and written files of each command line in
    CLI_CASES, run as `python -m rieszcap` in a fresh directory: every
    subcommand, every --help, --version and the error cases of
    tests/test_cli.py.  `wall_time_s` and the directory's path are masked.
    A final newline after JSON that only one tree writes is listed apart
    and not counted as a difference: JSON point sets gained one;
  * in SRC only, the SCRIPT_CASES run through the console script's route
    (`from rieszcap.__main__ import run`), which must give the same bytes
    as the same tree's `python -m rieszcap`.

The script prints both reports (without the CLI outputs) and one JSON line
with the verdict, and exits 0 when everything is bitwise equal, threads
agree and both entries of SRC agree, 1 otherwise.
When bits differ it prints one more JSON line with how far they moved: the
largest relative energy difference and the largest gradient difference
over max|g| on both grids, the probe iteration and evaluation counts of
both trees side by side, and the estimator entries and command lines that
differ, with each differing S^1 entry's distance in ulps of its mean
distance (for `l2` reports and `predict` rows, that of D^2 scaled by
ratio(1) = 1/pi).
It is not a test: bitwise equality across trees depends on the BLAS
kernels, and so on the host and the BLAS build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GRID_N = (32, 64, 128)
GRID_S = (-1.0, 0.0, 0.5, 2.0)
# (label, d, N) of the multi-strip inputs; "roots" is roots_of_unity(N)
MULTI_STRIP = (("S2", 2, 600), ("S2", 2, 4096), ("roots", 1, 4096), ("S3", 3, 1000))
DISC_SEED = 7
S1_MEAN_N = tuple(2**k for k in range(13, 17))  # roots of unity beyond disc's S^1 sweep

# stdin texts of the CLI cases.  A tuple is a pointsets constructor and its
# arguments, written as CSV, whose bytes both trees share.
CLI_STDIN = {
    "s2": ("fibonacci_sphere", 40),
    "s2-small": ("fibonacci_sphere", 12),
    "s3": ("random_uniform", 3, 30, 2),
    "s1": ("roots_of_unity", 16),
    "tiny": ("roots_of_unity", 3),
    "json": '{"d": 2, "points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]}',
    "json-strings": '{"d": 2, "points": [["a", "b", "c"]]}',
    "json-object": '{"d": 2, "points": [[1, 0, {}]]}',
    "json-bool-d": '{"d": true, "points": [[1.0, 0.0]]}',
    "empty": "",
    "fit": "16,0.5\n32,0.3\n64,0.2\n128,0.11\n",
    "fit-header": "N,value\n16,0.5\n32,0.3\n64,0.2\n",
    "fit-broken": "4,1.0\nbroken\n",
    "fit-three": "16,0.5,9\n32,0.3,x\n",
    "fit-late-header": "# samples\n16,0.5\nN,value\n",
    "fit-degenerate": "4,1.0\n4,2.0\n",
}
# files written to {tmp} before each case, in the same form
CLI_FILES = {
    "pts.csv": CLI_STDIN["s2"],
    "fit.csv": CLI_STDIN["fit"],
    "broken.json": "{not json",
    "list.json": "[1, 2]",
    **{f"{name}.json": json.dumps(config) for name, config in {
        "gen": {"kind": "roots-of-unity", "n": 6},
        "gen-bogus": {"kind": "roots-of-unity", "n": 6, "bogus": 1},
        "gen-n-str": {"kind": "roots-of-unity", "n": "abc"},
        "gen-n-float": {"kind": "roots-of-unity", "n": 3.7},
        "gen-n-bool": {"kind": "roots-of-unity", "n": True},
        "gen-kind-obj": {"kind": {"a": 1}},
        "gen-other-kind": {"kind": "fibonacci", "n": 4, "seed": 3},
        "energy-s-str": {"s": "xml"},
        "disc-kind-str": {"kind": "xml"},
        "disc-kind-list": {"kind": ["l2"]},
        "optimize": {"s": -1},
        "verify-suite-list": {"suite": ["constants"]},
    }.items()},
}
# command line (shlex syntax; {tmp} is the case's directory), stdin key or None
CLI_CASES = [
    ("", None), ("--help", None), ("-h", None), ("--version", None), ("no-such-command", None),
    *((f"{command} --help", None)
      for command in ("gen", "energy", "disc", "optimize", "constants", "predict", "fit", "verify")),
    # gen
    ("gen --kind roots-of-unity --n 8", None),
    ("gen --kind random --n 5 --seed 3", None),
    ("gen --kind random --d 4 --n 5", None),
    ("gen --kind fibonacci --n 12", None),
    ("gen --kind hammersley-sphere --n 16", None),
    ("gen --kind fibonacci --n 6 --format json", None),
    ("gen --kind roots-of-unity --n 5 --format csv", None),
    ("gen --kind fibonacci --n 6 --out {tmp}/out.json", None),
    ("gen --kind fibonacci --n 6 --out {tmp}/out.csv", None),
    ("gen --kind fibonacci --n 6 --format csv --out {tmp}/out.json", None),
    ("gen --kind fibonacci --n 6 --format json --out {tmp}/out.txt", None),
    ("gen --n 5", None),
    ("gen --kind roots-of-unity --n 5 --d 2", None),
    ("gen --kind fibonacci --n 5 --d 3", None),
    ("gen --kind hammersley-sphere --n 6", None),
    ("gen --kind random --n 3 --seed -1", None),
    ("gen --kind fibonacci --n 4 --seed 3", None),
    ("gen --kind nope --n 3", None),
    ("gen --kind random --n 0", None),
    ("gen --kind fibonacci --n 4 --format xml", None),
    ("gen --config {tmp}/gen.json", None),
    ("gen --config {tmp}/gen.json --n 9", None),
    ("gen --config {tmp}/gen-bogus.json", None),
    ("gen --config {tmp}/gen-n-str.json", None),
    ("gen --config {tmp}/gen-n-float.json", None),
    ("gen --config {tmp}/gen-n-bool.json", None),
    ("gen --config {tmp}/gen-kind-obj.json", None),
    ("gen --config {tmp}/gen-other-kind.json", None),
    ("gen --config {tmp}/broken.json", None),
    ("gen --config {tmp}/list.json", None),
    ("gen --config {tmp}/missing.json", None),
    # energy
    ("energy --s -1", "s2"),
    ("energy --s 0.5", "s2"),
    ("energy --s 3.0", "s2"),
    ("energy --s 0", "s1"),
    ("energy --s -1", "json"),
    ("energy", "s2"),
    ("energy --s -1 --format csv", "s2"),
    ("energy --config {tmp}/energy-s-str.json", "tiny"),
    # disc
    ("disc --kind l2", "s2"),
    ("disc --kind l2-direct --centers 64", "s2"),
    ("disc --kind cui-freeden", "s2"),
    ("disc --kind sum-distance", "s2"),
    ("disc --kind cap-sup-lower --centers 64", "s2"),
    ("disc --kind leveque --degree 8", "s2"),
    ("disc --kind weyl --degree 6", "s2"),
    ("disc --kind l2", "s3"),
    ("disc --kind l2", "s1"),
    ("disc --kind l2-direct --centers 32 --seed 2", "s3"),
    ("disc --kind l2", "json"),
    ("disc --kind l2 --in {tmp}/pts.csv --out {tmp}/disc.json", None),
    ("disc --kind weyl", "s3"),
    *((f"disc --kind {kind} --degree {degree}", "s2-small")
      for kind in ("weyl", "leveque") for degree in (0, 257)),
    ("disc --kind l2", "empty"),
    ("disc --kind l2", "json-strings"),
    ("disc --kind l2", "json-object"),
    ("disc --kind l2", "json-bool-d"),
    ("disc --kind no-such-kind", "tiny"),
    ("disc --threads 2", "tiny"),
    ("disc --kind l2-direct --seed -1", "tiny"),
    ("disc --kind l2 --degree 6", "tiny"),
    ("disc --kind weyl --seed 3", "tiny"),
    ("disc --kind l2 --in {tmp}/missing.csv", None),
    ("disc --format json", "tiny"),
    ("disc --config {tmp}/disc-kind-str.json", "tiny"),
    ("disc --config {tmp}/disc-kind-list.json", "tiny"),
    # optimize
    ("optimize --s -1", "s2-small"),
    ("optimize --s -1 --points-out {tmp}/best.json --trace-out {tmp}/trace.csv", "s2-small"),
    ("optimize --s -1 --points-out {tmp}/best.csv", "s2-small"),
    ("optimize --s 1 --restarts 3 --seed 4 --threads 2 --max-iters 300", "s2-small"),
    ("optimize --config {tmp}/optimize.json", "tiny"),
    ("optimize", "tiny"),
    ("optimize --s -1 --threads 0", "tiny"),
    ("optimize --s -1 --seed -1", "tiny"),
    ("optimize --s inf", "tiny"),
    ("optimize --s abc", "tiny"),
    ("optimize --s -1 --grad-tol 0", "tiny"),
    ("optimize --s -1 --points-out {tmp}/no/such/dir/best.json", "tiny"),
    ("optimize --s -1 --trace-out {tmp}/no/such/dir/trace.csv", "tiny"),
    ("optimize --s -1 --format csv", "tiny"),
    # constants
    ("constants", None),
    ("constants --name A2", None),
    ("constants --name nope", None),
    ("constants --out {tmp}/constants.json", None),
    ("constants --out {tmp}/no/such/dir/x.json", None),
    ("constants --format json", None),
    # predict
    ("predict --ns 2,4,8 --p 1", None),
    ("predict --ns 4,8 --format json", None),
    ("predict --out {tmp}/predict.csv", None),
    ("predict --ns a,b", None),
    ("predict --ns ,", None),
    ("predict --ns 0", None),
    ("predict --ns -4", None),
    ("predict --ns 65536", None),
    # fit
    ("fit", "fit"),
    ("fit --in {tmp}/fit.csv", None),
    ("fit", "fit-header"),
    ("fit", "fit-broken"),
    ("fit", "fit-three"),
    ("fit", "fit-late-header"),
    ("fit", "fit-degenerate"),
    ("fit --in {tmp}/missing.csv", None),
    # verify
    ("verify --suite stolarsky --d 2 --n 50 --seed 1", None),
    ("verify --suite stolarsky --d 1 --n 30 --seed 2", None),
    ("verify --suite constants", None),
    ("verify --suite zeta", None),
    ("verify --suite bernoulli", None),
    ("verify --suite stolarsky --seed -1", None),
    ("verify --suite zeta --n 10", None),
    ("verify", None),
    ("verify --config {tmp}/verify-suite-list.json", None),
]
# CLI_CASES that SRC also runs through the console script's route
SCRIPT_CASES = [
    ("gen --kind fibonacci --n 12", None),
    ("disc --kind l2", "s2"),
    ("optimize --s -1", "s2-small"),
    ("disc --kind l2 --in {tmp}/missing.csv", None),
]
ENTRIES = {"module": ["-m", "rieszcap"],
           "script": ["-c", "import sys; from rieszcap.__main__ import run; sys.exit(run())"]}


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


def _estimators(discrepancy, pointsets, workloads) -> dict:
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
    for X in inputs["s1"]:
        out[f"l2 s1 N={X.n}"] = json.dumps(discrepancy.l2_cap_discrepancy(X).to_json())
    for n in S1_MEAN_N:
        out[f"mean_distance s1 N={n}"] = json.dumps(discrepancy.mean_distance(pointsets.roots_of_unity(n)))
    t = np.linspace(-1.0, 1.0, 201)
    for d in range(1, 9):
        out[f"sigma d={d}"] = _digest(discrepancy._sigma_cap_values(d, t))
    return out


def _cli_outputs(pointsets, cases, entry: str) -> dict:
    """Each case's exit code, stdout, stderr and the files it wrote, masked,
    run through the ENTRIES `entry`."""
    def text(val) -> str:
        return val if isinstance(val, str) else pointsets.dumps_pointset(getattr(pointsets, val[0])(*val[1:]))

    stdin = {key: text(val) for key, val in CLI_STDIN.items()}
    files = {name: text(val) for name, val in CLI_FILES.items()}
    env = dict(os.environ, PYTHONPATH=str(Path(pointsets.__file__).resolve().parents[1]))  # this tree
    out = {}
    for line, key in cases:
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                Path(tmp, name).write_text(content, encoding="utf-8")
            proc = subprocess.run([sys.executable, *ENTRIES[entry], *shlex.split(line.format(tmp=tmp))],
                                  input="" if key is None else stdin[key], capture_output=True, text=True,
                                  cwd=tmp, env=env, timeout=300)

            def mask(text: str) -> str:
                return re.sub(r'"wall_time_s": [-+.e0-9]+', '"wall_time_s": "*"', text.replace(tmp, "{tmp}"))

            written = {path.name: mask(path.read_text(encoding="utf-8"))
                       for path in sorted(Path(tmp).iterdir()) if path.name not in files}
            out[f"{line} <{key}"] = {"exit": proc.returncode, "stdout": mask(proc.stdout),
                                     "stderr": mask(proc.stderr), "files": written}
    return out


def _cli_compare(ref: dict, new: dict) -> tuple[list, list]:
    """The CLI cases that differ, and those that differ only by a final
    newline after JSON text that one tree writes."""
    def strip(case: dict) -> dict:
        def one(text: str) -> str:
            return text.removesuffix("\n") if text.endswith("}\n") else text

        return {**case, "stdout": one(case["stdout"]),
                "files": {name: one(text) for name, text in case["files"].items()}}

    differ, newline_only = [], []
    for label, case in ref.items():
        if new[label] != case:
            (newline_only if strip(new[label]) == strip(case) else differ).append(label)
    return differ, newline_only


def report(script: bool) -> dict:
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
    out = {"probe": probe, "grid": grid, "multi_strip": multi,
           "estimators": _estimators(discrepancy, pointsets, workloads), "threads_1_vs_3_equal": same,
           "values": values, "cli": _cli_outputs(pointsets, CLI_CASES, "module")}
    if script:
        out["cli_script"] = _cli_outputs(pointsets, SCRIPT_CASES, "script")
    return out


def _s1_ulps(ref: str, new: str):
    """An S^1 estimator entry's distance in ulps of its mean distance; an
    `l2` report's D^2 = (4/pi - mean)/pi moves by 1/pi of the mean's."""
    a, b = json.loads(ref), json.loads(new)
    if isinstance(a, float):
        return abs(b - a) / math.ulp(a)
    a, b = a["diagnostics"], b["diagnostics"]
    unit = math.ulp(a["mean_distance"])
    return {"mean_distance": abs(b["mean_distance"] - a["mean_distance"]) / unit,
            "d_squared": math.pi * abs(b["d_squared"] - a["d_squared"]) / unit}


def _predict_ulps(ref: dict, new: dict) -> dict:
    """measured_dsq of each differing row of a `predict` case (CSV on stdout
    or in a file) in ulps of the mean distance 4/pi - pi D^2, as above."""
    out = {}
    for a, b in zip(*((case["stdout"], *case["files"].values()) for case in (ref, new))):
        if a.startswith("N,"):
            for row_a, row_b in zip(a.splitlines()[1:], b.splitlines()[1:]):
                n, _, da = row_a.split(",")
                da, db = float(da), float(row_b.split(",")[2])
                if da != db:
                    out[f"N={n}"] = math.pi * abs(db - da) / math.ulp(4 / math.pi - math.pi * da)
    return out


def moved(ref: dict, new: dict) -> dict:
    """How far the grid values and the probe iteration and evaluation counts
    moved, and which estimators and CLI cases differ."""
    rel_e, rel_g = 0.0, 0.0
    cli_differing = _cli_compare(ref["cli"], new["cli"])[0]
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
        "s1_ulps_of_mean": {k: _s1_ulps(v, new["estimators"][k]) for k, v in ref["estimators"].items()
                            if " s1 " in k and new["estimators"][k] != v},
        "cli_differing": cli_differing,
        "predict_ulps_of_mean": {label: _predict_ulps(ref["cli"][label], new["cli"][label])
                                 for label in cli_differing if label.startswith("predict ")},
    }


def _run(src: Path, *flags: str) -> dict:
    # no bytecode cache is left in either tree: a timed run there would read it
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--report", *flags], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", type=Path, help="src directory of the reference tree")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--report", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--script", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.report:
        print(json.dumps(report(args.script)))
        return 0
    if args.ref is None:
        parser.error("REF_SRC is required")
    ref, new = _run(args.ref.resolve()), _run(args.src.resolve(), "--script")
    shown = {tree: {k: v for k, v in rep.items() if k not in ("values", "cli", "cli_script")}
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
    cli_differing, verdict["cli_json_newline_only"] = _cli_compare(ref["cli"], new["cli"])
    verdict["cli_equal"] = not cli_differing
    verdict["cli_cases"] = len(new["cli"])
    verdict["script_differing"] = [label for label, case in new["cli_script"].items() if new["cli"][label] != case]
    verdict["script_cases"] = len(new["cli_script"])
    print(json.dumps(verdict))
    equal = all(verdict[k] for k in ("probe_equal", "grid_equal", "multi_strip_equal", "estimators_equal",
                                     "cli_equal"))
    if not equal:
        print(json.dumps(moved(ref, new)))
    ok = equal and verdict["threads_1_vs_3_equal"] and not verdict["script_differing"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
