"""rieszcap benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload probe --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One workload per call prints host facts, each metric by name with its unit,
and, as the last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  `--workload all` runs every workload untraced and
traced, each in its own process, and prints a summary.  Exit status: 0 when
every check passed, 1 when a check failed, 2 when the checkout has no
rieszcap source.  Workloads are described in workloads.py; the pass times
of probe and cli are scaled to a nominal host speed, as workloads.Meter
explains, and the raw wall time per pass is printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("probe", "large", "disc", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-vCPU host a second thread left disc and large no
# faster in wall time, cost up to 50% more CPU, and made disc passes vary by
# 10-30% with whatever else ran on the other vCPU.
BLAS_THREADS = 1


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}_{kind.lower()}"] = size
    return caches


def host_facts(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "caches": _cache_sizes(),
        "loadavg_at_start": os.getloadavg(),
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def run_one(args, host: dict) -> int:
    import tracing
    import workloads

    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), str(ROOT))
    attempted, failed = res["attempted"], res["failed"]
    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload}, seed {args.seed}, {res['passes']} untraced pass(es), "
          f"{res['raw_wall_s']:.6g} s of wall time per pass as measured")
    if args.trace:
        metrics = _metrics(res["layers"], tracing.PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        res["tracer"].write(OUT_DIR / f"spans_{args.workload}_{args.seed}.json")
    else:
        metrics = _metrics(res["e2e"], workloads.END_TO_END)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ops_frac':32s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args, host: dict) -> int:
    """Each workload untraced and traced, each in a fresh process."""
    summary = {"host": host, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[1:-1]))
            if proc.returncode or not lines:
                status = 1
            if lines:
                last = json.loads(lines[-1])
                entry["failed_ops_frac"] = last["failed"] / last["attempted"]
                entry["metrics" if trace == 0 else "per_layer"] = {
                    k: v["value"] for k, v in last["metrics"].items()
                }
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rieszcap" / "__init__.py").is_file():
        print(f"error: no rieszcap source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # read when numpy is first imported, here and in children
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(1, str(SRC))
    host = host_facts(nproc)
    if args.workload == "all":
        return run_all(args, host)
    return run_one(args, host)


if __name__ == "__main__":
    sys.exit(main())
