"""Spans around the calls into each rieszcap module, kept in memory.

A span is [name, start, end, parent, n]: `parent` is the index of the
enclosing span (-1 at top level) and `n` the point count of the call's
first argument when it is a PointSet.  A disabled tracer passes calls
straight through, so untraced passes pay one extra Python call per
operation.  `Tracer.patched()` also wraps the module-level names that
library code calls through, and restores them on exit.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc

import rieszcap.discrepancy
import rieszcap.optimizer

MB = 1e6

# (module, attribute, span name): names the library itself calls through
PATCH_TARGETS = (
    (rieszcap.optimizer, "riesz_energy_and_gradient", "energy.grad"),
    (rieszcap.optimizer, "PointSet", "pointsets.construct"),
    (rieszcap.discrepancy, "riesz_energy", "energy.energy"),
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.energy_peak_bytes = 0
        self._stack: list[int] = []
        self._mem_probed: set = set()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name` when enabled.

        The first energy call per (name, n) also records its tracemalloc
        peak; numpy reports its buffers to tracemalloc.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        n = getattr(args[0], "n", None) if args else None
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, n]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        probe = name.startswith("energy.") and (name, n) not in self._mem_probed
        if probe:
            self._mem_probed.add((name, n))
            tracemalloc.start()
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if probe:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.energy_peak_bytes = max(self.energy_peak_bytes, peak)

    @contextlib.contextmanager
    def patched(self):
        """Enable tracing and wrap PATCH_TARGETS; undo both on exit."""
        originals = []
        try:
            for module, attr, name in PATCH_TARGETS:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "n"], "spans": self.spans}, fh)


def _durations(spans):
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    return dur, child


# the seed's pair-kernel code paths switch at these N
N_BUCKETS = (("le_1500", 1500), ("le_2048", 2048), ("gt_2048", None))
DISC_KINDS = ("l2", "l2_direct", "cap_sup_lower", "weyl", "leveque", "cui_freeden", "sum_distance")

# every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    "pointsets.construct_calls": "count",
    "pointsets.construct_s": "s",
    "pointsets.dumps_s": "s",
    "pointsets.loads_s": "s",
    "pointsets.generate_s": "s",
    "energy.calls": "count",
    "energy.busy_s": "s",
    "energy.grad_calls": "count",
    "energy.grad_busy_s": "s",
    **{
        f"energy.{what}_{label}": unit
        for label, _ in N_BUCKETS
        for what, unit in (("pairs", "count"), ("pairs_per_s", "1/s"))
    },
    "energy.peak_alloc_mb": "MB",
    "optimizer.evals": "count",
    "optimizer.iterations": "count",
    "optimizer.evals_per_iter": "ratio",
    "optimizer.accept_frac": "ratio",
    "optimizer.converged_frac": "ratio",
    "optimizer.self_s": "s",
    **{
        f"discrepancy.{kind}_{what}": unit
        for kind in DISC_KINDS
        for what, unit in (("s", "s"), ("calls", "count"))
    },
    "discrepancy.l2_energy_frac": "ratio",
    "discrepancy.l2_rel_err_s1": "ratio",
    "asymptotics.busy_s": "s",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def _bucket(n: int) -> str:
    return next(label for label, top in N_BUCKETS if top is None or n <= top)


def span_metrics(spans, passes: int, setup_reps: int, energy_peak_bytes: int) -> dict:
    """Per-layer metrics from spans; totals are per traced pass of the
    workload (per set-up repetition for `pointsets.generate_s`)."""
    dur, child = _durations(spans)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    pairs = {label: 0 for label, _ in N_BUCKETS}
    pair_time = {label: 0.0 for label, _ in N_BUCKETS}
    evals = 0
    optimizer_self = 0.0
    l2_energy = 0.0
    for i, (name, _, _, parent, n) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if name.startswith("energy."):
            pairs[_bucket(n)] += n * (n - 1)
            pair_time[_bucket(n)] += dur[i]
            if parent_name == "discrepancy.l2":
                l2_energy += dur[i]
            if name == "energy.grad" and parent_name == "optimizer.optimize":
                evals += 1
        elif name == "optimizer.optimize":
            optimizer_self += dur[i] - child[i]

    def per_pass(x):
        return x / passes

    out = {
        "pointsets.construct_calls": per_pass(calls.get("pointsets.construct", 0)),
        "pointsets.construct_s": per_pass(busy.get("pointsets.construct", 0.0)),
        "pointsets.dumps_s": per_pass(busy.get("pointsets.dumps", 0.0)),
        "pointsets.loads_s": per_pass(busy.get("pointsets.loads", 0.0)),
        "pointsets.generate_s": busy.get("pointsets.generate", 0.0) / setup_reps,
        "energy.calls": per_pass(calls.get("energy.energy", 0)),
        "energy.busy_s": per_pass(busy.get("energy.energy", 0.0)),
        "energy.grad_calls": per_pass(calls.get("energy.grad", 0)),
        "energy.grad_busy_s": per_pass(busy.get("energy.grad", 0.0)),
        "energy.peak_alloc_mb": energy_peak_bytes / MB,
        "optimizer.evals": per_pass(evals),
        "optimizer.self_s": per_pass(optimizer_self),
        "discrepancy.l2_energy_frac": (
            l2_energy / busy["discrepancy.l2"] if busy.get("discrepancy.l2") else 0.0
        ),
        "asymptotics.busy_s": per_pass(
            sum(t for name, t in busy.items() if name.startswith("asymptotics."))
        ),
    }
    for label, _ in N_BUCKETS:
        out[f"energy.pairs_{label}"] = per_pass(pairs[label])
        out[f"energy.pairs_per_s_{label}"] = (
            pairs[label] / pair_time[label] if pair_time[label] > 0.0 else 0.0
        )
    for kind in DISC_KINDS:
        out[f"discrepancy.{kind}_s"] = per_pass(busy.get(f"discrepancy.{kind}", 0.0))
        out[f"discrepancy.{kind}_calls"] = per_pass(calls.get(f"discrepancy.{kind}", 0))
    return out

