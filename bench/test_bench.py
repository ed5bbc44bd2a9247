"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import pytest  # noqa: E402

import rieszcap.discrepancy  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rieszcap import optimizer, pointsets  # noqa: E402
import tracing  # noqa: E402
from tracing import PATCH_TARGETS, Tracer, span_metrics  # noqa: E402


def test_patched_restores_originals_even_on_error():
    originals = [getattr(module, attr) for module, attr, _ in PATCH_TARGETS]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            for (module, attr, _), original in zip(PATCH_TARGETS, originals):
                assert getattr(module, attr) is not original
                assert getattr(module, attr).__wrapped__ is original
            raise RuntimeError("boom")
    for (module, attr, _), original in zip(PATCH_TARGETS, originals):
        assert getattr(module, attr) is original
    assert not tracer.enabled


def test_meter_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with workloads.Meter() as meter:
        assert signal.getsignal(signal.SIGALRM) is not before
        meter(time.sleep, 0.12)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 2  # one on entry, then one per interval
    assert meter.wall >= 0.12 and meter.nominal_wall > 0.0


def test_counted_evaluations_match_hand_count():
    X0 = pointsets.random_uniform(2, 6, seed=5)
    cfg = optimizer.OptimizerConfig(s=-1.0, max_iters=25, grad_tol=1e-12)
    tracer = Tracer()
    with tracer.patched():
        res = tracer.call("optimizer.optimize", optimizer.optimize, X0, cfg, keep_trace=True)
    assert res.stop_reason == "max_iters"
    # one evaluation at the start, then per iteration one trial per step
    # size tried: the step halves from twice the last accepted one
    expected = 1
    step = cfg.step_init
    for _, _, _, accepted in res.trace[1:]:
        expected += round(math.log2(step / accepted)) + 1
        step = 2.0 * accepted
    layers = span_metrics(tracer.spans, passes=1, setup_reps=1, energy_peak_bytes=0)
    assert layers["optimizer.evals"] == expected
    assert layers["energy.grad_calls"] == expected
    assert layers["pointsets.construct_calls"] == expected + 1  # one per evaluation, one for the result
    assert 0.0 < layers["optimizer.self_s"] < tracer.spans[0][2] - tracer.spans[0][1]


def test_self_time_subtracts_children():
    spans = [
        ["optimizer.optimize", 0.0, 10.0, -1, None],
        ["energy.grad", 1.0, 3.0, 0, 4],
        ["pointsets.construct", 4.0, 4.5, 0, None],
        ["discrepancy.l2", 10.0, 12.0, -1, 4],
        ["energy.energy", 10.5, 11.0, 3, 4],
    ]
    layers = span_metrics(spans, passes=2, setup_reps=1, energy_peak_bytes=0)
    assert layers["optimizer.self_s"] == pytest.approx(7.5 / 2)
    assert layers["optimizer.evals"] == 0.5
    assert layers["discrepancy.l2_energy_frac"] == pytest.approx(0.25)
    assert layers["energy.pairs_le_1500"] == 2 * 12 / 2


@pytest.fixture
def tiny_probe(monkeypatch):
    monkeypatch.setattr(workloads, "PROBE_SIZES", (32,))
    monkeypatch.setattr(workloads, "PROBE_STARTS", 1)
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)


def test_tiny_probe_passes(tiny_probe):
    res = workloads.run("probe", seed=2, seconds=0.0, trace=False, root=str(ROOT))
    assert (res["attempted"], res["failed"]) == (1, 0)


def test_failing_check_raises_failed_ops_frac(tiny_probe, monkeypatch):
    original = rieszcap.discrepancy.l2_cap_discrepancy

    def off_by_a_lot(X):
        rep = original(X)
        return rieszcap.discrepancy.DiscrepancyReport(rep.kind, 2.0 * rep.value, rep.diagnostics)

    monkeypatch.setattr(rieszcap.discrepancy, "l2_cap_discrepancy", off_by_a_lot)
    res = workloads.run("probe", seed=2, seconds=0.0, trace=False, root=str(ROOT))
    assert res["failed"] / res["attempted"] > 0.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
