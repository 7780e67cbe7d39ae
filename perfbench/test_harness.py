"""Tests of the benchmark harness itself.

Run with ``python3 -m pytest perfbench/test_harness.py``.  The smoke
tests run every workload at about 1/20 scale (under a minute each) and
check that every metric ``BENCHMARK.json`` lists is reported with its
unit and that every correctness check passed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from stats import p99_or_max, percentile, quartiles, spread, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Order statistics and the bound rule.
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n", [10, 999, 1000, 1001, 5000])
def test_tail_keeps_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    tail = p99_or_max(values)
    beyond = sum(1 for v in values if v > tail)
    if n < 1000:
        assert tail == max(values)
    else:
        assert tail == percentile(values, 99)
        assert beyond >= 10


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    q1, median, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / median)


def test_verdict_applies_the_bound_in_the_metric_direction():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    slower = [112.0, 113.0, 111.0, 112.5, 111.5]
    assert verdict(base, slower, "lower", 0.1)["verdict"] == "regression"
    assert verdict(base, slower, "higher", 0.1)["verdict"] == "ok"
    within = [105.0, 106.0, 104.0, 105.5, 104.5]
    assert verdict(base, within, "lower", 0.1)["verdict"] == "ok"


def test_noisy_sides_are_unresolved_unless_every_run_is_better():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    worse = [95.0, 125.0, 140.0, 110.0, 105.0]
    assert verdict(noisy, worse, "lower", 0.1)["verdict"] == "unresolved"
    better = [60.0, 70.0, 65.0, 75.0, 62.0]
    assert verdict(noisy, better, "lower", 0.1)["verdict"] == "better"


def test_gain_needs_nine_in_ten_paired_wins_beyond_the_base_spread():
    base = [100.0 + 0.1 * i for i in range(10)]
    new = [95.0 + 0.1 * i for i in range(10)]
    pairs = list(zip(base, new))
    result = verdict(base, new, "lower", 0.1, pairs)
    assert (result["wins"], result["verdict"]) == (10, "gain")
    mixed = list(zip(base, new[:8] + [200.0, 200.0]))
    assert verdict(base, new, "lower", 0.1, mixed)["verdict"] == "ok"


def test_per_layer_metrics_are_reported_not_judged():
    assert verdict([1.0], [5.0], "lower", None)["verdict"] == "reported"


# ----------------------------------------------------------------------
# Smoke runs of every workload.
# ----------------------------------------------------------------------
def _smoke(tmp_path: Path, *extra: str) -> list:
    out = tmp_path / "results.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 1
    return [json.loads(line) for line in out.read_text().splitlines()]


def _assert_declared(record: dict, declared: list) -> None:
    assert [(name, entry["unit"]) for name, entry in
            record["metrics"].items()] == [(m["name"], m["unit"])
                                           for m in declared]
    assert record["correct"] and not record["checks"]


def test_smoke_reports_every_end_to_end_metric(tmp_path):
    records = _smoke(tmp_path)
    assert [r["workload"] for r in records] == \
        [w["name"] for w in BENCHMARK["workloads"]]
    for record in records:
        _assert_declared(record, BENCHMARK["end_to_end"])
        assert all(entry["value"] > 0
                   for entry in record["metrics"].values())
        assert record["env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_smoke_reports_every_per_layer_metric(tmp_path):
    records = {r["workload"]: r for r in _smoke(tmp_path, "--trace")}
    for record in records.values():
        _assert_declared(record, BENCHMARK["per_layer"])
        trace = json.loads((ROOT / record["details"]["trace_file"])
                           .read_text())
        assert trace["traceEvents"]
        assert record["details"]["missing_targets"] == []

    def value(workload, metric):
        return records[workload]["metrics"][metric]["value"]

    # Each layer's wrappers fire on the workload the layer belongs to
    # (the MOSFET ring of fig11 is too slow for a smoke run).
    assert value("experiments_fast", "circuits.linsolve.calls") > 0
    assert value("experiments_fast", "circuits.transient.steps") > 0
    assert value("experiments_fast", "experiments.ext_bus.s") > 0
    assert value("serve_delay", "serve.protocol.parse.us_per_call") > 0
    assert value("serve_delay", "serve.batcher.sat.mean_batch_size") > 1
    assert value("serve_delay", "serve.batcher.paced.queue_wait_ms.p50") > 0
    assert value("serve_optimize", "core.optimize.lockstep.lanes") > 0
    assert value("batch_manifest", "core.optimize.solo.calls") > 0
    assert value("batch_manifest", "engine.store.hits") > 0
    assert value("batch_manifest", "engine.executor.dedup_ratio") > 0
    for workload in ("serve_delay", "serve_optimize", "batch_manifest"):
        assert value(workload, "circuits.transient.runs") == 0
