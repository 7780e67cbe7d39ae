"""What the traced run wraps, and the per-layer metrics derived from it.

Each :class:`~tracing.Target` names one public function at a layer
boundary of ``repro``.  Its span name is the metric prefix; its hooks
record the counters the per-layer metrics need (lanes per kernel call,
Newton iterations, store hits, ...).  :func:`per_layer_metrics` turns the
merged trace of one workload into the ``per_layer`` metrics listed in
``BENCHMARK.json`` — every name, on every workload, so a layer a
workload never touches reads 0.
"""

from __future__ import annotations

import time
from typing import Any, Dict

import numpy as np

from stats import percentile
from tracing import Target, open_spans

#: Experiments reported on their own; the rest sum to ``analytic.s``.
SIMULATED_EXPERIMENTS = ("fig11", "ext_bus", "ext_crosstalk")


# ----------------------------------------------------------------------
# Hooks.
# ----------------------------------------------------------------------
def _transient_before(t, args, kwargs):
    t.maximum("circuits.mna.size", args[0].structure.size)


def _transient_after(t, args, kwargs, result, seconds):
    t.add("circuits.transient.steps", len(result.time) - 1)


def _rhs_columns(b) -> int:
    shape = np.shape(b)
    return 1 if len(shape) < 2 else shape[1]


def _solve_flops(t, args, kwargs):
    n = np.shape(args[0])[0]
    t.add("circuits.linsolve.flop",
          2.0 * n ** 3 / 3.0 + 2.0 * n * n * _rhs_columns(args[1]))


def _lu_factor_flops(t, args, kwargs):
    t.add("circuits.linsolve.flop", 2.0 * np.shape(args[0])[0] ** 3 / 3.0)


def _lu_solve_flops(t, args, kwargs):
    n = np.shape(args[0][0])[0]
    t.add("circuits.linsolve.flop", 2.0 * n * n * _rhs_columns(args[1]))


def _banded_flops(t, args, kwargs):
    lower, upper = args[0]
    n = np.shape(args[1])[-1]
    t.add("circuits.linsolve.flop",
          2.0 * n * lower * upper
          + 2.0 * n * (lower + upper + 1) * _rhs_columns(args[2]))


def _experiment_after(t, args, kwargs, result, seconds):
    experiment_id = args[0] if args else kwargs["experiment_id"]
    t.add(f"experiments.{experiment_id}.s", seconds)


def _lanes_after(key):
    def after(t, args, kwargs, result, seconds):
        lanes = result.tau if hasattr(result, "tau") else result
        t.add(key, len(lanes))
    return after


def _memo(t, optimum):
    trace = getattr(optimum, "trace", None)
    if trace is not None:
        t.add("core.evaluate.memo_hits", trace.memo_hits)
        t.add("core.evaluate.lanes_evaluated", trace.lanes_evaluated)


def _lockstep_after(t, args, kwargs, result, seconds):
    t.add("core.optimize.lockstep.lanes", len(result))
    for outcome in result:
        if not isinstance(outcome, Exception):
            t.add("core.optimize.lockstep.iterations", outcome.iterations)
            _memo(t, outcome)


def _solo_after(t, args, kwargs, result, seconds):
    t.add("core.optimize.solo.iterations", result.iterations)
    _memo(t, result)


def _pairs_before(t, args, kwargs):
    t.add("core.evaluate.evaluate_many.pairs", len(args[1]))


def _store_get_after(t, args, kwargs, result, seconds):
    if result is not None:
        t.add("engine.store.hits")


def _executor_after(t, args, kwargs, result, seconds):
    t.add("engine.executor.jobs", len(result))
    t.add("engine.executor.deduped",
          sum(1 for outcome in result.outcomes if outcome.deduped))


def _parse_after(t, args, kwargs, result, seconds):
    # Remember when the request carrying this job entered the service,
    # so the evaluator call that receives the job can time its queueing.
    for frame in reversed(open_spans()):
        if frame.target.span == "serve.handle":
            t.job_starts[id(result.job)] = frame.start
            break


def _evaluator_before(t, args, kwargs):
    now = time.perf_counter()
    jobs = args[0]
    t.add(f"serve.batcher.{t.phase}.batches")
    t.add(f"serve.batcher.{t.phase}.lanes", len(jobs))
    for job in jobs:
        start = t.job_starts.pop(id(job), None)
        if start is not None:
            t.sample(f"serve.batcher.{t.phase}.queue_wait_ms",
                     (now - start) * 1e3)


def _evaluator_after(t, args, kwargs, result, seconds):
    t.sample(f"serve.batcher.{t.phase}.eval_ms", seconds * 1e3)


def _linsolve(module: str, attr: str, before) -> Target:
    return Target("circuits.linsolve", module, attr, within="circuits",
                  before=before)


def _store(span: str, attr: str, after=None) -> list:
    return [Target(span, "repro.engine.store", f"{cls}.{attr}",
                   outermost=True, after=after)
            for cls in ("DiskStore", "MemoryStore", "TieredStore")]


def _evaluator(name: str) -> Target:
    return Target("serve.batcher.eval", "repro.serve.service", name,
                  before=_evaluator_before, after=_evaluator_after)


TARGETS = [
    Target("circuits.transient", "repro.circuits.transient",
           "TransientSolver.run", before=_transient_before,
           after=_transient_after),
    Target("circuits.transient", "repro.circuits.transient",
           "TransientSolver.run_adaptive", before=_transient_before,
           after=_transient_after),
    Target("circuits.dc", "repro.circuits.mna", "dc_operating_point"),
    _linsolve("numpy.linalg", "solve", _solve_flops),
    _linsolve("scipy.linalg", "solve", _solve_flops),
    _linsolve("scipy.linalg", "lu_factor", _lu_factor_flops),
    _linsolve("scipy.linalg", "lu_solve", _lu_solve_flops),
    _linsolve("scipy.linalg", "solve_banded", _banded_flops),
    Target("circuits.devices", "repro.circuits.mna",
           "MnaStructure.stamp_nonlinear"),
    Target("tech.calibrate", "repro.tech.characterize", "calibrate_inverter"),
    Target("experiments.run", "repro.experiments.base", "run_experiment",
           after=_experiment_after),
    Target("core.kernels.threshold_delay_v", "repro.core.kernels",
           "threshold_delay_v",
           after=_lanes_after("core.kernels.threshold_delay_v.lanes")),
    Target("core.kernels.critical_inductance_v", "repro.core.kernels",
           "critical_inductance_v",
           after=_lanes_after("core.kernels.critical_inductance_v.lanes")),
    Target("core.optimize.lockstep", "repro.core.optimize",
           "optimize_repeater_many", after=_lockstep_after),
    Target("core.optimize.solo", "repro.core.optimize", "optimize_repeater",
           after=_solo_after),
    Target("core.evaluate.evaluate_many", "repro.core.evaluate",
           "StageEvaluator.evaluate_many", before=_pairs_before),
    Target("core.sweep", "repro.core.sweep", "sweep_inductance"),
    Target("engine.store.key", "repro.engine.store", "ResultStore.key",
           outermost=True),
    Target("engine.store.key", "repro.engine.store", "TieredStore.key",
           outermost=True),
    *_store("engine.store.get", "get", _store_get_after),
    *_store("engine.store.put", "put"),
    Target("engine.executor", "repro.engine.executor", "BatchExecutor.run",
           after=_executor_after),
    Target("engine.manifest.load", "repro.engine.manifest", "load_manifest"),
    Target("engine.cli", "repro.engine.cli", "main"),
    Target("serve.handle", "repro.serve.service", "ReproService.handle"),
    Target("serve.protocol.parse", "repro.serve.protocol", "parse_request",
           after=_parse_after),
    Target("serve.protocol.encode", "repro.serve.protocol", "encode_result"),
    _evaluator("evaluate_delay_batch"),
    _evaluator("evaluate_critical_inductance_batch"),
    _evaluator("evaluate_optimize_batch"),
]


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pct(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def per_layer_metrics(merged: Dict[str, Any],
                      harness: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one workload from its merged trace plus
    the harness's own measurements (``harness``)."""
    spans, counters = merged["spans"], merged["counters"]
    samples = merged["samples"]

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    def count(key):
        return counters.get(key, 0.0)

    m: Dict[str, float] = {}
    transient = span("circuits.transient")
    steps = count("circuits.transient.steps")
    m["circuits.transient.runs"] = transient[0]
    m["circuits.transient.steps"] = steps
    m["circuits.transient.busy_s"] = transient[1]
    m["circuits.transient.self_s"] = transient[2]
    linsolve = span("circuits.linsolve")
    m["circuits.linsolve.calls"] = linsolve[0]
    m["circuits.linsolve.busy_s"] = linsolve[1]
    m["circuits.linsolve.us_per_call"] = _ratio(linsolve[1] * 1e6,
                                                linsolve[0])
    m["circuits.linsolve.per_step"] = _ratio(linsolve[0], steps)
    m["circuits.linsolve.gflop_computed"] = \
        count("circuits.linsolve.flop") / 1e9
    devices = span("circuits.devices")
    m["circuits.devices.calls"] = devices[0]
    m["circuits.devices.busy_s"] = devices[1]
    m["circuits.mna.size"] = merged["maxima"].get("circuits.mna.size", 0)

    calibrate = span("tech.calibrate")
    m["tech.calibrate.calls"] = calibrate[0]
    m["tech.calibrate.busy_s"] = calibrate[1]

    simulated = 0.0
    for experiment_id in SIMULATED_EXPERIMENTS:
        seconds = count(f"experiments.{experiment_id}.s")
        m[f"experiments.{experiment_id}.s"] = seconds
        simulated += seconds
    m["experiments.analytic.s"] = max(
        0.0, span("experiments.run")[1] - simulated)

    for kernel in ("threshold_delay_v", "critical_inductance_v"):
        name = f"core.kernels.{kernel}"
        calls, busy, _ = span(name)
        lanes = count(f"{name}.lanes")
        m[f"{name}.calls"] = calls
        m[f"{name}.lanes"] = lanes
        m[f"{name}.us_per_lane"] = _ratio(busy * 1e6, lanes)
    lockstep = span("core.optimize.lockstep")
    lanes = count("core.optimize.lockstep.lanes")
    m["core.optimize.lockstep.calls"] = lockstep[0]
    m["core.optimize.lockstep.lanes"] = lanes
    m["core.optimize.lockstep.busy_s"] = lockstep[1]
    m["core.optimize.lockstep.iterations_per_lane"] = _ratio(
        count("core.optimize.lockstep.iterations"), lanes)
    solo = span("core.optimize.solo")
    m["core.optimize.solo.calls"] = solo[0]
    m["core.optimize.solo.busy_s"] = solo[1]
    m["core.optimize.solo.iterations_per_call"] = _ratio(
        count("core.optimize.solo.iterations"), solo[0])
    many = span("core.evaluate.evaluate_many")
    m["core.evaluate.evaluate_many.calls"] = many[0]
    m["core.evaluate.evaluate_many.pairs"] = \
        count("core.evaluate.evaluate_many.pairs")
    m["core.evaluate.evaluate_many.busy_s"] = many[1]
    hits = count("core.evaluate.memo_hits")
    m["core.evaluate.memo_hit_ratio"] = _ratio(
        hits, hits + count("core.evaluate.lanes_evaluated"))
    m["core.sweep.busy_s"] = span("core.sweep")[1]

    for op in ("get", "put", "key"):
        calls, busy, _ = span(f"engine.store.{op}")
        m[f"engine.store.{op}.calls"] = calls
        m[f"engine.store.{op}.us_per_call"] = _ratio(busy * 1e6, calls)
    store_hits = count("engine.store.hits")
    m["engine.store.hits"] = store_hits
    m["engine.store.hit_ratio"] = _ratio(store_hits,
                                         span("engine.store.get")[0])
    m["engine.executor.run_s"] = span("engine.executor")[1]
    m["engine.executor.dedup_ratio"] = _ratio(
        count("engine.executor.deduped"), count("engine.executor.jobs"))
    m["engine.manifest.load_s"] = span("engine.manifest.load")[1]
    m["engine.cli.self_s"] = span("engine.cli")[2]
    m["engine.backends.dispatch_wait_ms.p50"] = harness["dispatch_wait_p50_ms"]
    m["engine.backends.dispatch_wait_ms.p95"] = harness["dispatch_wait_p95_ms"]

    for op in ("parse", "encode"):
        calls, busy, _ = span(f"serve.protocol.{op}")
        m[f"serve.protocol.{op}.us_per_call"] = _ratio(busy * 1e6, calls)
    for phase in ("paced", "sat"):
        batches = count(f"serve.batcher.{phase}.batches")
        m[f"serve.batcher.{phase}.batches"] = batches
        m[f"serve.batcher.{phase}.mean_batch_size"] = _ratio(
            count(f"serve.batcher.{phase}.lanes"), batches)
    # The latency decomposition of the paced segments; in a burst the
    # queue wait is the backlog the burst itself built.
    for sample in ("queue_wait_ms", "eval_ms"):
        values = samples.get(f"serve.batcher.paced.{sample}", [])
        m[f"serve.batcher.paced.{sample}.p50"] = _pct(values, 50)
        m[f"serve.batcher.paced.{sample}.p99"] = _pct(values, 99)

    m["harness.gen_late_ms.p99"] = harness["gen_late_p99_ms"]
    m["harness.process.cpu_s"] = harness["cpu_s"]
    m["harness.trace.overhead_frac"] = harness["overhead_frac"]
    m["harness.trace.missing_targets"] = len(merged["missing"])
    return m
