"""Engine fault paths: worker death, retry exhaustion, NaN screening.

These tests drive the :class:`~repro.engine.executor.BatchExecutor`
and :class:`~repro.engine.jobs.OptimizeJob` recovery paths through both
real failures (a worker process that dies mid-chunk) and injected ones
(the ``repro.faults`` plane), pinning the error *context* each path
promises — not just that something raised.
"""

import math
import os
from dataclasses import dataclass
from typing import Any, ClassVar, Dict

import pytest

from repro import NODE_100NM, OptimizationTrace, OptimizerMethod, units
from repro.core.evaluate import TraceStep
from repro.engine.executor import BatchExecutor
from repro.engine.jobs import DelayJob, OptimizeJob, nonfinite_path
from repro.engine.store import DiskStore
from repro.errors import OptimizationError
from repro.faults import FaultPlan, FaultRule, hooks

NH = units.NH_PER_MM


@dataclass(frozen=True)
class _WorkerKillerJob:
    """A job whose ``run`` kills its worker process outright.

    ``os._exit`` skips every ``except`` — the fault-isolation envelope
    cannot catch it, so the pool itself breaks.  Module-level and frozen
    so the process-pool backend can pickle it.
    """

    kind: ClassVar[str] = "worker_killer"

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind}

    def run(self) -> Dict[str, Any]:
        os._exit(3)


def _delay_jobs(count):
    node = NODE_100NM
    return [DelayJob(line=node.line.with_inductance(l * NH),
                     driver=node.driver, h=0.01, k=150.0)
            for l in [0.5 * i for i in range(count)]]


class TestWorkerDeath:
    def test_real_worker_crash_mid_chunk_names_recovery(self):
        """A worker dying hard fails the batch with actionable context.

        The executor dispatches one chunk of two jobs per worker; the
        error names the failed dispatch's jobs."""
        jobs = _delay_jobs(3) + [_WorkerKillerJob()]
        with pytest.raises(RuntimeError) as excinfo:
            BatchExecutor(jobs=2).run(jobs)
        message = str(excinfo.value)
        assert "2 jobs" in message
        assert "2 workers" in message
        assert "re-run with jobs=1" in message

    def test_injected_pool_break_takes_same_path(self):
        plan = FaultPlan(rules=[FaultRule(site="backend.worker.crash",
                                          mode="nth", n=1)])
        with hooks.active(plan):
            with pytest.raises(RuntimeError,
                               match="re-run with jobs=1"):
                BatchExecutor(jobs=2).run(_delay_jobs(4))


class TestRetryExhaustion:
    def _doomed_job(self):
        """Warm start and RC re-seed both fail (1-iteration Newton)."""
        return OptimizeJob(line=NODE_100NM.line_with_inductance(2.0 * NH),
                           driver=NODE_100NM.driver,
                           method=OptimizerMethod.NEWTON,
                           initial=(1e-4, 5.0), max_iterations=1,
                           retry_reseed=True)

    def test_exhausted_retry_names_both_attempts(self):
        with pytest.raises(OptimizationError) as excinfo:
            self._doomed_job().run()
        message = str(excinfo.value)
        assert "optimize retry exhausted" in message
        assert "warm start (0.0001, 5.0) failed" in message
        assert "RC re-seed" in message

    def test_executor_reports_exhausted_retry_with_context(self):
        outcome = BatchExecutor(jobs=1).run([self._doomed_job()]).outcomes[0]
        assert not outcome.ok
        assert outcome.error_type == "OptimizationError"
        assert "optimize retry exhausted" in outcome.error

    def test_injected_warm_start_failure_recovers_via_reseed(self):
        from repro.core.elmore import rc_optimum

        line = NODE_100NM.line_with_inductance(1.0 * NH)
        seed = rc_optimum(line, NODE_100NM.driver)
        job = OptimizeJob(line=line, driver=NODE_100NM.driver,
                          initial=(seed.h_opt, seed.k_opt))
        plan = FaultPlan(rules=[FaultRule(site="optimize.warm_start",
                                          mode="nth", n=1)])
        with hooks.active(plan):
            result = job.run()
        assert result["retried"] is True
        # The recovered optimum matches the unfaulted run's numbers.
        clean = job.run()
        assert result["h_opt"] == pytest.approx(clean["h_opt"], rel=1e-9)
        assert result["k_opt"] == pytest.approx(clean["k_opt"], rel=1e-9)

    def test_reseed_counts_one_retry_not_two(self):
        """The re-seed path increments the retry counter exactly once."""
        from repro.core.elmore import rc_optimum

        line = NODE_100NM.line_with_inductance(1.0 * NH)
        seed = rc_optimum(line, NODE_100NM.driver)
        job = OptimizeJob(line=line, driver=NODE_100NM.driver,
                          initial=(seed.h_opt, seed.k_opt))
        plan = FaultPlan(rules=[FaultRule(site="optimize.warm_start",
                                          mode="nth", n=1)])
        with hooks.active(plan):
            report = BatchExecutor(jobs=1).run([job])
        assert report.metrics.retries == 1
        assert report.metrics.jobs_failed == 0


class TestNonFiniteScreen:
    def test_nonfinite_path_finds_nested_nan(self):
        assert nonfinite_path({"a": {"b": [1.0, float("nan")]}},
                              "result") == "result.a.b[1]"
        assert nonfinite_path({"a": float("inf")}, "result") == "result.a"
        assert nonfinite_path({"a": 1.0, "b": None}, "result") is None

    def test_trace_writes_nonfinite_as_none(self):
        """A probe's NaN residual is an undefined value: ``None`` in the
        payload, so the whole result passes the one screen."""
        nan = float("nan")
        trace = OptimizationTrace(steps=[TraceStep(
            iteration=0, h=0.01, k=150.0, g1=nan, g2=float("inf"),
            tau=1e-10, residual_norm=nan, damping="underdamped",
            step_scale=None, backtracks=0, accepted_worse=False)])
        payload = trace.to_payload()
        step = payload["steps"][0]
        assert step["g1"] is None and step["g2"] is None
        assert step["residual_norm"] is None and step["h"] == 0.01
        assert nonfinite_path(payload) is None
        clone = OptimizationTrace.from_payload(payload)
        assert math.isnan(clone.steps[0].g1)
        assert clone.to_payload() == payload

    def test_nan_result_is_a_failure_not_a_cached_success(self, tmp_path):
        """A solver escape (injected NaN lane) must never be cached."""
        job = _delay_jobs(2)[1]
        plan = FaultPlan(rules=[
            FaultRule(site="kernels.threshold_delay.nan_lane",
                      mode="nth", n=1)])
        cache = DiskStore(tmp_path)
        with hooks.active(plan):
            outcome = BatchExecutor(jobs=1, cache=cache).run([job]).outcomes[0]
        assert not outcome.ok
        assert outcome.error_type == "DelaySolverError"
        assert "non-finite" in outcome.error
        assert cache.get(job) is None

    def test_nan_probe_in_optimize_trace_is_cached_as_none(self, tmp_path):
        """An optimum whose trace records a NaN probe is a success whose
        trace holds ``None``; the strict-JSON store accepts it."""
        job = OptimizeJob(line=NODE_100NM.line_with_inductance(1.5 * NH),
                          driver=NODE_100NM.driver)
        plan = FaultPlan(rules=[
            FaultRule(site="kernels.threshold_delay.nan_lane",
                      mode="nth", n=1)])
        cache = DiskStore(tmp_path)
        with hooks.active(plan):
            outcome = BatchExecutor(jobs=1, cache=cache).run([job]).outcomes[0]
        assert outcome.ok, outcome.error
        steps = outcome.result["trace"]["steps"]
        assert any(value is None for step in steps
                   for value in step.values())
        assert cache.get(job) == outcome.result

    def test_cache_put_failure_does_not_fail_the_job(self, tmp_path):
        job = _delay_jobs(2)[1]
        plan = FaultPlan(rules=[FaultRule(site="cache.put.os_error",
                                          mode="nth", n=1)])
        cache = DiskStore(tmp_path)
        with hooks.active(plan):
            outcome = BatchExecutor(jobs=1, cache=cache).run([job]).outcomes[0]
        assert outcome.ok
        assert cache.tmp_files() == []   # failed writer cleaned up
        assert cache.get(job) is None    # nothing was promoted

    def test_hang_site_delays_but_completes(self):
        import time

        job = _delay_jobs(2)[1]
        plan = FaultPlan(rules=[FaultRule(site="executor.job.hang",
                                          mode="nth", n=1, delay=0.05)])
        start = time.perf_counter()
        with hooks.active(plan):
            outcome = BatchExecutor(jobs=1).run([job]).outcomes[0]
        assert outcome.ok
        assert time.perf_counter() - start >= 0.05
