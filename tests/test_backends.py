"""Backend parity suite: serial/thread/process are bitwise identical.

The execution plane's whole contract is that the backend choice is an
operational knob, never a numerical one: everything above the seam
(cache, retry, screening, ordering) is backend-agnostic and nothing
below it touches result payloads.  These tests pin that contract for
successes *and* captured failures, across every job kind the engine
ships, with and without warm cache entries — plus the lifecycle, stats
and crash-recovery behaviour the serve layer leans on.
"""

import asyncio

import pytest

from repro import NODE_100NM, OptimizerMethod, units
from repro.engine import BatchExecutor
from repro.engine.store import DiskStore
from repro.engine.backends import (BACKEND_NAMES, Backend, ProcessBackend,
                                   SerialBackend, ThreadBackend,
                                   make_backend)
from repro.engine.jobs import DelayJob, OptimizeJob, SweepJob
from repro.faults import FaultPlan, FaultRule, hooks

NH = units.NH_PER_MM


def delay_jobs(l_values_nh):
    node = NODE_100NM
    return [DelayJob(line=node.line_with_inductance(l * NH),
                     driver=node.driver, h=0.01, k=150.0)
            for l in l_values_nh]


def optimize_jobs(l_values_nh):
    line0 = NODE_100NM.line
    return [OptimizeJob(line=line0.with_inductance(l * NH),
                        driver=NODE_100NM.driver)
            for l in l_values_nh]


def poisoned_job():
    """Deterministically non-convergent: 1-iteration Newton, no re-seed."""
    return OptimizeJob(line=NODE_100NM.line_with_inductance(2.0 * NH),
                      driver=NODE_100NM.driver,
                      method=OptimizerMethod.NEWTON,
                      initial=(1e-4, 5.0), max_iterations=1,
                      retry_reseed=False)


def mixed_jobs():
    """Every engine job kind plus a captured failure, in one batch."""
    return (delay_jobs([0.0, 1.5])
            + optimize_jobs([0.5])
            + [poisoned_job(),
               SweepJob(line_zero_l=NODE_100NM.line,
                        driver=NODE_100NM.driver,
                        l_values=(0.0, 1.0 * NH))])


@pytest.fixture(scope="module")
def serial_baseline():
    """The jobs=1 serial payload every other backend must reproduce."""
    with BatchExecutor(jobs=1, backend="serial") as executor:
        return executor.run(mixed_jobs()).to_payload()


class TestParity:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_mixed_batch_bitwise_identical(self, name, serial_baseline):
        with BatchExecutor(jobs=2, backend=name) as executor:
            report = executor.run(mixed_jobs())
        assert [o.ok for o in report] == [True, True, True, False, True]
        failure = report.failures[0]
        assert failure.error_type == "OptimizationError"
        assert report.to_payload() == serial_baseline

    @pytest.mark.parametrize("name", ("thread", "process"))
    def test_cache_hit_interleavings(self, name, tmp_path,
                                     serial_baseline):
        """A warm partial cache changes *where* answers come from, not
        what they are: hits and fresh evaluations interleave through the
        pooled backends into the same payload."""
        jobs = mixed_jobs()
        primed = [jobs[1], jobs[4]]  # one delay lane, the batch job
        cache = DiskStore(tmp_path / name)
        with BatchExecutor(jobs=1, cache=cache, backend="serial") as warm:
            warm.run(primed)
        with BatchExecutor(jobs=2, cache=cache, backend=name) as executor:
            report = executor.run(jobs)
        assert report.metrics.cache_hits == len(primed)
        assert [o.from_cache for o in report] \
            == [False, True, False, False, True]
        assert report.to_payload() == serial_baseline

    def test_executor_defaults_follow_jobs(self):
        with BatchExecutor(jobs=1) as solo:
            assert isinstance(solo.backend, SerialBackend)
        with BatchExecutor(jobs=2) as pooled:
            assert isinstance(pooled.backend, ProcessBackend)
            assert pooled.backend.workers == 2


class TestMakeBackend:
    def test_names_resolve_to_classes(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("thread", workers=2), ThreadBackend)
        assert isinstance(make_backend("process", workers=2),
                          ProcessBackend)
        assert isinstance(make_backend(None), SerialBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("fibers")

    @pytest.mark.parametrize("name", ("thread", "process"))
    def test_bad_worker_count_rejected(self, name):
        with pytest.raises(ValueError, match="worker count"):
            make_backend(name, workers=0)


class TestLifecycle:
    def test_context_manager_and_stats(self):
        jobs = delay_jobs([0.0, 1.0, 2.0])
        with ThreadBackend(2, thread_name_prefix="repro-test") as backend:
            envelopes = backend.submit_batch(jobs)
            assert [e["ok"] for e in envelopes] == [True, True, True]
            snapshot = backend.stats.snapshot()
            assert snapshot["dispatches"] == 1
            assert snapshot["lanes"] == 3
            assert snapshot["in_flight"] == 0
            assert snapshot["dispatch_wait_samples"] == 1
        backend.close()  # idempotent

    def test_stats_payload_shape(self):
        backend = SerialBackend()
        backend.submit_batch(delay_jobs([1.0]))
        payload = backend.stats_payload()
        assert payload["backend"] == "serial"
        assert payload["workers"] == 1
        assert payload["queued"] == 0
        assert payload["dispatches"] == 1
        assert {"p50", "p95"} <= set(payload["dispatch_wait"])

    def test_start_is_idempotent(self):
        backend = ThreadBackend(1)
        try:
            backend.start()
            pool = backend._pool
            backend.start()
            assert backend._pool is pool
        finally:
            backend.close()


class TestServeSeam:
    """run_call_async: one evaluator call on one worker."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_run_call_matches_direct_evaluation(self, name):
        from repro.serve.service import evaluate_delay_batch

        jobs = delay_jobs([0.0, 0.5, 1.0])
        direct = evaluate_delay_batch(jobs)
        with make_backend(name, workers=2) as backend:
            via_async = asyncio.run(
                backend.run_call_async(evaluate_delay_batch, jobs))
        assert via_async == direct

    def test_run_call_counts_dispatches(self):
        from repro.serve.service import evaluate_delay_batch

        jobs = delay_jobs([0.0, 1.0])
        with ThreadBackend(1) as backend:
            for _ in range(2):
                asyncio.run(
                    backend.run_call_async(evaluate_delay_batch, jobs))
            snapshot = backend.stats.snapshot()
        assert snapshot["dispatches"] == 2
        assert snapshot["lanes"] == 4
        assert snapshot["in_flight"] == 0
        assert snapshot["dispatch_wait_samples"] == 2


class TestCrashRecovery:
    def test_process_pool_restarts_after_worker_death(self):
        """A worker dying mid-batch fails that batch loud — with the
        actionable re-run context — and the pool rebuild makes the very
        next dispatch on the same executor succeed."""
        plan = FaultPlan(seed=11, rules=[
            FaultRule(site="backend.worker.crash", mode="first", n=1)])
        jobs = optimize_jobs([0.0, 0.5])
        with BatchExecutor(jobs=2, backend="process") as executor:
            with hooks.active(plan):
                with pytest.raises(RuntimeError) as excinfo:
                    executor.run(jobs)
                message = str(excinfo.value)
                assert "2 jobs" in message
                assert "2 workers" in message
                assert "re-run with jobs=1" in message
                report = executor.run(jobs)
            assert report.all_ok
            assert executor.backend.stats.snapshot()["worker_restarts"] \
                == 1
            # The restart happened inside the *failed* run, so the
            # successful run's own delta is clean.
            assert report.metrics.worker_restarts == 0
            assert report.metrics.dispatches == 1

    def test_serial_crash_keeps_context(self):
        plan = FaultPlan(seed=3, rules=[
            FaultRule(site="backend.worker.crash", mode="first", n=1)])
        backend = SerialBackend()
        with hooks.active(plan):
            with pytest.raises(RuntimeError,
                               match="re-run with jobs=1"):
                backend.submit_batch(delay_jobs([0.0, 1.0, 2.0]))
        assert backend.stats.snapshot()["in_flight"] == 0


class TestSharedBackendAcrossLayers:
    def test_service_and_executor_share_one_instance(self):
        """One backend instance threads through both seams; neither
        layer closes what it did not create."""
        from repro.serve.protocol import ServeRequest
        from repro.serve.service import ReproService

        jobs = delay_jobs([0.0, 1.0, 2.0, 3.0])
        with ThreadBackend(2, thread_name_prefix="repro-shared") \
                as backend:
            with BatchExecutor(jobs=2, backend=backend) as executor:
                engine_report = executor.run(jobs)

            async def run_service():
                service = ReproService(cache=None, backend=backend,
                                       max_linger=0.0)
                try:
                    return await asyncio.gather(
                        *(service.submit(ServeRequest(job=job))
                          for job in jobs))
                finally:
                    await service.close()

            responses = asyncio.run(run_service())
            assert backend._pool is not None  # neither layer closed it
        assert engine_report.all_ok
        assert all(r["ok"] for r in responses)
        for outcome, response in zip(engine_report, responses):
            assert response["result"] == outcome.result
