"""Backend parity suite: serial/thread/process are bitwise identical.

The execution plane's whole contract is that the backend choice is an
operational knob, never a numerical one: everything above the seam
(cache, dedup, ordering) is backend-agnostic and nothing below it
touches result payloads.  These tests pin that contract for successes
*and* captured failures, across every job kind the engine ships, with
and without warm cache entries — plus the one seam itself
(``Backend.submit`` running ``run_jobs``), the lifecycle, stats and
crash-recovery behaviour the serve layer leans on.
"""

import asyncio

import pytest

import repro.experiments  # noqa: F401  (registers the experiments)
from repro import NODE_100NM, OptimizerMethod, units
from repro.engine import BatchExecutor
from repro.engine.store import DiskStore
from repro.engine.backends import (BACKEND_NAMES, Backend, ProcessBackend,
                                   SerialBackend, ThreadBackend,
                                   make_backend)
from repro.engine.jobs import (DelayJob, ExperimentJob, OptimizeJob,
                               SweepJob, canonical_json, job_to_dict,
                               run_jobs)
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


def seam_jobs():
    """Every lane shape ``run_jobs`` batches or runs alone, in one list."""
    node = NODE_100NM
    line = node.line_with_inductance
    return (delay_jobs([0.0, 0.5, 1.0])
            + [DelayJob(line=line(1.5 * NH), driver=node.driver, h=0.01,
                        k=150.0, polish_with_newton=True),
               # The 6-iteration Newton warm start fails; the RC re-seed
               # recovers the lane.
               OptimizeJob(line=line(0.5 * NH), driver=node.driver,
                           method=OptimizerMethod.NEWTON,
                           initial=(1e-4, 5.0), max_iterations=6),
               poisoned_job(),
               # Warm start and RC re-seed both fail: retry exhausted.
               OptimizeJob(line=line(0.5 * NH), driver=node.driver,
                           method=OptimizerMethod.NEWTON,
                           initial=(1e-4, 5.0), max_iterations=3)]
            + optimize_jobs([0.5, 1.5])
            + [SweepJob(line_zero_l=node.line, driver=node.driver,
                        l_values=(0.0, 1.0 * NH)),
               ExperimentJob.create("table1")])


def solo_payload(job):
    """``JobOutcome.to_payload()`` of ``job`` evaluated by its own
    ``run()``."""
    entry = {"kind": job.kind, "job": job_to_dict(job)}
    try:
        entry.update(status="ok", result=job.run())
    except Exception as exc:  # noqa: BLE001 — the expected failure
        entry.update(status="failed", error=str(exc),
                     error_type=type(exc).__name__)
    return entry


@pytest.fixture(scope="module")
def solo_baseline():
    """Per-job ``job.run()`` payloads of :func:`seam_jobs`, in order."""
    payload = [solo_payload(job) for job in seam_jobs()]
    assert [entry["status"] for entry in payload] == (
        ["ok"] * 5 + ["failed"] * 2 + ["ok"] * 4)
    assert payload[4]["result"]["retried"] is True
    assert payload[6]["error"].startswith("optimize retry exhausted")
    return canonical_json(payload)


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

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_seam_equals_solo_runs(self, name, workers, solo_baseline):
        """Batched lanes (delay, optimize) and lanes run alone (polished
        delay, sweep, experiment) answer exactly what each job's own
        ``run()`` answers, failures included, in order."""
        with BatchExecutor(jobs=workers, backend=name) as executor:
            report = executor.run(seam_jobs())
        assert canonical_json(report.to_payload()) == solo_baseline

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
            envelopes = backend.submit(jobs).result()
            assert [e["ok"] for e in envelopes] == [True, True, True]
            snapshot = backend.stats.snapshot()
            assert snapshot["dispatches"] == 1
            assert snapshot["lanes"] == 3
            assert snapshot["in_flight"] == 0
            assert snapshot["dispatch_wait_samples"] == 1
        backend.close()  # idempotent

    def test_stats_payload_shape(self):
        backend = SerialBackend()
        backend.submit(delay_jobs([1.0])).result()
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


def _without_wall_time(envelopes):
    return [{key: value for key, value in envelope.items()
             if key != "wall_time"} for envelope in envelopes]


async def _dispatch(backend, jobs):
    """One dispatch awaited from an event loop, as serve's batcher does."""
    return await asyncio.wrap_future(backend.submit(jobs))


class TestServeSeam:
    """``Backend.submit`` as serve awaits it: one micro-batch is one
    ``run_jobs`` call on one worker."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_run_call_matches_direct_evaluation(self, name):
        jobs = delay_jobs([0.0, 0.5, 1.0])
        direct = _without_wall_time(run_jobs(jobs))
        with make_backend(name, workers=2) as backend:
            via_async = asyncio.run(_dispatch(backend, jobs))
        assert _without_wall_time(via_async) == direct

    def test_run_call_counts_dispatches(self):
        jobs = delay_jobs([0.0, 1.0])
        with ThreadBackend(1) as backend:
            for _ in range(2):
                asyncio.run(_dispatch(backend, jobs))
            snapshot = backend.stats.snapshot()
        assert snapshot["dispatches"] == 2
        assert snapshot["lanes"] == 4
        assert snapshot["in_flight"] == 0
        assert snapshot["dispatch_wait_samples"] == 2


class TestOneSeam:
    def test_delay_rows_share_kernel_calls(self, monkeypatch):
        """130 distinct delay rows through the engine cost
        ceil(130 / 64) = 3 ``threshold_delay_v`` calls, not 130."""
        from repro.core import kernels

        lanes = []

        def counting(source, *args, **kwargs):
            lanes.append(len(source))
            return kernels.threshold_delay_v(source, *args, **kwargs)

        monkeypatch.setattr("repro.core.delay.threshold_delay_v", counting)
        monkeypatch.setattr("repro.engine.jobs.threshold_delay_v",
                            counting, raising=False)
        jobs = delay_jobs([0.02 * i for i in range(130)])
        report = BatchExecutor(jobs=1).run(jobs)
        assert report.all_ok
        assert lanes == [64, 64, 2]

    def test_nan_lane_fails_with_one_text_everywhere(self):
        """A solver escape reads the same through the engine and serve."""
        from repro.serve.protocol import EvaluationFailedError, ServeRequest
        from repro.serve.service import ReproService

        job = delay_jobs([1.0])[0]

        def nan_plan():
            return FaultPlan(seed=5, rules=[FaultRule(
                site="kernels.threshold_delay.nan_lane", mode="nth", n=1)])

        with hooks.active(nan_plan()):
            outcome = BatchExecutor(jobs=1).run([job]).outcomes[0]

        async def serve():
            service = ReproService(cache=None, backend="serial",
                                   max_linger=0.0)
            try:
                return await service.submit(ServeRequest(job=job))
            finally:
                await service.close()

        with hooks.active(nan_plan()):
            with pytest.raises(EvaluationFailedError) as excinfo:
                asyncio.run(serve())
        assert outcome.error_type == "DelaySolverError"
        assert outcome.error == ("job produced a non-finite value at "
                                 "result.tau (solver escape; result not "
                                 "cached)")
        assert excinfo.value.message == outcome.error
        assert excinfo.value.details == {"error_type": outcome.error_type}


class TestCrashRecovery:
    def test_process_pool_restarts_after_worker_death(self):
        """A worker dying mid-batch fails that batch loud — with the
        actionable re-run context — and the pool rebuild makes the very
        next dispatch on the same executor succeed.  The executor
        dispatches one chunk per worker, so the crashed dispatch held
        one of the two jobs."""
        plan = FaultPlan(seed=11, rules=[
            FaultRule(site="backend.worker.crash", mode="first", n=1)])
        jobs = optimize_jobs([0.0, 0.5])
        with BatchExecutor(jobs=2, backend="process") as executor:
            with hooks.active(plan):
                with pytest.raises(RuntimeError) as excinfo:
                    executor.run(jobs)
                message = str(excinfo.value)
                assert "evaluating 1 job with" in message
                assert "2 workers" in message
                assert "re-run with jobs=1" in message
                report = executor.run(jobs)
            assert report.all_ok
            assert executor.backend.stats.snapshot()["worker_restarts"] \
                == 1
            # The restart happened inside the *failed* run, so the
            # successful run's own delta is clean.
            assert report.metrics.worker_restarts == 0
            assert report.metrics.dispatches == 2

    def test_serial_crash_keeps_context(self):
        plan = FaultPlan(seed=3, rules=[
            FaultRule(site="backend.worker.crash", mode="first", n=1)])
        backend = SerialBackend()
        with hooks.active(plan):
            with pytest.raises(RuntimeError,
                               match="re-run with jobs=1"):
                backend.submit(delay_jobs([0.0, 1.0, 2.0])).result()
        assert backend.stats.snapshot()["in_flight"] == 0


class TestSharedBackendAcrossLayers:
    def test_service_and_executor_share_one_instance(self):
        """One backend instance serves both layers; neither closes
        what it did not create."""
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
