"""Tests for ReproService: batched-vs-solo equivalence, cache, isolation.

The kernel layer's contract makes batched serving *answer-preserving*:
every lane of a coalesced batch must return exactly what the request's
own ``job.run()`` would have.  These tests submit concurrent bursts so
the batcher genuinely coalesces (asserted through the batch-size
histogram), then compare payloads through ``canonical_json``.
"""

import asyncio

import pytest

from repro import NODE_100NM, OptimizerMethod, units
from repro.engine.jobs import (CriticalInductanceJob, DelayJob, OptimizeJob,
                               canonical_json, job_to_dict)
from repro.engine.store import DiskStore
from repro.errors import OptimizationError
from repro.serve.protocol import (BadRequestError, EvaluationFailedError,
                                  ServeRequest, ServiceClosedError)
from repro.serve.service import ReproService

NH = units.NH_PER_MM


def delay_jobs(l_values_nh):
    node = NODE_100NM
    return [DelayJob(line=node.line.with_inductance(l * NH),
                     driver=node.driver, h=0.01, k=150.0)
            for l in l_values_nh]


def optimize_jobs(l_values_nh):
    node = NODE_100NM
    return [OptimizeJob(line=node.line.with_inductance(l * NH),
                        driver=node.driver)
            for l in l_values_nh]


def poisoned_optimize_job():
    """Deterministically non-convergent: 1-iteration Newton, no re-seed."""
    return OptimizeJob(line=NODE_100NM.line_with_inductance(2.0 * NH),
                       driver=NODE_100NM.driver,
                       method=OptimizerMethod.NEWTON,
                       initial=(1e-4, 5.0), max_iterations=1,
                       retry_reseed=False)


def doomed_optimize_job(l_nh):
    """Warm start and RC re-seed both fail: a retry-exhausted lane."""
    return OptimizeJob(line=NODE_100NM.line_with_inductance(l_nh * NH),
                       driver=NODE_100NM.driver,
                       method=OptimizerMethod.NEWTON,
                       initial=(1e-4, 5.0), max_iterations=3,
                       retry_reseed=True)


def submit_burst(service, jobs, **request_kwargs):
    """Submit all jobs concurrently and close the service."""

    async def run():
        try:
            return await asyncio.gather(
                *(service.submit(ServeRequest(job=job, **request_kwargs))
                  for job in jobs),
                return_exceptions=True)
        finally:
            await service.close()

    return asyncio.run(run())


class TestBatchedEqualsSolo:
    def test_delay_lanes_bitwise_identical(self):
        jobs = delay_jobs([0.0, 0.5, 1.0, 1.5, 2.0])
        service = ReproService(cache=None, max_linger=0.2)
        responses = submit_burst(service, jobs)
        sizes = dict(service.metrics.batch_sizes)
        assert sizes == {("delay", len(jobs)): 1}  # truly coalesced
        for job, response in zip(jobs, responses):
            assert response["ok"] and response["batch_size"] == len(jobs)
            assert canonical_json(response["result"]) \
                == canonical_json(job.run())

    def test_critical_inductance_lanes_bitwise_identical(self):
        node = NODE_100NM
        jobs = [CriticalInductanceJob(line=node.line.with_inductance(l * NH),
                                      driver=node.driver, h=0.01, k=150.0)
                for l in (0.0, 1.0, 2.0)]
        service = ReproService(cache=None, max_linger=0.2)
        responses = submit_burst(service, jobs)
        assert ("critical_inductance", len(jobs)) \
            in service.metrics.batch_sizes
        for job, response in zip(jobs, responses):
            assert canonical_json(response["result"]) \
                == canonical_json(job.run())

    def test_optimize_lanes_bitwise_identical(self):
        jobs = optimize_jobs([0.0, 0.7, 1.4])
        service = ReproService(cache=None, max_linger=0.2)
        responses = submit_burst(service, jobs)
        assert ("optimize", len(jobs)) in service.metrics.batch_sizes
        for job, response in zip(jobs, responses):
            # Trace counters included: a lane runs the same driver alone.
            assert canonical_json(response["result"]) \
                == canonical_json(job.run())


class TestFaultIsolation:
    def test_poisoned_optimize_lane_fails_alone(self):
        jobs = optimize_jobs([0.0, 1.0])
        jobs.insert(1, poisoned_optimize_job())
        service = ReproService(cache=None, max_linger=0.2)
        good_a, bad, good_b = submit_burst(service, jobs)
        assert good_a["ok"] and good_b["ok"]
        assert isinstance(bad, EvaluationFailedError)
        assert "did not converge" in bad.message
        # The surviving lanes still match their solo runs.
        assert canonical_json(good_a["result"]) \
            == canonical_json(jobs[0].run())
        assert canonical_json(good_b["result"]) \
            == canonical_json(jobs[2].run())


class TestOnePayloadPerSpec:
    def test_exhausted_retry_reports_the_same_error_everywhere(self):
        jobs = [doomed_optimize_job(l) for l in (1.5, 2.0)]
        expected = []
        for job in jobs:
            with pytest.raises(OptimizationError) as excinfo:
                job.run()
            expected.append(str(excinfo.value))
        assert all(text.startswith("optimize retry exhausted")
                   for text in expected)

        service = ReproService(cache=None, max_linger=0.2)
        served = submit_burst(service, jobs)
        assert ("optimize", len(jobs)) in service.metrics.batch_sizes
        assert all(isinstance(error, EvaluationFailedError)
                   for error in served)
        assert [error.message for error in served] == expected


class TestCachePaths:
    def test_miss_then_hit(self, tmp_path):
        job = delay_jobs([1.0])[0]
        cache = DiskStore(tmp_path)
        first_service = ReproService(cache=cache, max_linger=0.0)
        (first,) = submit_burst(first_service, [job])
        assert first["cache"] == "miss"
        second_service = ReproService(cache=DiskStore(tmp_path),
                                      max_linger=0.0)
        (second,) = submit_burst(second_service, [job])
        assert second["cache"] == "hit"
        assert second["batch_size"] == 0  # answered without batching
        assert second["result"] == first["result"]
        assert second_service.metrics.cache_hits["delay"] == 1

    def test_no_cache_bypasses_both_ways(self, tmp_path):
        job = delay_jobs([1.0])[0]
        cache = DiskStore(tmp_path)
        service = ReproService(cache=cache, max_linger=0.0)
        (response,) = submit_burst(service, [job], no_cache=True)
        assert response["cache"] == "bypass"
        assert cache.stats().entries == 0

    def test_cache_off(self):
        (response,) = submit_burst(ReproService(cache=None, max_linger=0.0),
                                   delay_jobs([1.0]))
        assert response["cache"] == "off"

    def test_batched_results_are_cached_for_exact_kinds(self, tmp_path):
        jobs = delay_jobs([0.0, 0.5, 1.0])
        cache = DiskStore(tmp_path)
        responses = submit_burst(
            ReproService(cache=cache, max_linger=0.2), jobs)
        assert all(r["batch_size"] == len(jobs) for r in responses)
        assert cache.stats().entries == len(jobs)
        # The cached record replays bitwise what the engine would store.
        for job, response in zip(jobs, responses):
            assert DiskStore(tmp_path).get(job) == job.run()

    def test_batched_optimize_results_are_cached(self, tmp_path):
        jobs = optimize_jobs([0.0, 1.0])
        cache = DiskStore(tmp_path)
        responses = submit_burst(
            ReproService(cache=cache, max_linger=0.2), jobs)
        assert all(r["ok"] and r["batch_size"] == 2 for r in responses)
        assert cache.stats().entries == len(jobs)
        # Each record replays bitwise what the engine would store.
        for job in jobs:
            assert DiskStore(tmp_path).get(job) == job.run()


class TestLifecycleAndProtocol:
    def test_closed_service_refuses_submissions(self):
        async def run():
            service = ReproService(cache=None)
            await service.close()
            with pytest.raises(ServiceClosedError):
                await service.submit(
                    ServeRequest(job=delay_jobs([1.0])[0]))
            status, body = await service.handle(
                job_to_dict(delay_jobs([1.0])[0]))
            return status, body

        status, body = asyncio.run(run())
        assert status == 503
        assert body["error"]["code"] == "shutting_down"

    def test_handle_maps_bad_requests_to_400(self):
        async def run():
            service = ReproService(cache=None)
            try:
                return await service.handle({"kind": "bogus"})
            finally:
                await service.close()

        status, body = asyncio.run(run())
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "unknown request kind" in body["error"]["message"]

    def test_handle_happy_path_returns_200(self):
        job = delay_jobs([1.0])[0]

        async def run():
            service = ReproService(cache=None, max_linger=0.0)
            try:
                return await service.handle(job_to_dict(job))
            finally:
                await service.close()

        status, body = asyncio.run(run())
        assert status == 200
        assert body["ok"] is True
        assert canonical_json(body["result"]) == canonical_json(job.run())

    def test_metrics_payload_accounts_for_traffic(self):
        jobs = delay_jobs([0.0, 0.5, 1.0, 1.5])
        service = ReproService(cache=None, max_linger=0.2)
        submit_burst(service, jobs)
        payload = service.metrics.to_payload(
            queue_depth={"delay": 0, "optimize": 0})
        assert payload["requests_total"] == len(jobs)
        assert payload["requests"] == {"delay": len(jobs)}
        assert payload["outcomes"] == {"delay:ok": len(jobs)}
        assert payload["batch_size_histogram"] == {f"delay:{len(jobs)}": 1}
        assert payload["mean_batch_size"] == float(len(jobs))
        assert payload["latency_samples"] == len(jobs)
        assert set(payload["latency"]) == {"p50", "p95", "p99"}
        assert payload["queue_depth_total"] == 0
        summary = service.metrics.format_summary()
        assert f"requests: {len(jobs)} total" in summary
        assert "latency: p50=" in summary

    def test_parse_errors_do_not_reach_a_batcher(self):
        with pytest.raises(BadRequestError):
            from repro.serve.protocol import parse_request
            parse_request({"kind": "delay"})  # missing every field
