"""Tests for the batch executor: ordering, determinism, fault isolation."""

import pytest

from repro import NODE_100NM, OptimizerMethod, units
from repro.engine import BatchExecutor
from repro.engine.store import DiskStore
from repro.engine.jobs import DelayJob, OptimizeJob

NH = units.NH_PER_MM


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


class TestSerialExecution:
    def test_results_in_submission_order(self):
        jobs = optimize_jobs([0.0, 1.0, 0.5])
        report = BatchExecutor(jobs=1).run(jobs)
        assert [o.job for o in report] == jobs
        assert report.all_ok
        h = [o.result["h_opt"] for o in report]
        assert h[1] > h[2] > h[0]  # h_opt grows with l

    def test_run_one(self):
        outcome = BatchExecutor().run([optimize_jobs([1.0])[0]]).outcomes[0]
        assert outcome.ok
        assert outcome.unwrap()["h_opt"] > 0.0

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            BatchExecutor(jobs=0)


class TestFaultIsolation:
    def test_poisoned_job_fails_alone(self):
        jobs = optimize_jobs([0.0, 1.0])
        jobs.insert(1, poisoned_job())
        report = BatchExecutor(jobs=1).run(jobs)
        assert [o.ok for o in report] == [True, False, True]
        failure = report.failures[0]
        assert failure.error_type == "OptimizationError"
        assert "did not converge" in failure.error
        assert "Traceback" in failure.traceback
        assert report.metrics.jobs_failed == 1

    def test_unwrap_raises_on_failure(self):
        outcome = BatchExecutor().run([poisoned_job()]).outcomes[0]
        with pytest.raises(RuntimeError, match="OptimizationError"):
            outcome.unwrap()

    def test_failure_survives_process_pool(self):
        jobs = [poisoned_job()] + optimize_jobs([0.5])
        report = BatchExecutor(jobs=2).run(jobs)
        assert [o.ok for o in report] == [False, True]


class TestParallelDeterminism:
    def test_pool_matches_serial_bitwise(self):
        jobs = optimize_jobs([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        serial = BatchExecutor(jobs=1).run(jobs)
        pooled = BatchExecutor(jobs=2).run(jobs)
        assert serial.to_payload() == pooled.to_payload()


class TestCaching:
    def test_second_run_served_from_cache(self, tmp_path):
        cache = DiskStore(tmp_path)
        jobs = optimize_jobs([0.0, 0.5, 1.0])
        executor = BatchExecutor(jobs=1, cache=cache)
        first = executor.run(jobs)
        assert first.metrics.cache_hits == 0
        second = executor.run(jobs)
        assert second.metrics.cache_hits == len(jobs)
        assert second.metrics.cache_hit_rate == 1.0
        assert all(o.from_cache for o in second)
        assert first.to_payload() == second.to_payload()

    def test_failures_are_not_cached(self, tmp_path):
        cache = DiskStore(tmp_path)
        executor = BatchExecutor(jobs=1, cache=cache)
        executor.run([poisoned_job()])
        assert cache.stats().entries == 0
        second = executor.run([poisoned_job()])
        assert not second.all_ok
        assert second.metrics.cache_hits == 0

    def test_cache_shared_across_worker_counts(self, tmp_path):
        cache = DiskStore(tmp_path)
        jobs = optimize_jobs([0.0, 0.5, 1.0, 1.5])
        BatchExecutor(jobs=2, cache=cache).run(jobs)
        replay = BatchExecutor(jobs=1, cache=DiskStore(tmp_path)).run(jobs)
        assert replay.metrics.cache_hits == len(jobs)

    def test_delay_jobs_cache_too(self, tmp_path):
        line = NODE_100NM.line_with_inductance(1.0 * NH)
        job = DelayJob(line=line, driver=NODE_100NM.driver,
                       h=0.01, k=150.0)
        executor = BatchExecutor(cache=DiskStore(tmp_path))
        first = executor.run([job]).outcomes[0]
        second = executor.run([job]).outcomes[0]
        assert second.from_cache
        assert second.result == first.result


class TestWallTimeIsMetricsOnly:
    def test_wall_time_never_enters_cache_or_payload(self, tmp_path):
        """The envelope's ``wall_time`` feeds metrics and nothing else:
        cached records and ``to_payload`` are wall-clock free, so replay
        equality cannot depend on how fast a run happened to be."""
        import json

        cache = DiskStore(tmp_path)
        job = optimize_jobs([1.0])[0]
        executor = BatchExecutor(jobs=1, cache=cache)
        fresh = executor.run([job])
        assert fresh.outcomes[0].wall_time > 0.0  # metrics saw it

        def walk(node, path="record"):
            if isinstance(node, dict):
                for key, value in node.items():
                    assert key != "wall_time", f"{path}.{key}"
                    walk(value, f"{path}.{key}")
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, f"{path}[{i}]")

        record = json.loads(cache.path_for(cache.key(job)).read_text())
        walk(record)
        walk(fresh.to_payload(), "payload")

        cached = BatchExecutor(jobs=1, cache=cache).run([job])
        assert cached.outcomes[0].from_cache
        assert cached.outcomes[0].wall_time == 0.0  # nothing ran
        assert cached.to_payload() == fresh.to_payload()


class TestMetrics:
    def test_iteration_and_time_accounting(self):
        report = BatchExecutor().run(optimize_jobs([0.0, 1.0]))
        metrics = report.metrics
        assert metrics.jobs_total == 2
        assert metrics.newton_iterations > 0
        assert metrics.wall_time >= metrics.evaluation_time > 0.0
        assert "2 total, 2 ok, 0 failed" in metrics.format_summary()

    def test_reseed_counted_as_retry(self, monkeypatch):
        from repro import OptimizationError, rc_optimum
        from repro.engine import jobs as jobs_module
        line = NODE_100NM.line_with_inductance(1.0 * NH)
        rc_ref = rc_optimum(line, NODE_100NM.driver)
        rc_seed = (rc_ref.h_opt, rc_ref.k_opt)
        real = jobs_module.optimize_repeater

        def flaky(line_, driver_, f=0.5, *, initial=None, **kwargs):
            if initial != rc_seed:
                raise OptimizationError("poisoned warm start")
            return real(line_, driver_, f, initial=initial, **kwargs)

        monkeypatch.setattr(jobs_module, "optimize_repeater", flaky)
        job = OptimizeJob(line=line, driver=NODE_100NM.driver,
                          initial=(1e-4, 5.0))
        report = BatchExecutor().run([job])
        assert report.all_ok
        assert report.metrics.retries == 1
