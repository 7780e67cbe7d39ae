"""Batch-executor in-batch dedup: duplicate specs compute once.

A manifest that lists the same configuration N times used to evaluate it
N times.  With dedup in the executor, the duplicates collapse onto one
leader lane per unique spec: the batch still reports N outcomes
(each duplicate carries the leader's payload bitwise), the metrics count
the fan-out, and the report stays bitwise identical to the pre-dedup
output at every ``--jobs`` value.
"""

import json
import threading
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict

import pytest

from repro import NODE_100NM, units
from repro.engine.executor import BatchExecutor
from repro.engine.jobs import DelayJob, canonical_json
from repro.engine.store import DiskStore
from repro.faults import FaultPlan, FaultRule, hooks

NH = units.NH_PER_MM

#: In-process evaluation counter keyed by spec tag (serial backend runs
#: jobs on the calling process, so the counter observes every run).
_RUNS: Dict[str, int] = {}
_RUNS_LOCK = threading.Lock()


@dataclass(frozen=True)
class CountingJob:
    """A job that counts its own evaluations (serial backend only)."""

    tag: str
    kind: ClassVar[str] = "counting"

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind, "tag": self.tag}

    def run(self) -> Dict[str, Any]:
        with _RUNS_LOCK:
            _RUNS[self.tag] = _RUNS.get(self.tag, 0) + 1
        return {"tag": self.tag, "value": 42.0}


def delay_job(l_nh=1.0):
    return DelayJob(line=NODE_100NM.line_with_inductance(l_nh * NH),
                    driver=NODE_100NM.driver, h=0.01, k=150.0)


@pytest.fixture(autouse=True)
def _reset_counter():
    _RUNS.clear()


class TestWithinBatchDedup:
    def test_duplicate_specs_compute_once(self):
        jobs = [CountingJob("a"), CountingJob("b"), CountingJob("a"),
                CountingJob("a"), CountingJob("b")]
        report = BatchExecutor(jobs=1).run(jobs)
        assert _RUNS == {"a": 1, "b": 1}
        assert len(report.outcomes) == len(jobs)
        for job, outcome in zip(jobs, report.outcomes):
            assert outcome.ok
            assert outcome.result == {"tag": job.tag, "value": 42.0}

    def test_duplicates_receive_identical_payloads(self):
        jobs = [CountingJob("a")] * 3
        report = BatchExecutor(jobs=1).run(jobs)
        first = report.outcomes[0].result
        assert all(outcome.result is first for outcome in report.outcomes)

    def test_metrics_count_the_fanout(self):
        jobs = [CountingJob("a"), CountingJob("a"), CountingJob("b")]
        report = BatchExecutor(jobs=1).run(jobs)
        assert report.metrics.deduplicated == 1
        assert "1 deduplicated" in report.metrics.format_summary()

    def test_no_duplicates_no_dedup_line(self):
        report = BatchExecutor(jobs=1).run([CountingJob("a"),
                                            CountingJob("b")])
        assert report.metrics.deduplicated == 0
        assert "deduplicated" not in report.metrics.format_summary()

    def test_deduped_lane_reports_zero_wall_time(self):
        report = BatchExecutor(jobs=1).run([CountingJob("a")] * 2)
        leader, follower = report.outcomes
        assert not leader.deduped
        assert follower.deduped
        assert follower.wall_time == 0.0

    def test_duplicate_failures_fan_out_too(self):
        @dataclass(frozen=True)
        class FailingJob:
            kind: ClassVar[str] = "counting_fail"

            def canonical(self):
                return {"kind": self.kind}

            def run(self):
                with _RUNS_LOCK:
                    _RUNS["fail"] = _RUNS.get("fail", 0) + 1
                raise ValueError("doomed spec")

        report = BatchExecutor(jobs=1).run([FailingJob()] * 3)
        assert _RUNS == {"fail": 1}
        for outcome in report.outcomes:
            assert not outcome.ok
            assert outcome.error_type == "ValueError"
            assert "doomed spec" in outcome.error

    def test_deduped_lanes_do_not_rewrite_the_cache(self, tmp_path):
        """One put per unique spec: the leader writes, followers skip."""
        cache = DiskStore(tmp_path)
        job = delay_job()
        report = BatchExecutor(jobs=1, cache=cache).run([job] * 4)
        assert all(outcome.ok for outcome in report.outcomes)
        assert report.metrics.deduplicated == 3
        assert cache.stats().entries == 1
        assert cache.get(job) == report.outcomes[0].result


class TestBitwiseAcrossJobs:
    def test_duplicate_manifest_identical_at_any_jobs_value(self, tmp_path):
        """The report payload with duplicates is bitwise identical for
        jobs=1 and jobs=2 — dedup happens above the backend seam."""
        jobs = [delay_job(0.5), delay_job(1.0), delay_job(0.5),
                delay_job(1.5), delay_job(1.0)]
        serial = BatchExecutor(jobs=1).run(jobs)
        with BatchExecutor(jobs=2, backend="thread") as executor:
            threaded = executor.run(jobs)
        payload_serial = {"results": [outcome.result
                                      for outcome in serial.outcomes]}
        payload_threaded = {"results": [outcome.result
                                        for outcome in threaded.outcomes]}
        assert canonical_json(payload_serial) \
            == canonical_json(payload_threaded)
        assert serial.metrics.deduplicated == 2
        assert threaded.metrics.deduplicated == 2

    def test_dedup_matches_undeduplicated_solo_runs(self):
        jobs = [delay_job(0.5), delay_job(0.5), delay_job(1.0)]
        report = BatchExecutor(jobs=1).run(jobs)
        for job, outcome in zip(jobs, report.outcomes):
            assert canonical_json(outcome.result) \
                == canonical_json(job.run())


class TestFailedDispatch:
    def test_executor_reruns_after_a_failed_dispatch(self):
        """A dispatch failure fails the whole run and leaves nothing
        behind: the same executor's next run evaluates each spec once
        and fans the duplicate out again."""
        jobs = [CountingJob("a"), CountingJob("b"), CountingJob("a")]
        plan = FaultPlan(rules=[FaultRule(
            site="backend.worker.crash", mode="nth", n=1)])
        executor = BatchExecutor(jobs=1)
        with hooks.active(plan):
            with pytest.raises(RuntimeError):
                executor.run(jobs)
            report = executor.run(jobs)
        assert _RUNS == {"a": 1, "b": 1}
        assert all(outcome.ok for outcome in report.outcomes)
        assert [outcome.deduped for outcome in report.outcomes] \
            == [False, False, True]


class TestRunPayloadShape:
    def test_report_payload_repeats_duplicates(self):
        """``--out`` JSON keeps one row per manifest entry."""
        jobs = [CountingJob("a"), CountingJob("a")]
        report = BatchExecutor(jobs=1).run(jobs)
        payload = report.to_payload()
        assert len(payload) == 2
        text = json.dumps(payload, sort_keys=True)
        assert text.count('"tag": "a"') >= 2
