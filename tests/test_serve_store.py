"""Serve-layer store contracts: off-loop store I/O and coalescing.

Two regressions are pinned here.  First, a cache hit must never do file
I/O (open/read/``json.loads``) on the asyncio event-loop thread — every
store call runs, in submission order, on the service's one store thread,
whatever the backend, and a write-back still lands when its lane
resolves during ``close()``.  Second, concurrent identical requests
collapse onto one evaluation: 64 copies of the same spec produce exactly
one evaluator call and 64 bitwise-identical responses, and a leader's
failure propagates to every follower instead of leaving them hanging.
"""

import asyncio
import threading
from concurrent.futures import Future

import pytest

from repro import NODE_100NM, units
from repro.engine.backends import Backend
from repro.engine.jobs import DelayJob, canonical_json
from repro.engine.store import MemoryStore
from repro.serve.protocol import EvaluationFailedError, ServeRequest
from repro.serve.service import ReproService

NH = units.NH_PER_MM


def delay_job(l_nh=1.0):
    return DelayJob(line=NODE_100NM.line_with_inductance(l_nh * NH),
                    driver=NODE_100NM.driver, h=0.01, k=150.0)


class ScriptedBackend(Backend):
    """A backend whose dispatches run a scripted evaluator, each on its
    own thread (off the event loop, as a pool backend's would)."""

    def __init__(self, evaluate):
        super().__init__()
        self.evaluate = evaluate

    def submit(self, jobs):
        future = Future()

        def run():
            try:
                future.set_result(self.evaluate(list(jobs)))
            except Exception as exc:  # noqa: BLE001 — the dispatch fails
                future.set_exception(exc)

        threading.Thread(target=run, daemon=True).start()
        return future


class ProbeStore(MemoryStore):
    """Memory store recording which thread performs each get/put."""

    def __init__(self):
        super().__init__()
        self.get_threads = []
        self.put_threads = []
        self.get_jobs = []

    def get(self, job):
        self.get_threads.append(threading.get_ident())
        self.get_jobs.append(job)
        return super().get(job)

    def put(self, job, result):
        self.put_threads.append(threading.get_ident())
        return super().put(job, result)


class TestOffLoopStoreIO:
    def test_cache_hit_never_reads_on_the_loop_thread(self):
        """The regression: a hit used to open/read/decode the record
        directly in the submit coroutine, blocking the event loop."""
        job = delay_job()
        store = ProbeStore()
        MemoryStore.put(store, job, job.run())  # seed without recording
        service = ReproService(cache=store)     # thread backend (default)
        loop_thread = {}

        async def run():
            loop_thread["ident"] = threading.get_ident()
            try:
                return await service.submit(ServeRequest(job=job))
            finally:
                await service.close()

        response = asyncio.run(run())
        assert response["cache"] == "hit"
        assert store.get_threads, "the store was never consulted"
        assert loop_thread["ident"] not in store.get_threads

    def test_cache_put_runs_off_the_loop_thread_too(self):
        job = delay_job()
        store = ProbeStore()
        service = ReproService(cache=store, max_linger=0.0)
        loop_thread = {}

        async def run():
            loop_thread["ident"] = threading.get_ident()
            try:
                return await service.submit(ServeRequest(job=job))
            finally:
                await service.close()

        response = asyncio.run(run())
        assert response["cache"] == "miss"
        assert store.put_threads
        assert loop_thread["ident"] not in store.put_threads

    def test_serial_backend_reads_off_the_loop_thread_too(self):
        job = delay_job()
        store = ProbeStore()
        MemoryStore.put(store, job, job.run())
        service = ReproService(cache=store, backend="serial")
        loop_thread = {}

        async def run():
            loop_thread["ident"] = threading.get_ident()
            try:
                return await service.submit(ServeRequest(job=job))
            finally:
                await service.close()

        response = asyncio.run(run())
        assert response["cache"] == "hit"
        assert store.get_threads
        assert loop_thread["ident"] not in store.get_threads

    def test_store_calls_run_one_at_a_time_in_submission_order(self):
        """One store thread, FIFO: the fault plane arms ``cache.get.*``
        sites by invocation count, so the order must not vary."""
        jobs = [delay_job(l_nh) for l_nh in (0.5, 1.0, 1.5, 2.0, 2.5)]
        store = ProbeStore()
        for job in jobs:
            MemoryStore.put(store, job, job.run())
        service = ReproService(cache=store)

        async def run():
            try:
                return await asyncio.gather(
                    *(service.submit(ServeRequest(job=job))
                      for job in jobs))
            finally:
                await service.close()

        responses = asyncio.run(run())
        assert [response["cache"] for response in responses] \
            == ["hit"] * len(jobs)
        assert store.get_jobs == jobs
        assert len(set(store.get_threads)) == 1

    def test_write_back_lands_when_the_lane_resolves_during_close(self):
        job = delay_job()
        store = ProbeStore()
        started, release = threading.Event(), threading.Event()

        def gated(jobs):
            started.set()
            release.wait(timeout=10.0)
            return [{"ok": True, "result": {"tau": 3.0}} for _ in jobs]

        service = ReproService(cache=store, max_linger=0.0,
                               backend=ScriptedBackend(gated))

        async def run():
            task = asyncio.ensure_future(
                service.submit(ServeRequest(job=job)))
            while not started.is_set():     # the lane is dispatched
                await asyncio.sleep(0.005)
            asyncio.get_running_loop().call_later(0.05, release.set)
            await service.close()           # resolves the lane
            return await task

        response = asyncio.run(run())
        assert response["cache"] == "miss"
        assert response["result"] == {"tau": 3.0}
        assert store.put_threads
        assert MemoryStore.get(store, job) == {"tau": 3.0}


class TestSingleFlightCoalescing:
    def _counting_evaluator(self, calls, lanes):
        def evaluate(jobs):
            calls.append(len(jobs))
            lanes.extend(jobs)
            return [{"ok": True, "result": {"tau": 1.0}} for _ in jobs]
        return evaluate

    def test_64_identical_requests_one_evaluation(self):
        """The acceptance check: 64 concurrent copies of one spec ->
        exactly one evaluation, 64 bitwise-identical responses."""
        calls, lanes = [], []
        service = ReproService(
            cache=None, max_linger=0.0,
            backend=ScriptedBackend(self._counting_evaluator(calls, lanes)))
        job = delay_job()

        async def run():
            try:
                return await asyncio.gather(
                    *(service.submit(ServeRequest(job=job))
                      for _ in range(64)))
            finally:
                await service.close()

        responses = asyncio.run(run())
        assert len(lanes) == 1          # one lane ever evaluated
        assert sum(calls) == 1
        assert len(responses) == 64
        first = responses[0]
        assert first["ok"] and first["result"] == {"tau": 1.0}
        # Followers receive the leader's exact response body.
        assert all(response is first for response in responses[1:])
        assert canonical_json(first) == canonical_json(responses[63])
        assert service.metrics.coalesced["delay"] == 63
        assert "63 coalesced" in service.metrics.format_summary()
        assert service.metrics.to_payload()["coalesced"] == {"delay": 63}

    def test_distinct_specs_are_not_coalesced(self):
        calls, lanes = [], []
        service = ReproService(
            cache=None, max_linger=0.2,
            backend=ScriptedBackend(self._counting_evaluator(calls, lanes)))
        jobs = [delay_job(l_nh) for l_nh in (0.5, 1.0, 1.5)]

        async def run():
            try:
                return await asyncio.gather(
                    *(service.submit(ServeRequest(job=job))
                      for job in jobs))
            finally:
                await service.close()

        responses = asyncio.run(run())
        assert len(lanes) == 3
        assert all(response["ok"] for response in responses)
        assert service.metrics.coalesced == {}

    def test_no_cache_requests_bypass_coalescing(self):
        """A ``no_cache`` request asked for its own fresh evaluation."""
        calls, lanes = [], []
        service = ReproService(
            cache=None, max_linger=0.2,
            backend=ScriptedBackend(self._counting_evaluator(calls, lanes)))
        job = delay_job()

        async def run():
            try:
                return await asyncio.gather(
                    *(service.submit(ServeRequest(job=job, no_cache=True))
                      for _ in range(4)))
            finally:
                await service.close()

        responses = asyncio.run(run())
        assert len(lanes) == 4          # every request evaluated itself
        assert all(response["ok"] for response in responses)
        assert service.metrics.coalesced == {}

    def test_leader_failure_propagates_to_every_follower(self):
        def explode(jobs):
            return [{"ok": False, "error": "kernel rejected the batch",
                     "error_type": "DelaySolverError"} for _ in jobs]

        service = ReproService(cache=None, max_linger=0.0,
                               backend=ScriptedBackend(explode))
        job = delay_job()

        async def run():
            try:
                return await asyncio.gather(
                    *(service.submit(ServeRequest(job=job))
                      for _ in range(8)),
                    return_exceptions=True)
            finally:
                await service.close()

        results = asyncio.run(run())
        assert len(results) == 8
        for result in results:
            assert isinstance(result, EvaluationFailedError)
            assert "kernel rejected the batch" in result.message
        # Nobody hung, and every follower was recorded as an outcome.
        recorded = sum(count for (kind, _code), count in
                       service.metrics.outcomes.items())
        assert recorded == 8

    def test_flight_clears_after_completion(self):
        """Coalescing dedupes concurrency, it is not a cache: a request
        arriving after the flight resolves evaluates afresh."""
        calls, lanes = [], []
        service = ReproService(
            cache=None, max_linger=0.0,
            backend=ScriptedBackend(self._counting_evaluator(calls, lanes)))
        job = delay_job()

        async def run():
            try:
                first = await service.submit(ServeRequest(job=job))
                second = await service.submit(ServeRequest(job=job))
                return first, second
            finally:
                await service.close()

        first, second = asyncio.run(run())
        assert len(lanes) == 2
        assert first["ok"] and second["ok"]
        assert service.metrics.coalesced == {}

    def test_coalesced_hit_after_cache_write_back(self):
        """Followers and cache compose: the leader's result lands in
        the store, so the next wave is a pure cache hit."""
        store = MemoryStore()
        calls, lanes = [], []
        service = ReproService(
            cache=store, max_linger=0.0,
            backend=ScriptedBackend(self._counting_evaluator(calls, lanes)))
        job = delay_job()

        async def run():
            try:
                burst = await asyncio.gather(
                    *(service.submit(ServeRequest(job=job))
                      for _ in range(4)))
                later = await service.submit(ServeRequest(job=job))
                return burst, later
            finally:
                await service.close()

        burst, later = asyncio.run(run())
        assert len(lanes) == 1
        assert all(response["cache"] == "miss" or response is burst[0]
                   for response in burst)
        assert later["cache"] == "hit"
        assert later["result"] == {"tau": 1.0}


class TestFollowerDeadline:
    def test_follower_timeout_does_not_cancel_the_leader(self):
        """A follower with a tiny deadline times out with a structured
        error while the leader's evaluation completes unharmed."""
        from repro.serve.protocol import DeadlineExceededError

        release = threading.Event()

        def slow(jobs):
            release.wait(timeout=10.0)
            return [{"ok": True, "result": {"tau": 2.0}} for _ in jobs]

        service = ReproService(cache=None, max_linger=0.0,
                               backend=ScriptedBackend(slow))
        job = delay_job()

        async def run():
            leader = asyncio.ensure_future(
                service.submit(ServeRequest(job=job)))
            await asyncio.sleep(0.05)   # leader registers its flight
            follower = asyncio.ensure_future(
                service.submit(ServeRequest(job=job, timeout=0.01)))
            follower_result = await asyncio.gather(
                follower, return_exceptions=True)
            release.set()
            leader_response = await leader
            await service.close()
            return leader_response, follower_result[0]

        leader_response, follower_outcome = asyncio.run(run())
        assert leader_response["ok"]
        assert leader_response["result"] == {"tau": 2.0}
        assert isinstance(follower_outcome, DeadlineExceededError)


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-q"]))
