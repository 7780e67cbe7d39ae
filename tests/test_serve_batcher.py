"""Unit tests for the dynamic micro-batcher (no kernel layer involved).

Every test drives a :class:`DynamicBatcher` with a scripted evaluator,
dispatched on a worker thread through :func:`on_thread`, so the batching
policy — coalescing, splitting, admission control, queue deadlines,
per-lane fault isolation, graceful drain — is exercised in isolation
from the numerical code.  The suite has no async test runner; each test
wraps its coroutine in ``asyncio.run``.
"""

import asyncio
import threading

import pytest

from repro.serve.batcher import DynamicBatcher
from repro.serve.protocol import (DeadlineExceededError,
                                  EvaluationFailedError, QueueFullError,
                                  ServiceClosedError)


def on_thread(evaluate):
    """The batcher's async dispatch over a blocking evaluator, run on a
    worker thread as a backend would run it."""
    async def dispatch(jobs):
        return await asyncio.to_thread(evaluate, jobs)
    return dispatch


class RecordingEvaluator:
    """Echo evaluator that records the batches it was handed."""

    def __init__(self, delay=0.0, gate=None):
        self.batches = []
        self.delay = delay
        self.gate = gate  # threading.Event the evaluator waits on

    def __call__(self, jobs):
        self.batches.append(list(jobs))
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0)
        if self.delay:
            import time
            time.sleep(self.delay)
        return [{"ok": True, "result": {"echo": job}} for job in jobs]


class TestCoalescing:
    def test_concurrent_burst_becomes_one_batch(self):
        evaluate = RecordingEvaluator()

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_batch_size=64,
                                     max_linger=0.2)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(8)))
            await batcher.close()
            return results

        results = asyncio.run(run())
        assert evaluate.batches == [list(range(8))]
        assert [result for result, _size in results] \
            == [{"echo": i} for i in range(8)]
        assert all(size == 8 for _result, size in results)

    def test_max_batch_size_splits_the_queue(self):
        evaluate = RecordingEvaluator()

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_batch_size=4,
                                     max_linger=0.2)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(10)))
            await batcher.close()
            return results

        results = asyncio.run(run())
        assert [len(batch) for batch in evaluate.batches] == [4, 4, 2]
        assert sorted(job for batch in evaluate.batches for job in batch) \
            == list(range(10))
        assert [result for result, _size in results] \
            == [{"echo": i} for i in range(10)]

    def test_linger_expiry_dispatches_partial_batch(self):
        evaluate = RecordingEvaluator()

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_batch_size=64,
                                     max_linger=0.01)
            result, size = await batcher.submit("alone")
            await batcher.close()
            return result, size

        result, size = asyncio.run(run())
        assert result == {"echo": "alone"}
        assert size == 1

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            DynamicBatcher("echo", on_thread(RecordingEvaluator()), max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher("echo", on_thread(RecordingEvaluator()), max_linger=-1.0)
        with pytest.raises(ValueError):
            DynamicBatcher("echo", on_thread(RecordingEvaluator()), max_queue_depth=0)


class TestFaultIsolation:
    def test_failed_lane_fails_alone(self):
        def evaluate(jobs):
            return [{"ok": False, "error": f"lane {job} diverged",
                     "error_type": "OptimizationError"}
                    if job == "bad" else {"ok": True, "result": {"echo": job}}
                    for job in jobs]

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_linger=0.2)
            outcomes = await asyncio.gather(
                batcher.submit("a"), batcher.submit("bad"),
                batcher.submit("b"), return_exceptions=True)
            await batcher.close()
            return outcomes

        good_a, bad, good_b = asyncio.run(run())
        assert good_a[0] == {"echo": "a"}
        assert good_b[0] == {"echo": "b"}
        assert isinstance(bad, EvaluationFailedError)
        assert "diverged" in bad.message
        assert bad.details == {"error_type": "OptimizationError"}

    def test_evaluator_crash_fails_only_its_batch(self):
        calls = []

        def evaluate(jobs):
            calls.append(list(jobs))
            if len(calls) == 1:
                raise RuntimeError("kernel refused the batch")
            return [{"ok": True, "result": {"echo": job}} for job in jobs]

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_linger=0.05)
            first = await asyncio.gather(
                batcher.submit("x"), batcher.submit("y"),
                return_exceptions=True)
            # The drain loop survives the crash: later work still runs.
            second = await batcher.submit("z")
            await batcher.close()
            return first, second

        first, second = asyncio.run(run())
        assert all(isinstance(exc, EvaluationFailedError) for exc in first)
        assert all("kernel refused" in exc.message for exc in first)
        assert second[0] == {"echo": "z"}
        assert len(calls) == 2

    def test_envelope_count_mismatch_is_an_evaluation_failure(self):
        def evaluate(jobs):
            return [{"ok": True, "result": {}}] * (len(jobs) + 1)

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_linger=0.01)
            with pytest.raises(EvaluationFailedError,
                               match="3 envelopes for 2 jobs"):
                await asyncio.gather(batcher.submit("a"),
                                     batcher.submit("b"))
            await batcher.close()

        asyncio.run(run())


class TestAdmissionControl:
    def test_queue_full_rejects_immediately(self):
        gate = threading.Event()
        evaluate = RecordingEvaluator(gate=gate)

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_batch_size=1,
                                     max_linger=0.0, max_queue_depth=2)
            # First submission dispatches and pins the evaluator thread.
            first = asyncio.ensure_future(batcher.submit("dispatched"))
            while not evaluate.batches:
                await asyncio.sleep(0.001)
            # Two more fill the queue to max_queue_depth.
            queued = [asyncio.ensure_future(batcher.submit(i))
                      for i in range(2)]
            await asyncio.sleep(0.01)
            assert batcher.queue_depth == 2
            with pytest.raises(QueueFullError, match="queue is full"):
                await batcher.submit("rejected")
            gate.set()
            results = await asyncio.gather(first, *queued)
            await batcher.close()
            return results

        results = asyncio.run(run())
        # The rejection lost no admitted request.
        assert [result for result, _size in results] \
            == [{"echo": "dispatched"}, {"echo": 0}, {"echo": 1}]

    def test_deadline_expires_in_queue(self):
        gate = threading.Event()
        released = []

        def evaluate(jobs):
            if not released:
                released.append(True)
                assert gate.wait(timeout=10.0)
            return [{"ok": True, "result": {"echo": job}} for job in jobs]

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_batch_size=1,
                                     max_linger=0.0)
            first = asyncio.ensure_future(batcher.submit("slow"))
            while not released:
                await asyncio.sleep(0.001)
            # Queued behind the stalled batch with a tiny deadline.
            doomed = asyncio.ensure_future(
                batcher.submit("doomed", timeout=0.01))
            await asyncio.sleep(0.05)
            gate.set()
            outcomes = await asyncio.gather(first, doomed,
                                            return_exceptions=True)
            await batcher.close()
            return outcomes

        slow, doomed = asyncio.run(run())
        assert slow[0] == {"echo": "slow"}
        assert isinstance(doomed, DeadlineExceededError)
        assert "expired" in doomed.message

    def test_expired_lane_never_reaches_the_evaluator(self):
        gate = threading.Event()
        evaluate = RecordingEvaluator(gate=gate)

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_batch_size=1,
                                     max_linger=0.0)
            first = asyncio.ensure_future(batcher.submit("pin"))
            while not evaluate.batches:
                await asyncio.sleep(0.001)
            doomed = asyncio.ensure_future(
                batcher.submit("doomed", timeout=0.01))
            await asyncio.sleep(0.05)
            gate.set()
            await asyncio.gather(first, doomed, return_exceptions=True)
            await batcher.close()

        asyncio.run(run())
        assert ["doomed"] not in evaluate.batches


class TestGracefulDrain:
    def test_close_flushes_every_admitted_lane(self):
        evaluate = RecordingEvaluator()

        async def run():
            # Linger far longer than the test: only close() can flush.
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_batch_size=64,
                                     max_linger=30.0)
            waiters = [asyncio.ensure_future(batcher.submit(i))
                       for i in range(3)]
            await asyncio.sleep(0.01)
            assert not any(w.done() for w in waiters)  # still lingering
            await batcher.close()
            return await asyncio.gather(*waiters)

        results = asyncio.run(run())
        assert [result for result, _size in results] \
            == [{"echo": i} for i in range(3)]

    def test_submit_after_close_is_refused(self):
        async def run():
            batcher = DynamicBatcher("echo", on_thread(RecordingEvaluator()),
                                     max_linger=0.0)
            await batcher.close()
            assert batcher.closed
            with pytest.raises(ServiceClosedError, match="draining"):
                await batcher.submit("late")
            await batcher.close()  # idempotent

        asyncio.run(run())

    def test_on_batch_hook_sees_dispatched_sizes(self):
        sizes = []

        async def run():
            batcher = DynamicBatcher(
                "echo", on_thread(RecordingEvaluator()), max_batch_size=2,
                max_linger=0.2, on_batch=lambda kind, n: sizes.append((kind, n)))
            await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            await batcher.close()

        asyncio.run(run())
        assert sizes == [("echo", 2), ("echo", 2)]


class TestDrainRobustness:
    """Regressions for the close/linger race and the advisory hook.

    Both bugs shared a failure shape: the drain task died (or exited
    with lanes still queued) and every orphaned waiter hung forever.
    The invariant under test is answered-or-rejected — a lane may fail,
    but it may never be silently dropped.
    """

    def test_raising_on_batch_hook_does_not_orphan_lanes(self):
        # A metrics hook that raises once killed the drain task after
        # lanes were popped from the queue: the popped lanes hung and
        # every later submit joined a queue nobody drained.
        evaluate = RecordingEvaluator()

        def hostile_hook(kind, size):
            raise RuntimeError("histogram backend exploded")

        async def run():
            batcher = DynamicBatcher("echo", on_thread(evaluate), max_batch_size=4,
                                     max_linger=0.01,
                                     on_batch=hostile_hook)
            first = await asyncio.gather(
                *(batcher.submit(i) for i in range(4)))
            # The drain task must have survived the hook to serve this.
            second = await asyncio.gather(
                *(batcher.submit(i) for i in range(4, 8)))
            await batcher.close()
            return first + second

        results = asyncio.run(run())
        assert [result for result, _size in results] \
            == [{"echo": i} for i in range(8)]
        assert len(evaluate.batches) == 2

    def test_close_rejects_lanes_left_behind_by_a_dead_drain_task(self):
        # The close/linger race, distilled: the drain task is gone while
        # a lane still sits in the queue.  close() must reject that lane
        # explicitly instead of returning with it parked forever.
        async def run():
            batcher = DynamicBatcher("echo", on_thread(RecordingEvaluator()),
                                     max_linger=30.0)
            waiter = asyncio.ensure_future(batcher.submit(0))
            await asyncio.sleep(0.01)  # lane admitted, drain lingering
            batcher._task.cancel()     # simulate the task dying
            await asyncio.sleep(0)
            await batcher.close()      # must not leak CancelledError
            with pytest.raises(ServiceClosedError,
                               match="before the lane dispatched"):
                await waiter

        asyncio.run(run())
