"""Dynamic micro-batching: coalesce concurrent requests into one batch.

The :class:`DynamicBatcher` is the serve layer's answer to the kernel
layer's economics: a vectorized ``threshold_delay_v`` call amortizes its
fixed cost over every lane, but interactive requests arrive one at a
time.  Each request class owns one batcher; admitted jobs queue as
*lanes* and a single drain task turns the queue into batches under a
max-batch-size / max-linger policy, awaits one dispatch per batch, and
fans the per-lane envelopes back to per-request futures.

Policy, in order of precedence:

* a batch is dispatched as soon as ``max_batch_size`` lanes are queued;
* otherwise the first queued lane waits at most ``max_linger`` seconds
  for company (the latency the slowest rider pays for batching);
* on ``close()`` lingering is abandoned and the queue is flushed —
  every admitted lane still completes (graceful drain), while new
  submissions are refused with :class:`ServiceClosedError`.

Admission control is a bounded queue: when ``max_queue_depth`` lanes
are already waiting, ``submit`` raises :class:`QueueFullError`
immediately (the 429 path) instead of building an unbounded backlog.
Per-request deadlines are enforced at dispatch time: a lane whose
deadline passed while it queued is expired with
:class:`DeadlineExceededError` and never evaluated.

Dispatch is one async callable ``(jobs) -> [envelope, ...]``; the
service passes one that awaits its backend's
:meth:`~repro.engine.backends.Backend.submit`, so a micro-batch is one
:func:`~repro.engine.jobs.run_jobs` call on one worker.  Up to
``max_inflight`` batches evaluate concurrently: the drain loop waits
for a free dispatch slot *before* popping lanes (so deadline checks
happen at true dispatch time and ``queue_depth`` keeps meaning "not yet
dispatched"), then awaits the batch as its own task and immediately
returns to the queue.  ``max_inflight=1`` (the default) dispatches one
batch at a time.

Fault isolation is per lane: a dispatch returns one envelope per job
(``{"ok": True, "result": ...}`` or ``{"ok": False, "error": ...,
"error_type": ...}``), so one diverging optimization fails only its own
future.  A dispatch that raises outright fails exactly the lanes of its
batch — never the queue behind it.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import (Any, Awaitable, Callable, Deque, Dict, List, Optional,
                    Set, Tuple)

from ..engine.jobs import DEFAULT_MAX_BATCH_SIZE
from ..faults import hooks as _faults
from .protocol import (DeadlineExceededError, EvaluationFailedError,
                       QueueFullError, ServiceClosedError)

#: Async ``(jobs) -> [envelope, ...]``: one envelope per job, in order.
Dispatch = Callable[[List[Any]], Awaitable[List[Dict[str, Any]]]]

#: Default seconds the first queued lane waits for company.
DEFAULT_MAX_LINGER = 0.005

#: Default admission-control bound on queued (not yet dispatched) lanes.
DEFAULT_MAX_QUEUE_DEPTH = 1024


@dataclass
class _Lane:
    """One queued request: its job, its future, and its deadline."""

    job: Any
    future: "asyncio.Future[Tuple[Dict[str, Any], int]]"
    enqueued_at: float
    deadline: Optional[float]


class DynamicBatcher:
    """Queue of one request class, drained into batched evaluations.

    Parameters
    ----------
    kind:
        Request-class label (used in error messages and metrics).
    dispatch:
        Async callable ``(jobs) -> [envelope, ...]`` that evaluates one
        batch; must return exactly one envelope per job, in order.
    max_batch_size / max_linger / max_queue_depth:
        The batching policy (see module docstring).
    on_batch:
        Optional ``(kind, size)`` callback fired per dispatched batch —
        the metrics registry's batch-size histogram hook.
    max_inflight:
        Dispatched batches allowed to evaluate concurrently (the service
        passes its backend's worker count).
    """

    def __init__(self, kind: str, dispatch: Dispatch,
                 *, max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
                 max_linger: float = DEFAULT_MAX_LINGER,
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
                 on_batch: Optional[Callable[[str, int], None]] = None,
                 max_inflight: int = 1) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_linger < 0.0:
            raise ValueError(f"max_linger must be >= 0, got {max_linger}")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        self.kind = kind
        self.max_batch_size = max_batch_size
        self.max_linger = max_linger
        self.max_queue_depth = max_queue_depth
        self.max_inflight = max_inflight
        self.on_batch = on_batch
        self._dispatch = dispatch
        self._pending: Deque[_Lane] = deque()
        self._inflight: Set["asyncio.Task[None]"] = set()
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Lanes admitted but not yet dispatched into a batch."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    async def submit(self, job: Any, *, timeout: Optional[float] = None
                     ) -> Tuple[Dict[str, Any], int]:
        """Queue ``job`` and await its result.

        Returns ``(result_dict, batch_size)`` where ``batch_size`` is
        the number of lanes evaluated together with this one.  Raises
        :class:`QueueFullError`, :class:`DeadlineExceededError`,
        :class:`EvaluationFailedError` or :class:`ServiceClosedError`.
        """
        if self._closed:
            raise ServiceClosedError(
                f"{self.kind} batcher is draining; request refused")
        if len(self._pending) >= self.max_queue_depth:
            raise QueueFullError(
                f"{self.kind} queue is full "
                f"({self.max_queue_depth} requests pending)")
        loop = asyncio.get_running_loop()
        now = loop.time()
        lane = _Lane(job=job, future=loop.create_future(), enqueued_at=now,
                     deadline=(now + timeout) if timeout is not None
                     else None)
        self._pending.append(lane)
        self._ensure_draining()
        assert self._wakeup is not None
        self._wakeup.set()
        return await lane.future

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Graceful drain: refuse new work, flush every admitted lane.

        Idempotent.  Returns once the queue is empty and every in-flight
        dispatch has fanned out — no admitted request is ever dropped
        silently.
        """
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            task = self._task
            try:
                await task
            except asyncio.CancelledError:
                if not task.cancelled():
                    raise  # close() itself was cancelled mid-await
            # repro: ignore[RPR007] -- the drain task can die with any
            # exception type; close() must still run the flush below so
            # every admitted lane is answered-or-rejected (the abnormal
            # death itself is already surfaced per-lane as rejections).
            except Exception:  # noqa: BLE001 — flush below regardless
                pass
            self._task = None
        # Flush in-flight dispatches: every batch already handed to the
        # backend completes and fans out before the workers go away.
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        # Defense in depth for the close/drain race: if the drain task
        # ever exits with lanes still queued (it crashed, or a lane was
        # admitted in the same event-loop step close() began), those
        # lanes are rejected explicitly — answered-or-rejected, never
        # silently lost.
        while self._pending:
            lane = self._pending.popleft()
            if not lane.future.done():
                lane.future.set_exception(ServiceClosedError(
                    f"{self.kind} batcher closed before the lane "
                    f"dispatched"))

    def _ensure_draining(self) -> None:
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._drain_loop())

    # ------------------------------------------------------------------
    # The drain loop.
    # ------------------------------------------------------------------
    async def _drain_loop(self) -> None:
        loop = asyncio.get_running_loop()
        wakeup = self._wakeup
        assert wakeup is not None
        while True:
            if not self._pending:
                if self._closed:
                    return
                wakeup.clear()
                if self._pending or self._closed:
                    continue  # raced with a submit/close between checks
                await wakeup.wait()
                continue

            # Linger: wait for company until the batch fills, the first
            # lane's linger budget runs out, or the batcher is closing.
            linger_until = self._pending[0].enqueued_at + self.max_linger
            while (len(self._pending) < self.max_batch_size
                   and not self._closed):
                remaining = linger_until - loop.time()
                if remaining <= 0.0:
                    break
                wakeup.clear()
                try:
                    await asyncio.wait_for(wakeup.wait(), remaining)
                except asyncio.TimeoutError:
                    break

            # Dispatch-slot wait *before* popping lanes: queued lanes
            # stay visible to admission control and their deadlines are
            # judged at the moment a slot actually frees up.
            while len(self._inflight) >= self.max_inflight:
                done, _ = await asyncio.wait(
                    set(self._inflight),
                    return_when=asyncio.FIRST_COMPLETED)
                self._inflight.difference_update(done)

            if _faults.ACTIVE is not None:
                # Named fault site: the drain loop stalls before popping
                # lanes, widening the linger/deadline/close races.
                pause = _faults.delay_duration("batcher.dispatch.delay")
                if pause > 0.0:
                    await asyncio.sleep(pause)

            size = min(self.max_batch_size, len(self._pending))
            lanes = [self._pending.popleft() for _ in range(size)]
            now = loop.time()
            live: List[_Lane] = []
            for lane in lanes:
                if lane.future.done():  # waiter went away (cancelled)
                    continue
                if lane.deadline is not None and now > lane.deadline:
                    lane.future.set_exception(DeadlineExceededError(
                        f"{self.kind} request expired after "
                        f"{now - lane.enqueued_at:.3f}s in queue "
                        f"(timeout {lane.deadline - lane.enqueued_at:.3f}s)"))
                    continue
                live.append(lane)
            if not live:
                continue

            if self.on_batch is not None:
                try:
                    self.on_batch(self.kind, len(live))
                # repro: ignore[RPR007] -- the on_batch metrics hook is
                # advisory and caller-supplied: a raising hook once
                # killed the drain task here, silently orphaning every
                # popped lane; answered-or-rejected outranks the
                # histogram, so any hook failure is deliberately dropped.
                except Exception:  # noqa: BLE001 — metrics are advisory
                    pass

            task = loop.create_task(self._dispatch_batch(live))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _dispatch_batch(self, live: List[_Lane]) -> None:
        """Evaluate one popped batch and fan its envelopes out.

        Runs as its own task so the drain loop can keep popping while
        the batch evaluates.  Never raises: everything batch-scoped —
        the dispatch, the envelope count check, and the fan-out itself
        (a malformed envelope raises here) — fails exactly this batch's
        lanes and leaves the drain task alive for the queue behind it.
        No admitted lane is ever orphaned by an internal error.
        """
        try:
            if _faults.ACTIVE is not None:
                _faults.fire("batcher.evaluate.error")
            envelopes = await self._dispatch([lane.job for lane in live])
            if _faults.ACTIVE is not None:
                envelopes = _faults.mutate(
                    "batcher.envelope.malformed", envelopes)
            if len(envelopes) != len(live):
                raise RuntimeError(
                    f"{self.kind} dispatch returned "
                    f"{len(envelopes)} envelopes for {len(live)} jobs")
            for lane, envelope in zip(live, envelopes):
                if lane.future.done():
                    continue
                if envelope.get("ok"):
                    lane.future.set_result(
                        (envelope["result"], len(live)))
                else:
                    lane.future.set_exception(EvaluationFailedError(
                        envelope.get("error", "evaluation failed"),
                        error_type=envelope.get("error_type")))
        except Exception as exc:  # noqa: BLE001 — fail this batch only
            for lane in live:
                if not lane.future.done():
                    lane.future.set_exception(EvaluationFailedError(
                        f"{self.kind} batch evaluation failed: {exc}",
                        error_type=type(exc).__name__))
