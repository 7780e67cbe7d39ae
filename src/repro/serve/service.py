"""The evaluation service: cache + batchers + metrics over one backend.

:class:`ReproService` is the in-process heart of ``repro-serve`` (the
HTTP server in :mod:`repro.serve.server` is a thin shell around it, and
the benchmark drives it directly).  One request flows::

    parse_request -> cache lookup -> DynamicBatcher.submit
                         |                 |
                      hit: answer       Backend.submit (one worker)
                      immediately          |
                         <- cache put <- per-lane envelope

Serve keeps the queueing and nothing else.  Each request class's
micro-batch is one :meth:`~repro.engine.backends.Backend.submit`, so
it is evaluated by :func:`~repro.engine.jobs.run_jobs` — the function
every ``repro-batch`` dispatch runs: delay and critical-inductance
lanes as one vector-kernel call, optimize lanes in lockstep per shared
configuration with the RC re-seed retry, each lane screened for
non-finite values and failing alone.  A lane's payload is bitwise the
solo ``job.run()``'s (an optimize lane's trace counters included), so
the service caches every successful lane and the store stays coherent
with ``repro-batch``.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Dict, List, Optional, Union

from ..engine.backends import Backend, make_backend
from ..engine.store import ResultStore, flight_key
from .batcher import (DEFAULT_MAX_BATCH_SIZE, DEFAULT_MAX_LINGER,
                      DEFAULT_MAX_QUEUE_DEPTH, DynamicBatcher)
from .metrics import ServerMetrics
from .protocol import (REQUEST_JOB_TYPES, DeadlineExceededError, ServeError,
                       ServeRequest, ServiceClosedError, encode_error,
                       encode_result, parse_request)


#: Default dispatch workers for a service-owned backend.
DEFAULT_SERVE_WORKERS = max(1, min(8, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# The service.
# ----------------------------------------------------------------------
class ReproService:
    """Dynamic-batching evaluation service over the kernel layer.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.engine.store.ResultStore` (disk or
        tiered — see :func:`repro.engine.store.make_store`).
        Hits are answered without entering a batch; fresh successes are
        written back under the engine's salt/schema versioning, so the
        store is shared coherently with ``repro-batch``.  Every store
        ``get``/``put`` runs through the backend's auxiliary I/O lane
        (:meth:`~repro.engine.backends.Backend.run_io_async`), so a
        cache hit never opens files or decodes JSON on the event-loop
        thread (serial backends are inline by design).
    max_batch_size / max_linger / max_queue_depth:
        Batching policy applied to every request class's batcher.
    default_timeout:
        Queue deadline (seconds) applied to requests that do not carry
        their own ``timeout``; ``None`` means wait indefinitely.
    metrics:
        Injection point for tests; defaults to a fresh
        :class:`ServerMetrics`.
    backend / backend_workers:
        The execution backend every batcher dispatches its micro-batches
        onto — a name from
        :data:`repro.engine.backends.BACKEND_NAMES` (default
        ``thread``, a bounded named pool of ``backend_workers``
        workers) or a live :class:`~repro.engine.backends.Backend`
        instance to share (the caller then owns its lifecycle; tests
        pass a ``Backend`` subclass here).  Up to ``backend.workers``
        batches per request class evaluate at once.  A service-owned
        backend is shut down by :meth:`close` *after* the batchers
        drain, so in-flight dispatches always complete before the
        workers go away.
    """

    def __init__(self, *, cache: Optional[ResultStore] = None,
                 max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
                 max_linger: float = DEFAULT_MAX_LINGER,
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
                 default_timeout: Optional[float] = None,
                 metrics: Optional[ServerMetrics] = None,
                 backend: Optional[Union[str, Backend]] = None,
                 backend_workers: Optional[int] = None) -> None:
        self.cache = cache
        self.default_timeout = default_timeout
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self._owns_backend = not isinstance(backend, Backend)
        self.backend = make_backend(
            backend if backend is not None else "thread",
            workers=backend_workers or DEFAULT_SERVE_WORKERS,
            thread_name_prefix="repro-serve-dispatch")
        self._batchers: Dict[str, DynamicBatcher] = {
            kind: DynamicBatcher(
                kind, self._dispatch, max_batch_size=max_batch_size,
                max_linger=max_linger, max_queue_depth=max_queue_depth,
                on_batch=self.metrics.record_batch,
                max_inflight=self.backend.workers)
            for kind in REQUEST_JOB_TYPES}
        #: In-flight coalescing table: spec hash -> future resolving to
        #: ("ok", response) | ("error", exc).  Concurrent identical
        #: requests (across micro-batches too) collapse onto the first
        #: one's evaluation and receive its exact response body.
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> Dict[str, int]:
        """Current queued-lane count per request class."""
        return {kind: batcher.queue_depth
                for kind, batcher in self._batchers.items()}

    def backend_stats(self) -> Dict[str, Any]:
        """The shared backend's dispatch stats (the ``/metrics`` block)."""
        return self.backend.stats_payload()

    async def _dispatch(self, jobs: List[Any]) -> List[Dict[str, Any]]:
        """One micro-batch through the backend seam, on one worker."""
        return await asyncio.wrap_future(self.backend.submit(jobs))

    # ------------------------------------------------------------------
    # Request paths.
    # ------------------------------------------------------------------
    async def submit(self, request: ServeRequest) -> Dict[str, Any]:
        """Evaluate one admitted request; returns the response body.

        Raises the :class:`~repro.serve.protocol.ServeError` family on
        every failure path (the caller maps them to responses).

        Identical requests already in flight are coalesced: the first
        (leader) evaluates — at most one evaluation per unique spec no
        matter how many arrive concurrently — and every follower gets
        the leader's exact response body (or its failure; leader
        failure propagates, so followers stay answered-or-rejected).
        ``no_cache`` requests opt out: they asked for their own fresh
        evaluation.
        """
        start = time.perf_counter()
        kind = request.kind
        self.metrics.record_request(kind)
        try:
            if self._closed:
                raise ServiceClosedError(
                    "service is draining; request refused")
            batcher = self._batchers.get(kind)
            if batcher is None:
                raise ServiceClosedError(
                    f"no batcher serves request kind {kind!r}")

            key = None if request.no_cache else flight_key(request.job)
            if key is not None:
                leading = self._inflight.get(key)
                if leading is not None:
                    return await self._follow(kind, request, leading,
                                              start)
                future = asyncio.get_running_loop().create_future()
                self._inflight[key] = future
                try:
                    response = await self._evaluate(kind, request,
                                                    batcher, start)
                except BaseException as exc:
                    self._inflight.pop(key, None)
                    future.set_result(("error", exc))
                    raise
                self._inflight.pop(key, None)
                future.set_result(("ok", response))
                return response
            return await self._evaluate(kind, request, batcher, start)
        except ServeError as exc:
            self.metrics.record_outcome(kind, exc.code,
                                        time.perf_counter() - start)
            raise

    async def _evaluate(self, kind: str, request: ServeRequest,
                        batcher: DynamicBatcher,
                        start: float) -> Dict[str, Any]:
        """Leader path: cache lookup, batched evaluation, write-back.

        All store I/O runs on the backend's auxiliary I/O lane — a
        cache hit never opens a file or decodes JSON on the event-loop
        thread.
        """
        use_cache = self.cache is not None and not request.no_cache
        if use_cache:
            cached = await self.backend.run_io_async(
                lambda: self.cache.get(request.job))
            self.metrics.record_cache(kind, hit=cached is not None)
            if cached is not None:
                self.metrics.record_outcome(
                    kind, "ok", time.perf_counter() - start)
                return encode_result(kind, cached, cache="hit",
                                     batch_size=0)

        timeout = (request.timeout if request.timeout is not None
                   else self.default_timeout)
        result, batch_size = await batcher.submit(request.job,
                                                  timeout=timeout)
        if use_cache:
            try:
                await self.backend.run_io_async(
                    lambda: self.cache.put(request.job, result))
            except OSError:
                # A store failure (full disk, permissions, an
                # injected cache.put.os_error) must never fail a
                # request whose result is already in hand.
                self.metrics.record_cache_put_failure(kind)
        self.metrics.record_outcome(kind, "ok",
                                    time.perf_counter() - start)
        state = ("miss" if use_cache
                 else "bypass" if request.no_cache and self.cache
                 else "off")
        return encode_result(kind, result, cache=state,
                             batch_size=batch_size)

    async def _follow(self, kind: str, request: ServeRequest,
                      future: "asyncio.Future",
                      start: float) -> Dict[str, Any]:
        """Follower path: wait out the in-flight leader's evaluation.

        The future is shielded so one follower's deadline cannot
        cancel the shared evaluation other waiters (and the leader)
        depend on.
        """
        self.metrics.record_coalesced(kind)
        timeout = (request.timeout if request.timeout is not None
                   else self.default_timeout)
        try:
            if timeout is not None:
                status, value = await asyncio.wait_for(
                    asyncio.shield(future), timeout)
            else:
                status, value = await future
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"coalesced {kind} request timed out after {timeout:g}s "
                f"waiting for the in-flight evaluation") from None
        if status == "error":
            raise value
        self.metrics.record_outcome(kind, "ok",
                                    time.perf_counter() - start)
        return value

    async def handle(self, data: Any) -> tuple:
        """Full protocol path: parse → submit → encode.

        Never raises for protocol-visible failures; returns
        ``(http_status, response_body)``.
        """
        try:
            request = parse_request(data)
        except ServeError as exc:
            self.metrics.record_outcome("unknown", exc.code)
            return encode_error(exc)
        try:
            return 200, await self.submit(request)
        except ServeError as exc:
            return encode_error(exc)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Graceful drain: stop admitting, flush every batcher.

        Every request admitted before the call completes normally (its
        waiter gets a result or an explicit error); later submissions
        raise :class:`ServiceClosedError`.  A service-owned backend is
        shut down only after every batcher has drained, so in-flight
        dispatches finish on live workers.  Idempotent.
        """
        self._closed = True
        await asyncio.gather(*(batcher.close()
                               for batcher in self._batchers.values()))
        if self._owns_backend:
            self.backend.close()
