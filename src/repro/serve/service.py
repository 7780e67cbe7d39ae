"""The evaluation service: batch evaluators + cache + batchers + metrics.

:class:`ReproService` is the in-process heart of ``repro-serve`` (the
HTTP server in :mod:`repro.serve.server` is a thin shell around it, and
the benchmark drives it directly).  One request flows::

    parse_request -> cache lookup -> DynamicBatcher.submit
                         |                 |
                      hit: answer       batch evaluator (kernel layer)
                      immediately          |
                         <- cache put <- per-lane envelope

The batch evaluators are where the serve layer meets the kernel layer:

* ``delay`` batches assemble one :class:`~repro.core.kernels.StageBatch`
  (heterogeneous lines/drivers/thresholds broadcast per lane) and run
  :func:`~repro.core.kernels.threshold_delay_v`,
* ``critical_inductance`` batches run
  :func:`~repro.core.kernels.critical_inductance_v`,
* ``optimize`` batches group lanes by shared (driver, f, method, tol,
  max_iterations), run each group's Newton loops in lockstep via
  :func:`~repro.core.optimize.optimize_repeater_many` and finish them
  through :func:`~repro.engine.jobs.reseed_failed_lanes`, the RC
  re-seed retry :class:`~repro.engine.jobs.OptimizeJob` runs too.

Every evaluator produces per-lane result dicts **bitwise identical** to
the corresponding solo ``job.run()`` (the scalar-vs-vector guarantees of
the kernel and evaluator layers; an optimize lane's trace counters
included), so the service caches every successful lane and the store
stays coherent with ``repro-batch``.  A batch of one skips the
vectorized path and calls ``job.run()`` directly — that scalar path is
also the honest baseline the serve benchmark compares micro-batching
against.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.kernels import (StageBatch, critical_inductance_v,
                            threshold_delay_v)
from ..core.optimize import optimize_repeater_many
from ..engine.backends import Backend, make_backend
from ..engine.jobs import nonfinite_path, reseed_failed_lanes
from ..engine.store import ResultStore, flight_key
from ..errors import OptimizationError
from ..faults import hooks as _faults
from .batcher import (DEFAULT_MAX_BATCH_SIZE, DEFAULT_MAX_LINGER,
                      DEFAULT_MAX_QUEUE_DEPTH, DynamicBatcher)
from .metrics import ServerMetrics
from .protocol import (REQUEST_JOB_TYPES, DeadlineExceededError, ServeError,
                       ServeRequest, ServiceClosedError, encode_error,
                       encode_result, parse_request)


# ----------------------------------------------------------------------
# Batch evaluators (blocking; run on an executor thread).
# ----------------------------------------------------------------------
def _solo_envelope(job: Any) -> Dict[str, Any]:
    """Evaluate one job through its own ``run()`` with fault isolation.

    The result takes the same non-finite screen as every batched lane.
    """
    try:
        envelope = {"ok": True, "result": job.run()}
    except Exception as exc:  # noqa: BLE001 — isolate any lane failure
        return {"ok": False, "error": str(exc),
                "error_type": type(exc).__name__}
    return _screened(envelope)


def _screened(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """Fail a lane whose result contains NaN/inf instead of serving it.

    The wire protocol is strict JSON (no ``NaN`` tokens) and the cache
    must never store a non-finite payload, so a lane that solved to NaN
    — a numerical escape, or the ``kernels.threshold_delay.nan_lane``
    fault — is reported as that lane's own structured failure.
    """
    if envelope.get("ok") \
            and nonfinite_path(envelope["result"]) is not None:
        return {"ok": False,
                "error": "evaluation produced a non-finite result",
                "error_type": "DelaySolverError"}
    return envelope


def _stage_batch(jobs: Sequence[Any]) -> StageBatch:
    """Pack heterogeneous delay/critical jobs into one kernel batch."""
    return StageBatch.from_arrays(
        r=[job.line.r for job in jobs],
        l=[job.line.l for job in jobs],
        c=[job.line.c for job in jobs],
        r_s=[job.driver.r_s for job in jobs],
        c_p=[job.driver.c_p for job in jobs],
        c_0=[job.driver.c_0 for job in jobs],
        h=[job.h for job in jobs],
        k=[job.k for job in jobs])


def evaluate_delay_batch(jobs: Sequence[Any]) -> List[Dict[str, Any]]:
    """N delay requests as one ``threshold_delay_v`` call.

    Lane payloads match :meth:`repro.engine.jobs.DelayJob.run` bitwise
    (polish is rejected at the protocol boundary, so every lane is the
    unpolished kernel solve).  If the vectorized call refuses the batch
    (one bad lane poisons batch validation), every lane falls back to
    its solo scalar path so only the offending request fails.
    """
    if len(jobs) == 1:
        return [_solo_envelope(jobs[0])]
    try:
        solved = threshold_delay_v(_stage_batch(jobs),
                                   [job.f for job in jobs])
    except Exception:  # noqa: BLE001 — isolate per lane via solo path
        return [_solo_envelope(job) for job in jobs]
    damping = solved.damping_values()
    envelopes: List[Dict[str, Any]] = []
    for i, job in enumerate(jobs):
        tau = float(solved.tau[i])
        envelopes.append(_screened({"ok": True, "result": {
            "tau": tau,
            "delay_per_length": tau / job.h,
            "threshold": job.f,
            "damping": damping[i].value,
            "newton_iterations": 0}}))
    return envelopes


def evaluate_critical_inductance_batch(jobs: Sequence[Any]
                                       ) -> List[Dict[str, Any]]:
    """N critical-inductance requests as one ``critical_inductance_v``.

    Lane payloads match
    :meth:`repro.engine.jobs.CriticalInductanceJob.run` bitwise — both
    paths evaluate the same ``critical_inductance_terms`` expression
    graph.
    """
    if len(jobs) == 1:
        return [_solo_envelope(jobs[0])]
    try:
        l_crit = critical_inductance_v(_stage_batch(jobs))
    except Exception:  # noqa: BLE001 — isolate per lane via solo path
        return [_solo_envelope(job) for job in jobs]
    envelopes: List[Dict[str, Any]] = []
    for i, job in enumerate(jobs):
        lc = float(l_crit[i])
        margin = (job.line.l / lc) if lc > 0.0 else None
        envelopes.append(_screened({"ok": True, "result": {
            "l_crit": lc, "l": job.line.l, "damping_margin": margin}}))
    return envelopes


def evaluate_optimize_batch(jobs: Sequence[Any]) -> List[Dict[str, Any]]:
    """N optimize requests, lockstep-batched per shared configuration.

    Lanes sharing (driver, f, method, tol, max_iterations) run their
    Newton loops in lockstep through ``optimize_repeater_many`` and
    finish through ``reseed_failed_lanes`` — the same driver and retry
    as ``OptimizeJob.run``, so each lane's payload or error text equals
    its solo run's.
    """
    if len(jobs) == 1:
        return [_solo_envelope(jobs[0])]
    envelopes: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
    groups: Dict[Any, List[int]] = {}
    for i, job in enumerate(jobs):
        key = (job.driver, job.f, job.method, job.tol, job.max_iterations)
        groups.setdefault(key, []).append(i)
    for (driver, f, method, tol, max_iterations), indices in groups.items():
        try:
            outcomes = optimize_repeater_many(
                [jobs[i].line for i in indices], driver, f, method=method,
                initials=[jobs[i].initial for i in indices], tol=tol,
                max_iterations=max_iterations)
        except Exception:  # noqa: BLE001 — isolate per lane via solo path
            for i in indices:
                envelopes[i] = _solo_envelope(jobs[i])
            continue
        if _faults.ACTIVE is not None:
            # Named fault site: exactly one lane of the lockstep batch
            # diverges; the re-seed retry below must recover (or fail)
            # that lane alone.
            lane = _faults.pick_lane("serve.optimize.lane_error",
                                     len(outcomes))
            if lane is not None:
                outcomes[lane] = OptimizationError(
                    "injected fault at serve.optimize.lane_error: "
                    "lane diverged")
        results = reseed_failed_lanes([jobs[i] for i in indices], outcomes)
        for i, result in zip(indices, results):
            if isinstance(result, Exception):
                envelopes[i] = {"ok": False, "error": str(result),
                                "error_type": type(result).__name__}
            else:
                envelopes[i] = _screened({"ok": True, "result": result})
    assert all(envelope is not None for envelope in envelopes)
    return envelopes  # type: ignore[return-value]


#: Blocking batch evaluator per served request class.
EVALUATORS: Dict[str, Callable[[Sequence[Any]], List[Dict[str, Any]]]] = {
    "delay": evaluate_delay_batch,
    "critical_inductance": evaluate_critical_inductance_batch,
    "optimize": evaluate_optimize_batch,
}

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
        Optional :class:`~repro.engine.store.ResultStore` (disk,
        memory, or tiered — see :func:`repro.engine.store.make_store`).
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
    metrics / evaluators:
        Injection points for tests; default to a fresh
        :class:`ServerMetrics` and the kernel-layer :data:`EVALUATORS`.
    backend / backend_workers:
        The execution backend every batcher dispatches evaluator calls
        onto — a name from
        :data:`repro.engine.backends.BACKEND_NAMES` (default
        ``thread``, a bounded named pool of ``backend_workers``
        workers) or a live :class:`~repro.engine.backends.Backend`
        instance to share (the caller then owns its lifecycle).  A
        service-owned backend is shut down by :meth:`close` *after* the
        batchers drain, so in-flight dispatches always complete before
        the workers go away.
    """

    def __init__(self, *, cache: Optional[ResultStore] = None,
                 max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
                 max_linger: float = DEFAULT_MAX_LINGER,
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
                 default_timeout: Optional[float] = None,
                 metrics: Optional[ServerMetrics] = None,
                 evaluators: Optional[Dict[str, Callable]] = None,
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
        table = evaluators if evaluators is not None else EVALUATORS
        self._batchers: Dict[str, DynamicBatcher] = {
            kind: DynamicBatcher(
                kind, table[kind], max_batch_size=max_batch_size,
                max_linger=max_linger, max_queue_depth=max_queue_depth,
                on_batch=self.metrics.record_batch,
                backend=self.backend)
            for kind in REQUEST_JOB_TYPES if kind in table}
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
