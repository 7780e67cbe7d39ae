"""One execution plane: pluggable serial/thread/process backends.

Before this module existed the repo ran paper workloads through two
unrelated execution paths: the engine's :class:`BatchExecutor` owned a
bespoke per-run ``ProcessPoolExecutor`` loop, while the serve layer's
``DynamicBatcher`` dispatched every micro-batch onto the event loop's
*default* thread pool — unbounded, anonymous, shared with any other
``run_in_executor(None, ...)`` caller, and GIL-bound to roughly one
core.  A :class:`Backend` is the shared seam both now plug into:

* :meth:`Backend.submit_batch` — the engine path: N job specs in, N
  ordered outcome envelopes out, one :func:`_execute_job` per job;
* :meth:`Backend.run_call_async` — the serve path: one batch-evaluator
  call placed on one worker without blocking the event loop (the
  evaluator itself vectorizes across its lanes).

Everything *above* the seam — cache lookups, the RC re-seed retry, the
``nonfinite_path`` screen, metrics, submission-order collection — is
backend-agnostic, and nothing below the seam touches result payloads,
so every backend is bitwise identical to ``SerialBackend``
(``tests/test_backends.py`` asserts this for successes *and* captured
failures).

Choosing a backend:

* :class:`SerialBackend` — in-process, zero indirection.  Monkeypatched
  evaluators and shared ``lru_cache`` state behave exactly as direct
  calls; the engine default for ``jobs=1``.
* :class:`ThreadBackend` — a bounded, named ``ThreadPoolExecutor``.
  Keeps the event loop responsive and overlaps I/O, but numerical work
  stays GIL-bound; the serve default.
* :class:`ProcessBackend` — persistent warm workers that survive across
  batches (the engine's old pool was rebuilt per ``run()``).  Spawned
  workers re-read ``REPRO_FAULTS`` at import, so a fault plan armed via
  the environment reaches them exactly as it reached the per-run pool.
  The pool is rebuilt (and counted in ``worker_restarts``) when a
  worker dies mid-batch.

Fault sites (scenario ``backend``): ``backend.worker.hang`` stalls a
dispatch, ``backend.dispatch.queue_full`` rejects one at submission,
and ``backend.worker.crash`` kills the batch the way a dead worker
does — the translated error keeps the engine's actionable
"re-run with jobs=1" context and the pool restarts underneath it.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..faults import hooks as _faults
from .jobs import nonfinite_path
from .metrics import latency_percentiles

#: Selectable backend names, in the order CLIs advertise them.
BACKEND_NAMES = ("serial", "thread", "process")

#: Dispatch-wait samples retained for the percentile window.
DISPATCH_WAIT_WINDOW = 4096


# ----------------------------------------------------------------------
# The unit of execution (shared by every backend).
# ----------------------------------------------------------------------
def _execute_job(job: Any) -> Dict[str, Any]:
    """Evaluate one job, never raising — the unit of fault isolation.

    Module-level so it pickles for the process backend.  Returns an
    envelope ``{"ok", "result" | ("error", "error_type", "traceback"),
    "wall_time"}``.

    A result containing a non-finite number anywhere, its optimizer
    ``trace`` included, is reported as that job's *failure*, not a
    success: a NaN that slipped out of a solver must never be cached or
    summarized as an answer (the serve layer applies the same screen per
    lane).  A trace writes an undefined value as ``None``, so a healthy
    trace passes.
    """
    start = time.perf_counter()
    try:
        if _faults.ACTIVE is not None:
            _faults.sleep("executor.job.hang")
            _faults.fire("executor.job.error", kind=job.kind)
        result = job.run()
    except Exception as exc:  # noqa: BLE001 — isolate *any* job failure
        return {"ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(),
                "wall_time": time.perf_counter() - start}
    bad = nonfinite_path(result, "result")
    if bad is not None:
        return {"ok": False,
                "error": f"job produced a non-finite value at {bad} "
                         f"(solver escape; result not cached)",
                "error_type": "DelaySolverError",
                "traceback": "",
                "wall_time": time.perf_counter() - start}
    return {"ok": True, "result": result,
            "wall_time": time.perf_counter() - start}


def _warm_worker() -> None:
    """Process-pool initializer: pre-import the job layer.

    Every worker pays the numpy/repro import exactly once, at pool
    start, in parallel — instead of serially on its first dispatched
    chunk.  Spawned workers also re-run the fault plane's
    ``REPRO_FAULTS`` environment activation at that import, which is
    how they inherit the parent's env-armed plan.
    """
    import repro.engine.jobs  # noqa: F401


def _timed_call(fn: Callable[[Sequence[Any]], List[Dict[str, Any]]],
                batch: Sequence[Any], submitted_wall: float) -> tuple:
    """Run one evaluator call in a worker, reporting its dispatch wait.

    ``perf_counter`` is not comparable across processes, so the wait is
    measured against wall-clock time captured at submission — coarse,
    but honest about cross-process queueing.
    """
    wait = max(0.0, time.time() - submitted_wall)
    return wait, fn(list(batch))


# ----------------------------------------------------------------------
# Stats.
# ----------------------------------------------------------------------
class BackendStats:
    """Thread-safe dispatch accounting one backend instance carries.

    ``dispatches``/``lanes`` count submitted work, ``in_flight`` the
    batches currently between submission and completion, and
    ``worker_restarts`` the times a broken process pool was rebuilt.
    Dispatch-wait samples (seconds between submitting a batch and a
    worker starting it) feed the p50/p95 the ``/metrics`` endpoint and
    ``BatchMetrics.format_summary`` report; the chunked process map
    path records its dispatches without a wait sample rather than
    perturb every chunk with a timing wrapper.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._dispatches = 0
        self._lanes = 0
        self._in_flight = 0
        self._worker_restarts = 0
        self._io_calls = 0
        self._waits: deque = deque(maxlen=DISPATCH_WAIT_WINDOW)

    def dispatch_started(self, lanes: int) -> None:
        with self._lock:
            self._dispatches += 1
            self._lanes += int(lanes)
            self._in_flight += 1

    def dispatch_finished(self, wait: Optional[float] = None) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            if wait is not None:
                self._waits.append(float(wait))

    def worker_restarted(self) -> None:
        with self._lock:
            self._worker_restarts += 1

    def record_io(self) -> None:
        """One store/auxiliary I/O call routed off the event loop."""
        with self._lock:
            self._io_calls += 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time copy of every counter plus wait percentiles."""
        with self._lock:
            return {
                "dispatches": self._dispatches,
                "lanes": self._lanes,
                "in_flight": self._in_flight,
                "worker_restarts": self._worker_restarts,
                "io_calls": self._io_calls,
                "dispatch_wait": latency_percentiles(self._waits),
                "dispatch_wait_samples": len(self._waits),
            }


# ----------------------------------------------------------------------
# The backend protocol.
# ----------------------------------------------------------------------
class Backend:
    """Base execution backend: lifecycle, stats, and the two seams.

    Subclasses implement :meth:`submit_batch` (engine: one envelope per
    job) and :meth:`run_call_async` (serve: one evaluator call on one
    worker).  ``start``/``close`` are idempotent; an unclosed backend's
    pool is reclaimed by a ``weakref`` finalizer.
    """

    name = "backend"

    def __init__(self) -> None:
        self.stats = BackendStats()
        self._io_pool: Optional[ThreadPoolExecutor] = None
        self._io_lock = threading.Lock()
        self._io_finalizer: Optional[weakref.finalize] = None

    # -- lifecycle -------------------------------------------------------
    @property
    def workers(self) -> int:
        return 1

    def start(self) -> None:
        """Bring workers up eagerly (dispatch also starts lazily)."""

    def close(self) -> None:
        """Shut workers down; in-flight dispatches complete first."""
        self._close_io_pool()

    def _close_io_pool(self) -> None:
        with self._io_lock:
            pool, self._io_pool = self._io_pool, None
            if self._io_finalizer is not None:
                self._io_finalizer.detach()
                self._io_finalizer = None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            # repro: ignore[RPR007] -- best-effort close of the aux I/O
            # pool: shutdown failure modes depend on interpreter state
            # and there is no caller that could act on them.
            except Exception:  # noqa: BLE001 — closing is best-effort
                pass

    def __enter__(self) -> "Backend":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the seams -------------------------------------------------------
    def submit_batch(self, jobs: Sequence[Any], *,
                     chunksize: Optional[int] = None
                     ) -> List[Dict[str, Any]]:
        """Evaluate N job specs; N ordered ``_execute_job`` envelopes."""
        raise NotImplementedError

    async def run_call_async(self, fn: Callable[[Sequence[Any]],
                                                List[Dict[str, Any]]],
                             batch: Sequence[Any]) -> List[Dict[str, Any]]:
        """Run one evaluator call on one worker without blocking the
        event loop (except on :class:`SerialBackend`, which is inline by
        design)."""
        raise NotImplementedError

    # -- auxiliary I/O ----------------------------------------------------
    def _io_submit(self, fn: Callable[[], Any]) -> Any:
        """Place one small blocking call on the auxiliary I/O thread.

        The I/O lane is deliberately *not* the dispatch pool: store
        reads must not queue behind long evaluator calls (and the
        process backend could not ship a closure to a worker anyway).
        One thread is enough — the calls are sub-millisecond file
        reads/writes — and it is created lazily so backends that never
        serve async callers pay nothing.
        """
        with self._io_lock:
            if self._io_pool is None:
                self._io_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-io")
                self._io_finalizer = weakref.finalize(
                    self, _shutdown_pool_quietly, self._io_pool)
            pool = self._io_pool
        self.stats.record_io()
        return pool.submit(fn)

    async def run_io_async(self, fn: Callable[[], Any]) -> Any:
        """Run one blocking store/file call off the event loop.

        The serve layer routes every result-store ``get``/``put``
        through this seam so a cache hit never does file I/O or JSON
        decoding on the loop thread.  :class:`SerialBackend` overrides
        it inline (by design: serial means zero indirection).
        """
        return await asyncio.wrap_future(self._io_submit(fn))

    # -- observability ---------------------------------------------------
    def stats_payload(self) -> Dict[str, Any]:
        """JSON form of this backend's stats for ``/metrics``.

        ``queued`` is the dispatches that cannot be running yet
        (in-flight beyond the worker count) — the backend-level queue
        depth, as distinct from the batchers' per-kind lane queues.
        """
        snapshot = self.stats.snapshot()
        snapshot["backend"] = self.name
        snapshot["workers"] = self.workers
        snapshot["queued"] = max(0, snapshot["in_flight"] - self.workers)
        return snapshot

    # -- fault-site guards (shared by every backend) ---------------------
    def _guard(self) -> None:
        """Blocking dispatch guard: hang stall + queue-full rejection."""
        if _faults.ACTIVE is None:
            return
        _faults.sleep("backend.worker.hang")
        _faults.fire("backend.dispatch.queue_full", backend=self.name)

    async def _guard_async(self) -> None:
        """Event-loop dispatch guard (the stall must not block the loop)."""
        if _faults.ACTIVE is None:
            return
        pause = _faults.delay_duration("backend.worker.hang")
        if pause > 0.0:
            await asyncio.sleep(pause)
        _faults.fire("backend.dispatch.queue_full", backend=self.name)

    def _fire_crash(self) -> None:
        if _faults.ACTIVE is not None:
            _faults.fire("backend.worker.crash", backend=self.name)

    def _crash_error(self, n_jobs: int,
                     exc: BaseException) -> RuntimeError:
        """Actionable whole-batch error for a worker that died hard.

        Per-job fault isolation cannot name the culprit of a killed
        worker, so the batch fails loud with recovery context instead
        of a bare pool traceback.
        """
        return RuntimeError(
            f"{self.name} backend lost a worker while evaluating "
            f"{n_jobs} jobs with {self.workers} workers (a worker died "
            f"mid-batch); re-run with jobs=1 to isolate the failing "
            f"job: {exc}")


class SerialBackend(Backend):
    """Inline in-process execution — the monkeypatch-friendly default.

    ``submit_batch`` is a plain loop and ``run_call_async`` a direct
    call, so patched evaluators and shared memo state behave exactly as
    direct function calls.  Dispatch wait is a true
    0.0: the caller's thread *is* the worker.
    """

    name = "serial"

    async def run_io_async(self, fn: Callable[[], Any]) -> Any:
        self.stats.record_io()
        return fn()

    def submit_batch(self, jobs: Sequence[Any], *,
                     chunksize: Optional[int] = None
                     ) -> List[Dict[str, Any]]:
        self._guard()
        self.stats.dispatch_started(len(jobs))
        try:
            self._fire_crash()
            return [_execute_job(job) for job in jobs]
        except BrokenProcessPool as exc:
            raise self._crash_error(len(jobs), exc) from exc
        finally:
            self.stats.dispatch_finished(wait=0.0)

    async def run_call_async(self, fn: Callable[[Sequence[Any]],
                                                List[Dict[str, Any]]],
                             batch: Sequence[Any]) -> List[Dict[str, Any]]:
        await self._guard_async()
        self.stats.dispatch_started(len(batch))
        try:
            self._fire_crash()
            return fn(list(batch))
        except BrokenProcessPool as exc:
            raise self._crash_error(len(batch), exc) from exc
        finally:
            self.stats.dispatch_finished(wait=0.0)


class _PoolBackend(Backend):
    """Shared pool lifecycle for the thread and process backends."""

    def __init__(self, workers: int) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self._workers = workers
        self._pool: Optional[Any] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._pool_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self._workers

    def _build_pool(self) -> Any:
        raise NotImplementedError

    def start(self) -> None:
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._build_pool()
                self._finalizer = weakref.finalize(
                    self, _shutdown_pool_quietly, self._pool)

    def _ensure_pool(self) -> Any:
        self.start()
        assert self._pool is not None
        return self._pool

    def _discard_pool(self, *, wait: bool) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
        if pool is not None:
            try:
                pool.shutdown(wait=wait, cancel_futures=not wait)
            # repro: ignore[RPR007] -- best-effort discard of a (possibly
            # already broken) pool; a shutdown failure must not mask the
            # batch error that triggered the discard.
            except Exception:  # noqa: BLE001 — closing is best-effort
                pass

    def close(self) -> None:
        self._discard_pool(wait=True)
        self._close_io_pool()


def _shutdown_pool_quietly(pool: Any) -> None:
    """Finalizer target: reclaim a pool the owner never closed."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    # repro: ignore[RPR007] -- finalizer runs during GC/interpreter
    # teardown where arbitrary modules may already be gone; any raise
    # here would be swallowed (or crash teardown) anyway.
    except Exception:  # noqa: BLE001 — interpreter may be tearing down
        pass


class ThreadBackend(_PoolBackend):
    """Bounded, named thread pool.

    The serve default: dispatches overlap and the event loop stays
    responsive, at the cost of the GIL serializing pure-Python
    numerical work.  Unlike the loop's default executor, the pool is
    bounded, carries a grep-able thread name, and is *owned* — closed
    by whoever created it, not leaked process-wide.
    """

    name = "thread"

    def __init__(self, workers: int, *,
                 thread_name_prefix: str = "repro-backend") -> None:
        super().__init__(workers)
        self._thread_name_prefix = thread_name_prefix

    def _build_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix=self._thread_name_prefix)

    def submit_batch(self, jobs: Sequence[Any], *,
                     chunksize: Optional[int] = None
                     ) -> List[Dict[str, Any]]:
        self._guard()
        pool = self._ensure_pool()
        self.stats.dispatch_started(len(jobs))
        submitted = time.perf_counter()
        first_start: List[float] = []

        def run_one(index: int, job: Any) -> Dict[str, Any]:
            if index == 0:
                first_start.append(time.perf_counter())
            return _execute_job(job)

        try:
            self._fire_crash()
            envelopes = list(pool.map(run_one, range(len(jobs)), jobs))
        except BrokenProcessPool as exc:
            self.stats.dispatch_finished()
            raise self._crash_error(len(jobs), exc) from exc
        except BaseException:
            self.stats.dispatch_finished()
            raise
        wait = (first_start[0] - submitted) if first_start else 0.0
        self.stats.dispatch_finished(wait=max(0.0, wait))
        return envelopes

    async def run_call_async(self, fn: Callable[[Sequence[Any]],
                                                List[Dict[str, Any]]],
                             batch: Sequence[Any]) -> List[Dict[str, Any]]:
        await self._guard_async()
        future, submitted = self._submit_call(fn, batch)
        try:
            self._fire_crash()
            started, envelopes = await asyncio.wrap_future(future)
        except BrokenProcessPool as exc:
            self.stats.dispatch_finished()
            raise self._crash_error(len(batch), exc) from exc
        except BaseException:
            self.stats.dispatch_finished()
            raise
        self.stats.dispatch_finished(wait=max(0.0, started - submitted))
        return envelopes

    def _submit_call(self, fn: Callable[[Sequence[Any]],
                                        List[Dict[str, Any]]],
                     batch: Sequence[Any]) -> tuple:
        pool = self._ensure_pool()
        jobs = list(batch)
        self.stats.dispatch_started(len(jobs))
        submitted = time.perf_counter()

        def run() -> tuple:
            return time.perf_counter(), fn(jobs)

        return pool.submit(run), submitted


class ProcessBackend(_PoolBackend):
    """Persistent warm process workers that survive across batches.

    The engine's old pool was rebuilt for every ``run()``; here spawn
    and import costs are paid once and amortized over every later
    batch — the property the optimize-heavy serve benchmark measures.
    Workers are spawned with the parent's environment, so an env-armed
    ``REPRO_FAULTS`` plan activates inside them at import exactly as it
    did in the per-run pool.  When a worker dies mid-batch the batch
    fails loud (``re-run with jobs=1`` context) and the pool is rebuilt
    for the next dispatch, counted in ``worker_restarts``.
    """

    name = "process"

    def _build_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self._workers,
                                   initializer=_warm_worker)

    def _handle_broken(self, n_jobs: int,
                       exc: BaseException) -> RuntimeError:
        self.stats.worker_restarted()
        self._discard_pool(wait=False)
        return self._crash_error(n_jobs, exc)

    def submit_batch(self, jobs: Sequence[Any], *,
                     chunksize: Optional[int] = None
                     ) -> List[Dict[str, Any]]:
        self._guard()
        pool = self._ensure_pool()
        chunk = chunksize or max(1, len(jobs) // (4 * self._workers))
        self.stats.dispatch_started(len(jobs))
        try:
            if _faults.ACTIVE is not None:
                _faults.fire("executor.pool.broken")
            self._fire_crash()
            return list(pool.map(_execute_job, jobs, chunksize=chunk))
        except BrokenProcessPool as exc:
            raise self._handle_broken(len(jobs), exc) from exc
        finally:
            # No per-chunk wait sample: timing every pickled chunk
            # would perturb the map path it is meant to observe.
            self.stats.dispatch_finished()

    async def run_call_async(self, fn: Callable[[Sequence[Any]],
                                                List[Dict[str, Any]]],
                             batch: Sequence[Any]) -> List[Dict[str, Any]]:
        await self._guard_async()
        future = self._submit_call(fn, batch)
        try:
            self._fire_crash()
            wait, envelopes = await asyncio.wrap_future(future)
        except BrokenProcessPool as exc:
            self.stats.dispatch_finished()
            raise self._handle_broken(len(batch), exc) from exc
        except BaseException:
            self.stats.dispatch_finished()
            raise
        self.stats.dispatch_finished(wait=wait)
        return envelopes

    def _submit_call(self, fn: Callable[[Sequence[Any]],
                                        List[Dict[str, Any]]],
                     batch: Sequence[Any]) -> Any:
        pool = self._ensure_pool()
        jobs = list(batch)
        self.stats.dispatch_started(len(jobs))
        return pool.submit(_timed_call, fn, jobs, time.time())


# ----------------------------------------------------------------------
# The factory every consumer layer constructs through.
# ----------------------------------------------------------------------
def make_backend(backend: Any, *, workers: int = 1,
                 thread_name_prefix: str = "repro-backend") -> Backend:
    """Resolve a backend selection to a live :class:`Backend`.

    ``backend`` may be a name from :data:`BACKEND_NAMES`, ``None``
    (serial), or an existing :class:`Backend` instance (returned
    as-is, so a shared instance can be threaded through layers).
    ``workers`` is ignored by the serial backend.
    """
    if isinstance(backend, Backend):
        return backend
    name = "serial" if backend is None else str(backend).lower()
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(workers,
                             thread_name_prefix=thread_name_prefix)
    if name == "process":
        return ProcessBackend(workers)
    raise ValueError(f"unknown backend {backend!r}; choose from "
                     f"{', '.join(BACKEND_NAMES)}")
