"""One execution plane: pluggable serial/thread/process backends.

A :class:`Backend` has one seam, :meth:`Backend.submit`: N job specs in,
a :class:`concurrent.futures.Future` of N ordered envelopes out, made by
one :func:`repro.engine.jobs.run_jobs` call on one worker.  The engine's
:class:`~repro.engine.executor.BatchExecutor` submits one contiguous
chunk of its jobs per worker and collects the chunks in order; serve's
:class:`~repro.serve.batcher.DynamicBatcher` awaits one micro-batch per
dispatch (``asyncio.wrap_future``).  Each backend class defines only how
a dispatch starts (``_dispatch``); the stats, the three ``backend.*``
fault sites and the crash translation live once, on :class:`Backend`.

Everything *above* the seam — cache lookups, in-batch dedup,
metrics, submission-order collection — is backend-agnostic, and nothing
below it touches result payloads, so every backend is bitwise identical
to ``SerialBackend`` (``tests/test_backends.py`` asserts this for
successes *and* captured failures).

Choosing a backend:

* :class:`SerialBackend` — in-process, zero indirection.  Monkeypatched
  functions and shared ``lru_cache`` state behave exactly as direct
  calls; the engine default for ``jobs=1``.
* :class:`ThreadBackend` — a bounded, named ``ThreadPoolExecutor``.
  Keeps the event loop responsive and overlaps I/O, but numerical work
  stays GIL-bound; the serve default.
* :class:`ProcessBackend` — persistent warm workers that survive across
  dispatches.  Spawned workers re-read ``REPRO_FAULTS`` at import, so a
  fault plan armed via the environment reaches them.

Fault sites (scenario ``backend``): ``backend.worker.hang`` stalls a
dispatch before its worker starts it (drawn at submission, slept on the
worker, so an event loop never blocks on it),
``backend.dispatch.queue_full`` rejects one at submission, and
``backend.worker.crash`` kills it the way a dead worker does.  A
dispatch that loses its worker fails with the actionable "re-run with
jobs=1" context, counts a worker restart, and a pool backend rebuilds
its pool for the next dispatch.
"""

from __future__ import annotations

import asyncio
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..faults import hooks as _faults
from .jobs import run_jobs
from .metrics import latency_percentiles

#: Selectable backend names, in the order CLIs advertise them.
BACKEND_NAMES = ("serial", "thread", "process")

#: Dispatch-wait samples retained for the percentile window.
DISPATCH_WAIT_WINDOW = 4096


def _dispatched(jobs: List[Any], pause: float, submitted: float) -> tuple:
    """A worker's side of one dispatch: ``(wait, run_jobs(jobs))``.

    Module-level so it pickles for the process backend.  ``wait`` is
    the dispatch wait against the wall clock read at submission
    (``perf_counter`` is not comparable across processes); ``pause`` is
    a ``backend.worker.hang`` stall drawn at submission.
    """
    wait = max(0.0, time.time() - submitted)
    if pause > 0.0:
        time.sleep(pause)
    return wait, run_jobs(jobs)


def _warm_worker() -> None:
    """Process-pool initializer: pre-import the job layer.

    Every worker pays the numpy/repro import exactly once, at pool
    start, in parallel — instead of serially on its first dispatch.
    Spawned workers also re-run the fault plane's ``REPRO_FAULTS``
    environment activation at that import, which is how they inherit
    the parent's env-armed plan.
    """
    import repro.engine.jobs  # noqa: F401


# ----------------------------------------------------------------------
# Stats.
# ----------------------------------------------------------------------
class BackendStats:
    """Thread-safe dispatch accounting one backend instance carries.

    ``dispatches``/``lanes`` count submitted work, ``in_flight`` the
    dispatches currently between submission and completion, and
    ``worker_restarts`` the dispatches that lost their worker (a pool
    backend then rebuilds its pool).  Dispatch-wait samples (seconds
    between submitting a dispatch and a worker starting it) feed the
    p50/p95 the ``/metrics`` endpoint and
    ``BatchMetrics.format_summary`` report.
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
    """Base execution backend: lifecycle, stats and the one seam.

    Subclasses implement ``_dispatch(fn, *args) -> Future``: start
    ``fn(*args)`` on one worker.  ``start``/``close`` are idempotent; an
    unclosed backend's pool is reclaimed by a ``weakref`` finalizer.
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

    def _discard_pool(self, *, wait: bool) -> None:
        """Drop the worker pool so the next dispatch builds a fresh one."""

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

    # -- the seam --------------------------------------------------------
    def submit(self, jobs: Sequence[Any]) -> Future:
        """Run ``run_jobs(jobs)`` on one worker; a future of its envelopes.

        Never raises: a refused or crashed dispatch fails the future.
        The future cannot be cancelled once submitted.
        """
        jobs = list(jobs)
        done: Future = Future()
        done.set_running_or_notify_cancel()
        self.stats.dispatch_started(len(jobs))
        try:
            pause = 0.0
            if _faults.ACTIVE is not None:
                pause = _faults.delay_duration("backend.worker.hang")
                _faults.fire("backend.dispatch.queue_full",
                             backend=self.name)
                _faults.fire("backend.worker.crash", backend=self.name)
            started = self._dispatch(_dispatched, jobs, pause, time.time())
        except Exception as exc:  # noqa: BLE001 — delivered via the future
            started = Future()
            started.set_exception(exc)
        started.add_done_callback(
            lambda future: self._settle(future, done, len(jobs)))
        return done

    def _dispatch(self, fn: Callable[..., Any], *args: Any) -> Future:
        raise NotImplementedError

    def _settle(self, started: Future, done: Future, n_jobs: int) -> None:
        """Finish one dispatch's stats, then resolve its future."""
        try:
            wait, envelopes = started.result()
        except BrokenProcessPool as exc:
            self.stats.dispatch_finished()
            self.stats.worker_restarted()
            self._discard_pool(wait=False)
            error = self._crash_error(n_jobs, exc)
            error.__cause__ = exc
            done.set_exception(error)
        except BaseException as exc:  # noqa: BLE001 — delivered as is
            self.stats.dispatch_finished()
            done.set_exception(exc)
        else:
            self.stats.dispatch_finished(wait=wait)
            done.set_result(envelopes)

    def _crash_error(self, n_jobs: int,
                     exc: BaseException) -> RuntimeError:
        """Actionable error for a dispatch whose worker died hard.

        Per-job fault isolation cannot name the culprit of a killed
        worker, so the dispatch fails loud with recovery context
        instead of a bare pool traceback.
        """
        return RuntimeError(
            f"{self.name} backend lost a worker while evaluating "
            f"{n_jobs} job{'s' if n_jobs != 1 else ''} with "
            f"{self.workers} workers (a worker died mid-batch); re-run "
            f"with jobs=1 to isolate the failing job: {exc}")

    # -- auxiliary I/O ----------------------------------------------------
    def _io_submit(self, fn: Callable[[], Any]) -> Any:
        """Place one small blocking call on the auxiliary I/O thread.

        The I/O lane is deliberately *not* the dispatch pool: store
        reads must not queue behind long evaluations (and the process
        backend could not ship a closure to a worker anyway).  One
        thread is enough — the calls are sub-millisecond file
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


class SerialBackend(Backend):
    """Inline in-process execution — the monkeypatch-friendly default.

    A dispatch runs in the caller's thread and returns a completed
    future, so patched functions and shared memo state behave exactly
    as direct calls, and the dispatch wait is only the call overhead.
    """

    name = "serial"

    async def run_io_async(self, fn: Callable[[], Any]) -> Any:
        self.stats.record_io()
        return fn()

    def _dispatch(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future


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
        self._live_pool()

    def _live_pool(self) -> Any:
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._build_pool()
                self._finalizer = weakref.finalize(
                    self, _shutdown_pool_quietly, self._pool)
            return self._pool

    def _dispatch(self, fn: Callable[..., Any], *args: Any) -> Future:
        return self._live_pool().submit(fn, *args)

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


class ProcessBackend(_PoolBackend):
    """Persistent warm process workers that survive across dispatches.

    Spawn and import costs are paid once and amortized over every later
    dispatch — the property the optimize-heavy serve benchmark
    measures.  Workers are spawned with the parent's environment, so an
    env-armed ``REPRO_FAULTS`` plan activates inside them at import.
    When a worker dies mid-dispatch the dispatch fails loud (``re-run
    with jobs=1`` context) and the pool is rebuilt for the next one,
    counted in ``worker_restarts``.
    """

    name = "process"

    def _build_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self._workers,
                                   initializer=_warm_worker)


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
