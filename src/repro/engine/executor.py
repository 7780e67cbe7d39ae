"""Batch scheduler: a thin orchestrator over a pluggable backend.

The executor turns a sequence of job specs into an ordered sequence of
:class:`JobOutcome` records.  Everything that decides *what* runs and
what the results mean — cache lookups, in-batch dedup,
submission-order collection, metrics — lives here, *above* the backend
seam; below it, :func:`repro.engine.jobs.run_jobs` evaluates each
dispatched chunk (batching lanes per kind, applying the RC re-seed
retry and the non-finite screen) and the
:class:`repro.engine.backends.Backend` only moves envelopes.
Guarantees:

* **Determinism** — results are collected in submission order and the
  result payloads contain no wall-clock data, so ``jobs=4`` is bitwise
  identical to ``jobs=1`` on every backend: a lane's payload does not
  depend on which lanes share its dispatch.  The ``wall_time`` an
  envelope carries is *metrics-only*: it feeds ``JobMetrics`` and never
  enters the cached payload, ``JobOutcome.to_payload()`` or result
  equality (asserted by ``tests/test_engine_executor.py`` and the
  parity suite in ``tests/test_backends.py``).
* **Fault isolation** — a job that fails (``OptimizationError``,
  convergence failure, bad parameters, a non-finite result, ...) is
  reported failed with its captured traceback; the rest of the batch
  completes.  The bounded RC-optimum re-seed retry for optimizer jobs
  lives in the job layer (:class:`repro.engine.jobs.OptimizeJob`), so
  every backend applies the same recovery.
* **Caching** — with a :class:`repro.engine.store.ResultStore` attached
  (disk or tiered — see :func:`repro.engine.store.make_store`),
  hits are served in-process without dispatching work and fresh
  successes are written back.  Failures are never cached.
* **Deduplication** — duplicate specs inside one batch collapse to a
  single evaluation: a dictionary from
  :func:`~repro.engine.store.flight_key` to the first lane carrying it
  names each spec's leader, and the leader's envelope fans out to every
  duplicate lane, so N identical manifest rows cost one solver run and
  still emit N identical payloads.

The serial backend (``jobs=1``, the default) runs everything in-process:
monkeypatching and shared ``lru_cache`` state behave exactly as direct
function calls.  ``jobs=N`` selects the persistent process backend,
whose warm workers survive across ``run()`` calls, and dispatches one
contiguous chunk of the leaders per worker; an executor that built its
own backend owns it — ``close()`` (or the context-manager form) shuts
the workers down.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .backends import Backend, make_backend
from .jobs import job_to_dict
from .metrics import BatchMetrics, JobMetrics, iterations_of, trace_counts_of
from .store import ResultStore, flight_key


@dataclass(frozen=True)
class JobOutcome:
    """One job's fate within a batch, in submission order."""

    job: Any
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback: Optional[str] = None
    from_cache: bool = False
    wall_time: float = 0.0
    deduped: bool = False     #: fanned out from another lane's evaluation

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Dict[str, Any]:
        """Return the result dict, raising ``RuntimeError`` on failure."""
        if not self.ok:
            raise RuntimeError(
                f"{self.job.kind} job failed: "
                f"{self.error_type}: {self.error}")
        assert self.result is not None
        return self.result

    def to_payload(self) -> Dict[str, Any]:
        """Deterministic JSON form (no wall time) for batch result files."""
        payload: Dict[str, Any] = {
            "kind": self.job.kind,
            "job": job_to_dict(self.job),
            "status": "ok" if self.ok else "failed",
        }
        if self.ok:
            payload["result"] = self.result
        else:
            payload["error"] = self.error
            payload["error_type"] = self.error_type
        return payload


@dataclass
class BatchReport:
    """Ordered outcomes plus the batch's instrumentation."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    metrics: BatchMetrics = field(default_factory=BatchMetrics)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def to_payload(self) -> List[Dict[str, Any]]:
        """Deterministic JSON form of the whole batch, in order."""
        return [outcome.to_payload() for outcome in self.outcomes]


class BatchExecutor:
    """Schedules job batches over a pluggable execution backend.

    Parameters
    ----------
    jobs:
        Worker count.  With ``backend`` unset, 1 (default) evaluates
        serially in-process and > 1 selects the persistent process
        backend with that many warm workers.
    cache:
        Optional result cache consulted before evaluating and updated
        with fresh successes.
    backend:
        A name from :data:`repro.engine.backends.BACKEND_NAMES`
        (``serial``/``thread``/``process``) or a live
        :class:`~repro.engine.backends.Backend` instance to share.  The
        executor owns (and ``close()``\\ s) a backend it built from a
        name; a shared instance stays the caller's to close.
    """

    def __init__(self, jobs: int = 1, *, cache: Optional[ResultStore] = None,
                 backend: Optional[Union[str, Backend]] = None) -> None:
        if jobs < 1:
            raise ValueError(f"worker count must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self._owns_backend = not isinstance(backend, Backend)
        if backend is None:
            backend = "serial" if jobs == 1 else "process"
        self.backend = make_backend(backend, workers=jobs,
                                    thread_name_prefix="repro-batch")

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down an owned backend's workers (idempotent).

        A shared backend instance passed in by the caller is left
        running — whoever created it closes it.
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def run(self, job_specs: Sequence[Any]) -> BatchReport:
        """Evaluate every job; outcomes are returned in submission order."""
        job_list = list(job_specs)
        report = BatchReport()
        report.metrics.workers = self.backend.workers
        report.metrics.backend = self.backend.name
        before = self.backend.stats.snapshot()
        start = time.perf_counter()

        # Serve cache hits in-process; only misses are evaluated.
        outcomes: List[Optional[JobOutcome]] = [None] * len(job_list)
        pending: List[int] = []
        for index, job in enumerate(job_list):
            cached = self.cache.get(job) if self.cache is not None else None
            if cached is not None:
                outcomes[index] = JobOutcome(job=job, result=cached,
                                             from_cache=True)
            else:
                pending.append(index)

        # Dedup above the backend seam: the first pending lane of each
        # spec leads, and every later lane with the same flight key
        # follows its leader's envelope instead of dispatching its own
        # evaluation.  Leaders are dispatched in per-worker chunks and
        # collected in order; a lane's payload does not depend on its
        # chunk, so jobs=N stays bitwise identical to jobs=1.
        leader_of: Dict[str, int] = {}
        lanes: List[Tuple[int, int]] = []
        for index in pending:
            lanes.append((index, leader_of.setdefault(
                flight_key(job_list[index]), index)))
        leaders = list(leader_of.values())
        envelopes = dict(zip(leaders, self._evaluate(
            [job_list[index] for index in leaders])))
        for index, leader in lanes:
            outcomes[index] = self._outcome_from_envelope(
                job_list[index], envelopes[leader],
                deduped=index != leader)

        for outcome in outcomes:
            assert outcome is not None
            report.outcomes.append(outcome)
            fallbacks, backtracks = trace_counts_of(outcome.result or {})
            report.metrics.record(JobMetrics(
                kind=outcome.job.kind,
                wall_time=outcome.wall_time,
                from_cache=outcome.from_cache,
                failed=not outcome.ok,
                newton_iterations=iterations_of(outcome.result or {}),
                retried=bool((outcome.result or {}).get("retried", False)),
                fallbacks=fallbacks,
                backtracks=backtracks,
                deduped=outcome.deduped))
        report.metrics.wall_time = time.perf_counter() - start
        after = self.backend.stats.snapshot()
        report.metrics.dispatches = (after["dispatches"]
                                     - before["dispatches"])
        report.metrics.worker_restarts = (after["worker_restarts"]
                                          - before["worker_restarts"])
        report.metrics.dispatch_wait = dict(after["dispatch_wait"])
        return report

    # ------------------------------------------------------------------
    # The backend seam.
    # ------------------------------------------------------------------
    def _evaluate(self, job_list: List[Any]) -> List[Dict[str, Any]]:
        """One contiguous chunk per worker, collected in order once every
        chunk is done (the first failed dispatch then raises)."""
        if not job_list:
            return []
        size = -(-len(job_list) // self.backend.workers)
        futures = [self.backend.submit(job_list[at:at + size])
                   for at in range(0, len(job_list), size)]
        wait(futures)
        return [envelope for future in futures
                for envelope in future.result()]

    def _outcome_from_envelope(self, job: Any, envelope: Dict[str, Any],
                               *, deduped: bool = False) -> JobOutcome:
        if envelope["ok"]:
            if self.cache is not None and not deduped:
                # Followers skip the write-back: the leader already
                # stored the identical record.
                try:
                    self.cache.put(job, envelope["result"])
                except OSError:
                    # A cache write failure (full disk, permissions)
                    # must never fail a job whose result is in hand;
                    # the next run simply recomputes.
                    pass
            return JobOutcome(job=job, result=envelope["result"],
                              wall_time=0.0 if deduped
                              else envelope["wall_time"],
                              deduped=deduped)
        return JobOutcome(job=job, error=envelope["error"],
                          error_type=envelope["error_type"],
                          traceback=envelope["traceback"],
                          wall_time=0.0 if deduped
                          else envelope["wall_time"],
                          deduped=deduped)
