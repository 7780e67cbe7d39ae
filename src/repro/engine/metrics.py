"""Lightweight instrumentation attached to every batch report.

The metrics are observability data, deliberately kept *out* of the job
results themselves: result payloads stay deterministic (cacheable,
bitwise-reproducible across worker counts) while wall times, cache
accounting and failure counts live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

#: Percentiles reported by :func:`latency_percentiles`, in order.
LATENCY_PERCENTILES = (0.50, 0.95, 0.99)


def latency_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank p50/p95/p99 of a latency sample set (``{}`` if empty).

    The one shared definition of "latency percentile" in the codebase:
    :meth:`BatchMetrics.format_summary` feeds it per-job wall times and
    the serve layer's ``ServerMetrics`` feeds it per-request latencies,
    so a ``repro-batch`` footer and a ``/metrics`` response are directly
    comparable.  Nearest-rank (ceil(p*n)) on the sorted samples: exact,
    monotone in p, and never interpolates a latency nobody observed.
    """
    values = sorted(float(sample) for sample in samples)
    if not values:
        return {}
    picks: Dict[str, float] = {}
    for p in LATENCY_PERCENTILES:
        rank = min(len(values) - 1, max(0, math.ceil(p * len(values)) - 1))
        picks[f"p{int(round(100 * p))}"] = values[rank]
    return picks


@dataclass(frozen=True)
class JobMetrics:
    """Per-job observability record (parallel to one ``JobOutcome``)."""

    kind: str
    #: Seconds spent evaluating (0.0 on a cache hit or a deduped lane);
    #: a lane of a batched call gets the call's time over its lanes.
    wall_time: float
    from_cache: bool
    failed: bool
    newton_iterations: int    #: solver iterations reported by the result
    retried: bool             #: recovered via the RC-optimum re-seed
    fallbacks: int = 0        #: Newton -> direct fallbacks in the traces
    backtracks: int = 0       #: Newton backtracking halvings in the traces
    deduped: bool = False     #: fanned out from another lane's evaluation


def iterations_of(result: Dict[str, Any]) -> int:
    """Extract the solver iteration count a result payload reports, if any."""
    for key in ("iterations", "newton_iterations"):
        value = result.get(key)
        if isinstance(value, int):
            return value
    return 0


def trace_counts_of(result: Dict[str, Any]) -> tuple:
    """(fallbacks, backtracks) a result payload reports — from its own
    optimization ``trace`` (OptimizeJob), or from a sweep's
    pre-aggregated ``fallback_points``/``backtrack_steps`` columns."""
    trace = result.get("trace")
    if isinstance(trace, dict):
        fallbacks = int(any(event.get("kind") == "fallback"
                            for event in trace.get("events", [])))
        backtracks = sum(int(step.get("backtracks", 0))
                         for step in trace.get("steps", []))
        return fallbacks, backtracks
    value = result.get("backtrack_steps")
    return (len(result.get("fallback_points") or []),
            value if isinstance(value, int) else 0)


@dataclass
class BatchMetrics:
    """Aggregated instrumentation for one executor batch."""

    jobs_total: int = 0
    jobs_failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0            #: lanes answered by another lane's run
    wall_time: float = 0.0           #: whole-batch wall time in seconds
    evaluation_time: float = 0.0     #: sum of per-job evaluation times
    newton_iterations: int = 0
    retries: int = 0
    newton_fallbacks: int = 0        #: Newton -> direct fallback events
    backtrack_steps: int = 0         #: Newton backtracking halvings
    workers: int = 1
    backend: str = "serial"          #: execution backend name
    dispatches: int = 0              #: backend dispatches this batch made
    worker_restarts: int = 0         #: dispatches that lost their worker
    dispatch_wait: Dict[str, float] = field(default_factory=dict)
    per_job: List[JobMetrics] = field(default_factory=list)

    def record(self, job_metrics: JobMetrics) -> None:
        self.per_job.append(job_metrics)
        self.jobs_total += 1
        if job_metrics.failed:
            self.jobs_failed += 1
        elif job_metrics.from_cache:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if job_metrics.deduped:
            self.deduplicated += 1
        self.evaluation_time += job_metrics.wall_time
        self.newton_iterations += job_metrics.newton_iterations
        if job_metrics.retried:
            self.retries += 1
        self.newton_fallbacks += job_metrics.fallbacks
        self.backtrack_steps += job_metrics.backtracks

    @property
    def jobs_succeeded(self) -> int:
        return self.jobs_total - self.jobs_failed

    @property
    def cache_hit_rate(self) -> float:
        """Hits over all *successful* evaluations; 0.0 for an empty batch."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def format_summary(self) -> str:
        """Human-readable one-paragraph summary for batch reports."""
        lines = [
            f"jobs: {self.jobs_total} total, {self.jobs_succeeded} ok, "
            f"{self.jobs_failed} failed ({self.workers} worker"
            f"{'s' if self.workers != 1 else ''})",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({100.0 * self.cache_hit_rate:.1f}% hit rate)"
            + (f", {self.deduplicated} deduplicated"
               if self.deduplicated else ""),
            f"time: {self.wall_time:.3f}s wall, "
            f"{self.evaluation_time:.3f}s evaluating",
            f"solver: {self.newton_iterations} iterations, "
            f"{self.newton_fallbacks} direct fallbacks, "
            f"{self.backtrack_steps} backtracking steps, "
            f"{self.retries} RC re-seed retries",
        ]
        backend_line = (f"backend: {self.backend}, "
                        f"{self.dispatches} dispatch"
                        f"{'es' if self.dispatches != 1 else ''}, "
                        f"{self.worker_restarts} worker restart"
                        f"{'s' if self.worker_restarts != 1 else ''}")
        if self.dispatch_wait:
            backend_line += ", dispatch wait " + " ".join(
                f"{name}={value:.4g}s"
                for name, value in sorted(self.dispatch_wait.items()))
        lines.append(backend_line)
        percentiles = latency_percentiles(
            [job.wall_time for job in self.per_job])
        if percentiles:
            # Cache hits count at their true ~0 s latency, matching how
            # the serve layer reports hit-path response times.
            lines.append(
                "latency: " + " ".join(
                    f"{name}={value:.4g}s"
                    for name, value in percentiles.items())
                + " (per-job wall time; a batched call's time is split "
                  "evenly over its lanes)")
        return "\n".join(lines)
