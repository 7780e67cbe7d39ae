"""Invariant harness of the fault plane: live workloads, canned scenarios.

This module is the executable answer to "did the recovery paths hold?".
It drives real components — a :class:`~repro.serve.server.ServerThread`
over sockets, a :class:`~repro.engine.executor.BatchExecutor` over jobs
— under an installed :class:`~repro.faults.plan.FaultPlan`, and checks
the stack's cross-cutting invariants:

* **answered-or-rejected** — every submitted request produces either a
  response or an explicit, typed failure; nothing hangs, nothing is
  silently dropped;
* **bitwise** — every successful response equals the request's own solo
  ``job.run()`` ground truth (computed with the plan suspended on the
  harness thread), so injected faults never corrupt a served answer;
* **cache integrity** — every record in the store parses and carries a
  ``result``; orphaned ``.tmp`` files are exactly the
  ``cache.put.stale_tmp`` events injected into that store, never more;
  a tiered store's memory tier stays within its byte budget;
* **isolation** — a plan with no rules produces zero failures (the
  plane itself is inert), and lane-scoped faults fail lanes, not runs;
* **metrics reconcile** — ``requests_total`` equals the sum of recorded
  outcomes (excluding pre-parse ``unknown`` outcomes), so the
  observability plane cannot lose or invent requests under faults.

Ground truths are computed on the calling thread inside
``plan.suspended()`` — the plan stays armed for the server's threads
while the harness computes what *should* have been served, and
suspension never consumes PRNG draws or hit counts, so the measurement
does not perturb the experiment.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import hooks
from .plan import FAULT_POINTS, FaultPlan, FaultRule

#: Sites that may legitimately change an optimize payload (a re-seeded
#: retry converges to the same optimum from a different start, so
#: traces and ``retried`` flags differ).
#: The NaN-lane kernel fault belongs here too: the repaired lane is
#: re-solved to solver tolerance, not bitwise, and the optimizer's
#: Newton trajectory amplifies that last-ulp tau difference into a
#: different (still converged) trace.
OPTIMIZE_FAULT_SITES = frozenset({
    "serve.optimize.lane_error", "optimize.warm_start",
    "kernels.threshold_delay.nan_lane"})

#: Sites that fail a store write.  The executor swallows the
#: ``OSError``, so the lane is still ok but its record is never stored.
PUT_FAULT_SITES = frozenset({"cache.put.os_error",
                             "store.disk.shard_unwritable"})

#: Sites exercised through the engine's BatchExecutor rather than the
#: serve stack.
ENGINE_SITES = frozenset(
    name for name, point in FAULT_POINTS.items()
    if point.scenario == "engine")

#: Sites of the execution-backend plane, driven through both callers of
#: its one seam, ``Backend.submit`` (the engine's ``BatchExecutor`` and
#: serve's batchers).
BACKEND_SITES = frozenset(
    name for name, point in FAULT_POINTS.items()
    if point.scenario == "backend")

#: Sites of the result-store plane (memory tier + disk shards), driven
#: through the engine driver, whose executor writes through a
#: tiny-budget tiered store.
STORE_SITES = frozenset(
    name for name, point in FAULT_POINTS.items()
    if point.scenario == "store")


# ----------------------------------------------------------------------
# Reports.
# ----------------------------------------------------------------------
@dataclass
class Violation:
    """One broken invariant, with enough context to chase it."""

    invariant: str
    message: str

    def format(self) -> str:
        return f"[{self.invariant}] {self.message}"


@dataclass
class RunReport:
    """Outcome of driving one plan through the live workloads."""

    plan_string: str
    events: List[str] = field(default_factory=list)
    fired: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    requests_sent: int = 0
    responses_ok: int = 0
    responses_error: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation(self, invariant: str, message: str) -> None:
        self.violations.append(Violation(invariant, message))

    def format_summary(self) -> str:
        lines = [f"plan: {self.plan_string}",
                 f"requests: {self.requests_sent} sent, "
                 f"{self.responses_ok} ok, "
                 f"{self.responses_error} failed"]
        if self.events:
            lines.append(f"events ({len(self.events)}):")
            lines.extend(f"  {event}" for event in self.events)
        else:
            lines.append("events: none fired")
        if self.violations:
            lines.append(f"VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  {violation.format()}"
                         for violation in self.violations)
        else:
            lines.append("invariants: all held")
        return "\n".join(lines)


@dataclass
class CampaignReport:
    """Aggregate of a multi-plan campaign plus site coverage."""

    runs: List[RunReport] = field(default_factory=list)
    coverage: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs) and not self.uncovered()

    def uncovered(self) -> List[str]:
        """Registered sites no run of this campaign ever fired."""
        return sorted(name for name in FAULT_POINTS
                      if not self.coverage.get(name))

    def failing_runs(self) -> List[RunReport]:
        return [run for run in self.runs if not run.ok]

    def format_summary(self) -> str:
        lines = [f"campaign: {len(self.runs)} plans, "
                 f"{len(self.failing_runs())} failing",
                 "site coverage:"]
        for name in sorted(FAULT_POINTS):
            lines.append(f"  {self.coverage.get(name, 0):4d}  {name}")
        uncovered = self.uncovered()
        if uncovered:
            lines.append("UNCOVERED sites: " + ", ".join(uncovered))
        for run in self.failing_runs():
            lines.append("")
            lines.append(run.format_summary())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The standard workload.
# ----------------------------------------------------------------------
def _workload_jobs() -> Dict[str, List[Any]]:
    """Small, paper-typical job set touching every request class."""
    from .. import NODE_100NM, units
    from ..core.elmore import rc_optimum
    from ..engine.jobs import CriticalInductanceJob, DelayJob, OptimizeJob

    nh = units.NH_PER_MM
    node = NODE_100NM
    delay = [DelayJob(line=node.line.with_inductance(l * nh),
                      driver=node.driver, h=0.01, k=150.0)
             for l in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)]
    critical = [CriticalInductanceJob(
        line=node.line.with_inductance(l * nh),
        driver=node.driver, h=0.01, k=150.0)
        for l in (0.5, 1.0, 1.5)]
    optimize = []
    for l in (0.5, 1.0, 1.5):
        line = node.line.with_inductance(l * nh)
        seed = rc_optimum(line, node.driver)
        optimize.append(OptimizeJob(
            line=line, driver=node.driver,
            initial=(seed.h_opt, seed.k_opt)))
    return {"delay": delay, "critical_inductance": critical,
            "optimize": optimize}


def _request_document(job: Any) -> Dict[str, Any]:
    from ..engine.jobs import job_to_dict

    return job_to_dict(job)


def _normalized(payload: Dict[str, Any]) -> str:
    """Canonical form for comparison."""
    from ..engine.jobs import canonical_json

    return canonical_json(payload)


def _ground_truths(plan: FaultPlan, workload: Dict[str, List[Any]]
                   ) -> Dict[str, List[str]]:
    """Solo ``job.run()`` results, computed with the plan suspended."""
    truths: Dict[str, List[str]] = {}
    with plan.suspended():
        for kind, jobs in workload.items():
            truths[kind] = [_normalized(job.run()) for job in jobs]
    return truths


# ----------------------------------------------------------------------
# The serve driver (ServerThread over real sockets).
# ----------------------------------------------------------------------
def _drive_serve(plan: FaultPlan, report: RunReport,
                 cache_root: Path, *, passes: int = 2) -> None:
    """Drive the HTTP stack through the workload under ``plan``.

    Each pass sends every request class as one NDJSON burst (so the
    batcher genuinely coalesces) plus a handful of sequential singles;
    the second pass re-sends the same documents, turning the cache
    seams hot.
    """
    import http.client
    import socket

    from ..engine.store import DiskStore
    from ..serve.client import ServeClient, ServeClientError
    from ..serve.server import ServerThread
    from ..serve.service import ReproService

    workload = _workload_jobs()
    truths = _ground_truths(plan, workload)
    optimize_faulted = any(rule.site in OPTIMIZE_FAULT_SITES
                           for rule in plan.rules)
    plan_inert = not plan.rules
    first_event = len(plan.events)

    cache = DiskStore(cache_root)
    service = ReproService(cache=cache, max_batch_size=8,
                           max_linger=0.05, default_timeout=10.0)

    def check_response(kind: str, index: int,
                       response: Dict[str, Any]) -> None:
        if not isinstance(response, dict):
            report.violation(
                "answered", f"{kind}[{index}] response is not an object: "
                            f"{response!r}")
            return
        if response.get("ok"):
            report.responses_ok += 1
            if kind == "optimize" and optimize_faulted:
                return  # a re-seeded lane legitimately differs bitwise
            served = _normalized(response["result"])
            if served != truths[kind][index]:
                report.violation(
                    "bitwise",
                    f"{kind}[{index}] served result differs from solo "
                    f"job.run(): served {served} != truth "
                    f"{truths[kind][index]}")
        else:
            report.responses_error += 1
            error = response.get("error")
            if not (isinstance(error, dict) and error.get("code")
                    and error.get("message")):
                report.violation(
                    "answered",
                    f"{kind}[{index}] failed without a structured "
                    f"error: {response!r}")
            elif plan_inert:
                report.violation(
                    "isolation",
                    f"{kind}[{index}] failed with no fault armed: "
                    f"{error}")

    with hooks.active(plan):
        with ServerThread(service) as handle:
            client = ServeClient.from_url(handle.url, timeout=15.0)
            try:
                for _ in range(passes):
                    for kind, jobs in workload.items():
                        documents = [_request_document(job)
                                     for job in jobs]
                        report.requests_sent += len(documents)
                        try:
                            responses = client.evaluate_many(documents)
                        except socket.timeout:
                            # The client gave up waiting: some lane was
                            # admitted and never answered — the exact
                            # failure the answered-or-rejected
                            # invariant exists to catch.
                            report.responses_error += len(documents)
                            report.violation(
                                "answered",
                                f"{kind} burst timed out — a lane was "
                                f"admitted but never answered")
                            continue
                        except (ServeClientError, http.client.HTTPException,
                                OSError) as exc:
                            # An explicit transport/protocol failure is
                            # an answer ("rejected"); only a hang or a
                            # lost lane violates the invariant.
                            report.responses_error += len(documents)
                            if plan_inert:
                                report.violation(
                                    "isolation",
                                    f"{kind} burst failed with no fault "
                                    f"armed: {exc}")
                            continue
                        if len(responses) != len(documents):
                            report.violation(
                                "answered",
                                f"{kind} burst: {len(documents)} requests "
                                f"but {len(responses)} responses")
                            continue
                        for index, response in enumerate(responses):
                            check_response(kind, index, response)
                    # A couple of sequential singles per pass keep the
                    # per-connection seams (read drop, write truncate)
                    # hot on a keep-alive socket.
                    for index, job in enumerate(workload["delay"][:3]):
                        report.requests_sent += 1
                        try:
                            response = client.evaluate(
                                _request_document(job))
                            check_response("delay", index, response)
                        except ServeClientError as exc:
                            report.responses_error += 1
                            if plan_inert:
                                report.violation(
                                    "isolation",
                                    f"delay single failed with no fault "
                                    f"armed: {exc}")
                        except socket.timeout:
                            report.responses_error += 1
                            report.violation(
                                "answered",
                                "delay single timed out — admitted but "
                                "never answered")
                        except (http.client.HTTPException, OSError) as exc:
                            report.responses_error += 1
                            if plan_inert:
                                report.violation(
                                    "isolation",
                                    f"delay single transport error with "
                                    f"no fault armed: {exc}")
            finally:
                client.close()

    # -- post-run invariants ------------------------------------------
    _check_cache_integrity(plan, report, cache, first_event)
    _check_metrics(report, service)


def _check_cache_integrity(plan: FaultPlan, report: RunReport,
                           cache: Any, first_event: int) -> None:
    """Every record parses, and the orphaned ``.tmp`` files are exactly
    the ``cache.put.stale_tmp`` events fired since ``first_event`` —
    the driver's own, since each driver writes its own store."""
    for path in cache._record_paths():
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            record["result"]
        except (OSError, ValueError, KeyError) as exc:
            report.violation(
                "cache", f"torn or incomplete record {path.name}: {exc}")
    stale = sum(1 for event in plan.events[first_event:]
                if event.site == "cache.put.stale_tmp")
    tmp_count = len(cache.tmp_files())
    if tmp_count != stale:
        report.violation(
            "cache",
            f"{tmp_count} orphaned .tmp files but "
            f"{stale} injected cache.put.stale_tmp events")


def _check_metrics(report: RunReport, service: Any) -> None:
    metrics = service.metrics
    recorded = sum(count for (kind, _code), count in
                   metrics.outcomes.items() if kind != "unknown")
    if metrics.requests_total != recorded:
        report.violation(
            "metrics",
            f"requests_total={metrics.requests_total} but "
            f"{recorded} outcomes recorded (excluding pre-parse "
            f"'unknown'): {dict(metrics.outcomes)}")


# ----------------------------------------------------------------------
# The engine driver (BatchExecutor over jobs).
# ----------------------------------------------------------------------
def _drive_engine(plan: FaultPlan, report: RunReport,
                  cache_root: Path) -> None:
    """Drive the batch executor through the workload under ``plan``.

    The executor writes through a :class:`TieredStore` whose memory
    tier holds ~2.5 delay records, so its puts reach shard creation
    (``store.disk.shard_unwritable``, first put) and byte-budget
    eviction (``store.memory.evict_race``).  Beyond the lane checks,
    the memory tier must stay within its budget and every ok lane's
    stored record, read back with the plan suspended, must equal solo
    ``job.run()``.
    """
    from ..engine.executor import BatchExecutor
    from ..engine.store import DiskStore, MemoryStore, TieredStore

    workload = _workload_jobs()
    jobs = (workload["delay"] + workload["critical_inductance"]
            + workload["optimize"])
    kinds = (["delay"] * len(workload["delay"])
             + ["critical_inductance"] * len(workload["critical_inductance"])
             + ["optimize"] * len(workload["optimize"]))
    indices = (list(range(len(workload["delay"])))
               + list(range(len(workload["critical_inductance"])))
               + list(range(len(workload["optimize"]))))
    truths = _ground_truths(plan, workload)
    optimize_faulted = any(rule.site in OPTIMIZE_FAULT_SITES
                           for rule in plan.rules)
    puts_faulted = any(rule.site in PUT_FAULT_SITES for rule in plan.rules)
    plan_inert = not plan.rules
    first_event = len(plan.events)

    budget = int(2.5 * len(truths["delay"][0].encode("utf-8")))
    cache = TieredStore(memory=MemoryStore(budget),
                        disk=DiskStore(cache_root))
    executor = BatchExecutor(jobs=1, cache=cache)
    with hooks.active(plan):
        try:
            batch = executor.run(jobs)
        except RuntimeError as exc:
            # A mixed plan can arm backend-plane sites alongside engine
            # sites; the serial backend's dispatch guard then fails the
            # whole run.  That is an explicit, contextual rejection —
            # answered-or-rejected holds — as long as the error names
            # the backend plane or the recovery path.
            message = str(exc)
            report.requests_sent += len(jobs)
            report.responses_error += len(jobs)
            if ("backend." not in message
                    and "re-run with jobs=1" not in message):
                report.violation(
                    "answered",
                    f"engine run failed without backend context: {exc}")
            return
    report.requests_sent += len(jobs)

    if len(batch.outcomes) != len(jobs):
        report.violation(
            "answered", f"executor returned {len(batch.outcomes)} "
                        f"outcomes for {len(jobs)} jobs")
        return
    for outcome, job, kind, index in zip(batch.outcomes, jobs, kinds,
                                         indices):
        with plan.suspended():
            stored = cache.get(job)
        if outcome.ok:
            report.responses_ok += 1
            if kind == "optimize" and optimize_faulted:
                continue
            produced = _normalized(outcome.result)
            if produced != truths[kind][index]:
                report.violation(
                    "bitwise",
                    f"executor {kind}[{index}] differs from solo "
                    f"job.run(): {produced} != {truths[kind][index]}")
            if stored is None:
                # A failed write loses only the replay; with no write
                # fault armed every ok lane's put lands.
                if not puts_faulted:
                    report.violation(
                        "cache", f"executor {kind}[{index}] is ok but "
                                 f"was never stored, with no store-write "
                                 f"fault armed")
            elif _normalized(stored) != truths[kind][index]:
                report.violation(
                    "bitwise",
                    f"executor {kind}[{index}] stored record differs "
                    f"from solo job.run()")
        else:
            report.responses_error += 1
            if not (outcome.error and outcome.error_type):
                report.violation(
                    "answered",
                    f"executor {kind}[{index}] failed without error "
                    f"context: {outcome!r}")
            elif plan_inert:
                report.violation(
                    "isolation",
                    f"executor {kind}[{index}] failed with no fault "
                    f"armed: {outcome.error}")
            if stored is not None:
                report.violation(
                    "cache", f"failed {kind}[{index}] job has a cached "
                             f"result (errors must never be cached)")

    memory = cache.memory.stats()
    if memory.total_bytes > cache.memory.max_bytes:
        report.violation(
            "cache",
            f"memory tier holds {memory.total_bytes} bytes over its "
            f"{cache.memory.max_bytes}-byte budget")
    _check_cache_integrity(plan, report, cache, first_event)


# ----------------------------------------------------------------------
# The backend driver (both callers of the execution plane's seam).
# ----------------------------------------------------------------------
def _drive_backend(plan: FaultPlan, report: RunReport) -> None:
    """Drive the backend fault plane through both callers of its seam.

    Engine first: a multi-worker :class:`BatchExecutor` runs the
    delay workload repeatedly, consuming the armed site's first hits
    deterministically.  A dispatch that fails must fail *loud and
    contextual* (the ``re-run with jobs=1`` recovery text, or the
    injected site's own name), and — the restart invariant — once a
    failure has been observed, a later run on the *same executor* must
    succeed: a process backend that lost a worker rebuilds its pool
    instead of staying broken.  That is demanded only while every armed
    backend rule fires a bounded number of times (``nth``/``first``); a
    ``prob`` or ``always`` rule may fail every run.  Backend sites fail
    dispatches, never lanes, so a failed lane is an isolation violation
    when only backend sites are armed; a mixed plan may fail lanes
    through its other sites, and each such lane must carry a typed
    error.

    Serve second: a :class:`ReproService` whose batchers share a
    backend of the same flavor evaluates the delay workload.  Every
    lane is answered-or-rejected — a successful response is bitwise
    equal to solo ``job.run()``, a failed one carries a structured
    :class:`ServeError` — even when a worker died mid-batch.
    """
    import asyncio

    from ..engine.executor import BatchExecutor
    from ..serve.protocol import ServeError, parse_request
    from ..serve.service import ReproService

    workload = _workload_jobs()
    truths = _ground_truths(plan, workload)
    plan_inert = not plan.rules
    crash_armed = any(rule.site == "backend.worker.crash"
                      for rule in plan.rules)
    backend_name = "process" if crash_armed else "thread"
    backend_only = all(rule.site in BACKEND_SITES for rule in plan.rules)
    must_recover = all(rule.mode in ("nth", "first") for rule in plan.rules
                       if rule.site in BACKEND_SITES)

    # -- engine ----------------------------------------------------------
    executor = BatchExecutor(jobs=2, backend=backend_name)
    saw_failure = False
    saw_recovery = False
    try:
        for _ in range(4):
            report.requests_sent += len(workload["delay"])
            try:
                with hooks.active(plan):
                    batch = executor.run(workload["delay"])
            except RuntimeError as exc:
                report.responses_error += len(workload["delay"])
                message = str(exc)
                saw_failure = True
                if ("backend." not in message
                        and "re-run with jobs=1" not in message):
                    report.violation(
                        "answered",
                        f"backend dispatch failed without recovery "
                        f"context: {exc}")
                continue
            for index, outcome in enumerate(batch.outcomes):
                if not outcome.ok:
                    report.responses_error += 1
                    if backend_only:
                        report.violation(
                            "isolation",
                            f"backend delay[{index}] failed under a "
                            f"dispatch-plane fault (lane isolation must "
                            f"not be affected): {outcome.error}")
                    elif not (outcome.error and outcome.error_type):
                        report.violation(
                            "answered",
                            f"backend delay[{index}] failed without "
                            f"error context: {outcome!r}")
                    continue
                report.responses_ok += 1
                if (_normalized(outcome.result)
                        != truths["delay"][index]):
                    report.violation(
                        "bitwise",
                        f"backend delay[{index}] differs from solo "
                        f"job.run()")
            if saw_failure:
                saw_recovery = True
                break
    finally:
        executor.close()
    if saw_failure and not saw_recovery and must_recover:
        report.violation(
            "answered",
            f"{backend_name} backend never recovered: every run after "
            f"the first failure kept failing (a broken pool must be "
            f"rebuilt)")

    # -- serve -----------------------------------------------------------
    async def drive_service():
        service = ReproService(backend=backend_name, backend_workers=2,
                               max_batch_size=4, max_linger=0.02,
                               default_timeout=30.0)
        try:
            requests = [parse_request(_request_document(job))
                        for job in workload["delay"]]
            return await asyncio.gather(
                *(service.submit(request) for request in requests),
                return_exceptions=True)
        finally:
            await service.close()

    with hooks.active(plan):
        results = asyncio.run(drive_service())
    report.requests_sent += len(results)
    for index, result in enumerate(results):
        if isinstance(result, ServeError):
            report.responses_error += 1
            if plan_inert:
                report.violation(
                    "isolation",
                    f"serve delay[{index}] rejected with no fault "
                    f"armed: {result}")
        elif isinstance(result, BaseException):
            report.violation(
                "answered",
                f"serve delay[{index}] raised an unstructured "
                f"{type(result).__name__}: {result}")
        elif isinstance(result, dict) and result.get("ok"):
            report.responses_ok += 1
            served = _normalized(result["result"])
            if served != truths["delay"][index]:
                report.violation(
                    "bitwise",
                    f"serve delay[{index}] served result differs from "
                    f"solo job.run()")
        else:
            report.violation(
                "answered",
                f"serve delay[{index}] returned neither a result nor "
                f"a typed rejection: {result!r}")


# ----------------------------------------------------------------------
# Drivers' front door.
# ----------------------------------------------------------------------
def run_plan(plan: FaultPlan, *,
             cache_root: Optional[Path] = None) -> RunReport:
    """Drive ``plan`` through the live workloads and check invariants.

    Rules naming engine or store sites route through the
    :class:`~repro.engine.executor.BatchExecutor` driver (its executor
    writes through a tiered store), rules naming backend sites through
    the dual-seam backend driver; everything else (including an empty
    plan) routes through the socket-level serve driver.  A plan mixing
    scenarios runs every driver it names.
    """
    report = RunReport(plan_string=plan.to_string())
    sites = {rule.site for rule in plan.rules}
    engine = bool(sites & (ENGINE_SITES | STORE_SITES))
    backend = bool(sites & BACKEND_SITES)
    serve = bool(sites - ENGINE_SITES - BACKEND_SITES - STORE_SITES) \
        or not sites

    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        root = Path(cache_root) if cache_root is not None else Path(tmp)
        if engine:
            _drive_engine(plan, report, root / "engine")
        if backend:
            _drive_backend(plan, report)
        if serve:
            _drive_serve(plan, report, root / "serve")

    report.events = plan.event_log()
    report.fired = plan.fired_sites()
    for rule in plan.rules:
        if rule.mode in ("always", "first", "nth") \
                and not report.fired.get(rule.site):
            report.violation(
                "coverage",
                f"rule for {rule.site} (mode {rule.mode}) never fired — "
                f"the seam is not reachable from the workload")
    return report


def replay(plan_string: str) -> RunReport:
    """Re-run a serialized plan (the ``repro-faults replay`` core)."""
    return run_plan(FaultPlan.from_string(plan_string))


# ----------------------------------------------------------------------
# Canned scenarios and campaigns.
# ----------------------------------------------------------------------
#: Per-site deterministic rule presets: every registered site is
#: reachable from the standard workload with these triggers.
SITE_RULES: Dict[str, Dict[str, Any]] = {
    "cache.get.os_error": {"mode": "nth", "n": 2},
    "cache.get.torn_record": {"mode": "nth", "n": 1},
    "cache.put.os_error": {"mode": "nth", "n": 1},
    "cache.put.stale_tmp": {"mode": "nth", "n": 1},
    "executor.job.error": {"mode": "nth", "n": 2},
    "executor.job.hang": {"mode": "nth", "n": 1, "delay": 0.01},
    "optimize.warm_start": {"mode": "nth", "n": 1},
    "kernels.threshold_delay.nan_lane": {"mode": "nth", "n": 1},
    "serve.optimize.lane_error": {"mode": "nth", "n": 1},
    "batcher.dispatch.delay": {"mode": "nth", "n": 1, "delay": 0.01},
    "batcher.evaluate.error": {"mode": "nth", "n": 1},
    "batcher.envelope.malformed": {"mode": "nth", "n": 1},
    "server.read.drop": {"mode": "nth", "n": 2},
    "server.write.truncate": {"mode": "nth", "n": 1},
    # First three dispatches fail (the backend driver's engine seam
    # consumes them, proving contextual failure + pool rebuild), then
    # the serve seam runs clean over the restarted workers.
    "backend.worker.crash": {"mode": "first", "n": 3},
    "backend.worker.hang": {"mode": "nth", "n": 1, "delay": 0.01},
    "backend.dispatch.queue_full": {"mode": "nth", "n": 1},
    # The engine driver's tiny memory tier evicts within its first few
    # write-through puts, and its first put creates the first shard.
    "store.memory.evict_race": {"mode": "nth", "n": 1},
    "store.disk.shard_unwritable": {"mode": "nth", "n": 1},
}


def scenario_plan(scenario: str, *, seed: int = 0) -> FaultPlan:
    """Plan arming every site of one scenario (``cache``/``engine``/
    ``serve``/``backend``/``store``), or ``all``."""
    names = [name for name, point in sorted(FAULT_POINTS.items())
             if scenario in ("all", point.scenario)]
    if not names:
        known = sorted({point.scenario
                        for point in FAULT_POINTS.values()} | {"all"})
        raise ValueError(f"unknown scenario {scenario!r}; known: "
                         f"{', '.join(known)}")
    return FaultPlan(seed=seed, rules=[
        FaultRule(site=name, **SITE_RULES.get(name, {}))
        for name in names])


def site_plan(site: str, *, seed: int = 0) -> FaultPlan:
    """Plan arming exactly one registered site with its preset."""
    if site not in FAULT_POINTS:
        raise ValueError(f"unknown fault site {site!r}")
    return FaultPlan(seed=seed,
                     rules=[FaultRule(site=site,
                                      **SITE_RULES.get(site, {}))])


def run_campaign(*, seed: int = 0, randomized_rounds: int = 0
                 ) -> CampaignReport:
    """Deterministic per-site sweep plus optional randomized rounds.

    The deterministic phase runs :func:`site_plan` for every registered
    site — this is what makes campaign coverage a *gate*: a seam whose
    preset no longer fires turns up in :meth:`CampaignReport.uncovered`.
    Randomized rounds then arm 2–4 random sites with seeded random
    triggers; any failure's plan string is in its
    :class:`RunReport` for replay.
    """
    campaign = CampaignReport()
    for site in sorted(FAULT_POINTS):
        run = run_plan(site_plan(site, seed=seed))
        campaign.runs.append(run)
        for name, count in run.fired.items():
            campaign.coverage[name] = campaign.coverage.get(name, 0) + count

    rng = random.Random(seed)
    for round_index in range(randomized_rounds):
        sites = rng.sample(sorted(FAULT_POINTS), rng.randint(2, 4))
        rules = []
        for site in sites:
            preset = dict(SITE_RULES.get(site, {}))
            mode = rng.choice(["nth", "first", "prob"])
            preset["mode"] = mode
            if mode in ("nth", "first"):
                preset["n"] = rng.randint(1, 3)
                preset.pop("p", None)
            else:
                preset["p"] = rng.uniform(0.2, 0.8)
            rules.append(FaultRule(site=site, **preset))
        run = run_plan(FaultPlan(seed=seed + 1 + round_index, rules=rules))
        # Randomized triggers may legitimately never fire; reachability
        # is the deterministic phase's job, not this one's.
        run.violations = [violation for violation in run.violations
                          if violation.invariant != "coverage"]
        campaign.runs.append(run)
        for name, count in run.fired.items():
            campaign.coverage[name] = campaign.coverage.get(name, 0) + count
    return campaign
