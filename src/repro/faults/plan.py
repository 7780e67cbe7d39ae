"""Deterministic fault plans: named sites, seeded rules, replayable events.

The fault plane answers one question for the engine/serve stack: *when a
seam misbehaves, do the recovery paths actually hold the system's
invariants?*  Every recovery path the stack grew — corrupt-record
unlinking in the result cache, per-job fault isolation in the executor,
the RC re-seed retry, per-lane envelopes in the batcher, graceful drain
in the server — is reachable from a named :class:`FaultPoint` listed in
:data:`FAULT_POINTS`.

A :class:`FaultPlan` is a seed plus an ordered list of :class:`FaultRule`
objects.  Determinism is the design center:

* every site draws from its **own** PRNG stream, seeded by
  ``(plan seed, site name)`` — interleaving of sites across threads
  cannot perturb any one site's decisions;
* rule matching counts *invocations per site*, so "fire on the 2nd
  cache read" means the same read in every replay of the same traffic;
* every fired fault is appended to the plan's event log with a global
  sequence number, which is the replay artifact the ``repro-faults``
  CLI prints and diffs.

Plans serialize to a compact JSON string (``to_string``/``from_string``)
that can travel through the ``REPRO_FAULTS`` environment variable —
which is how process-pool workers, spawned fresh, arm the same faults
as their parent.

The plane is **zero-overhead when off**: seams guard every call with
``if hooks.ACTIVE is not None`` (one module-attribute load and an ``is``
check), so an idle production server never pays for its adversary.
"""

from __future__ import annotations

import json
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


# ----------------------------------------------------------------------
# The site registry.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPoint:
    """One named injection site threaded through a hot seam.

    ``scenario`` names the canned campaign scenario (see
    :mod:`repro.faults.harness`) that exercises the site; the campaign
    uses it to assert every site fired at least once.
    """

    name: str
    description: str
    scenario: str
    default_action: str


#: Every named injection site, keyed by name.  Sites are part of the
#: correctness surface: the campaign asserts coverage of this registry,
#: so adding a seam without registering it here fails the gate.
FAULT_POINTS: Dict[str, FaultPoint] = {point.name: point for point in [
    FaultPoint("cache.get.os_error",
               "result-cache read raises OSError before the record opens",
               "cache", "raise"),
    FaultPoint("cache.get.torn_record",
               "result-cache record bytes are truncated mid-read "
               "(torn write from a killed process)",
               "cache", "truncate"),
    FaultPoint("cache.put.os_error",
               "result-cache write raises OSError between the temp file "
               "and its atomic rename",
               "cache", "raise"),
    FaultPoint("cache.put.stale_tmp",
               "a writer dies after creating its temp file, leaving a "
               "stale .tmp in the shard",
               "cache", "side_effect"),
    FaultPoint("executor.job.error",
               "a job raises inside the executor's fault-isolation "
               "envelope",
               "engine", "raise"),
    FaultPoint("executor.job.hang",
               "a job stalls inside the executor (sleep past deadlines)",
               "engine", "delay"),
    FaultPoint("optimize.warm_start",
               "the optimizer's warm start diverges, forcing the RC "
               "re-seed retry",
               "engine", "raise"),
    FaultPoint("kernels.threshold_delay.nan_lane",
               "one lane of a batched threshold-delay solve goes NaN",
               "serve", "nan_lane"),
    FaultPoint("serve.optimize.lane_error",
               "a single lane of a lockstep optimize batch diverges",
               "serve", "pick_lane"),
    FaultPoint("batcher.dispatch.delay",
               "the drain loop stalls before dispatch (linger/deadline "
               "races)",
               "serve", "delay"),
    FaultPoint("batcher.evaluate.error",
               "a whole dispatched batch fails before its dispatch",
               "serve", "raise"),
    FaultPoint("batcher.envelope.malformed",
               "a dispatch returns a malformed envelope list (wrong "
               "count)",
               "serve", "drop_one"),
    FaultPoint("server.read.drop",
               "the connection drops while a request is being read "
               "(mid-keep-alive disconnect)",
               "serve", "raise"),
    FaultPoint("server.write.truncate",
               "the response body is truncated and the connection closed",
               "serve", "truncate"),
    FaultPoint("backend.worker.crash",
               "a backend worker dies mid-batch (the pool breaks under "
               "a dispatched batch; process backends rebuild it)",
               "backend", "raise"),
    FaultPoint("backend.worker.hang",
               "a backend dispatch stalls before its worker starts it",
               "backend", "delay"),
    FaultPoint("backend.dispatch.queue_full",
               "the backend refuses a dispatch at submission (its "
               "internal queue is saturated)",
               "backend", "raise"),
    FaultPoint("store.memory.evict_race",
               "a racing evictor removes an extra entry during a "
               "memory-tier byte-budget eviction",
               "store", "side_effect"),
    FaultPoint("store.disk.shard_unwritable",
               "a disk-store shard directory cannot be created or "
               "written (permissions, read-only mount)",
               "store", "raise"),
]}


#: Exception classes a ``raise`` rule may name.  Library exceptions are
#: resolved lazily to keep this module import-light.
_EXCEPTION_NAMES = ("OSError", "RuntimeError", "ConnectionError",
                    "TimeoutError", "OptimizationError",
                    "DelaySolverError", "BrokenProcessPool")


def _exception_class(name: str):
    if name == "OptimizationError":
        from ..errors import OptimizationError
        return OptimizationError
    if name == "DelaySolverError":
        from ..errors import DelaySolverError
        return DelaySolverError
    if name == "BrokenProcessPool":
        from concurrent.futures.process import BrokenProcessPool
        return BrokenProcessPool
    return {"OSError": OSError, "RuntimeError": RuntimeError,
            "ConnectionError": ConnectionError,
            "TimeoutError": TimeoutError}[name]


#: Default exception a ``raise`` rule uses per site.
_DEFAULT_EXCEPTIONS = {
    "cache.get.os_error": "OSError",
    "cache.put.os_error": "OSError",
    "executor.job.error": "RuntimeError",
    "optimize.warm_start": "OptimizationError",
    "batcher.evaluate.error": "RuntimeError",
    "server.read.drop": "ConnectionError",
    "backend.worker.crash": "BrokenProcessPool",
    "backend.dispatch.queue_full": "RuntimeError",
    "store.disk.shard_unwritable": "OSError",
}


# ----------------------------------------------------------------------
# Rules.
# ----------------------------------------------------------------------
@dataclass
class FaultRule:
    """When and how one site misbehaves.

    ``mode`` selects the trigger condition against the site's
    invocation counter (1-based):

    * ``"always"`` — every invocation;
    * ``"first"``  — the first ``n`` invocations;
    * ``"nth"``    — exactly the ``n``-th invocation;
    * ``"prob"``   — each invocation with probability ``p``, drawn from
      the site's seeded PRNG stream (replayable).

    ``action`` defaults to the site's registered default; ``exc`` names
    the exception class for ``raise`` actions, ``delay`` the stall in
    seconds, ``fraction`` where truncating actions cut.
    """

    site: str
    mode: str = "nth"
    n: int = 1
    p: float = 1.0
    action: Optional[str] = None
    exc: Optional[str] = None
    delay: float = 0.05
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.site not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {known}")
        if self.mode not in ("always", "first", "nth", "prob"):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.n < 1:
            raise ValueError(f"rule count must be >= 1, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"rule probability must be in [0, 1], "
                             f"got {self.p}")
        if self.exc is not None and self.exc not in _EXCEPTION_NAMES:
            raise ValueError(
                f"unknown exception {self.exc!r}; known: "
                f"{', '.join(_EXCEPTION_NAMES)}")

    @property
    def resolved_action(self) -> str:
        return (self.action if self.action is not None
                else FAULT_POINTS[self.site].default_action)

    def matches(self, hit: int, rng: random.Random) -> bool:
        """Does this rule fire on the site's ``hit``-th invocation?"""
        if self.mode == "always":
            return True
        if self.mode == "first":
            return hit <= self.n
        if self.mode == "nth":
            return hit == self.n
        return rng.random() < self.p

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"site": self.site, "mode": self.mode}
        if self.mode in ("first", "nth"):
            out["n"] = self.n
        if self.mode == "prob":
            out["p"] = self.p
        if self.action is not None:
            out["action"] = self.action
        if self.exc is not None:
            out["exc"] = self.exc
        if self.resolved_action == "delay":
            out["delay"] = self.delay
        if self.resolved_action == "truncate":
            out["fraction"] = self.fraction
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        return cls(site=str(data["site"]),
                   mode=str(data.get("mode", "nth")),
                   n=int(data.get("n", 1)),
                   p=float(data.get("p", 1.0)),
                   action=data.get("action"),
                   exc=data.get("exc"),
                   delay=float(data.get("delay", 0.05)),
                   fraction=float(data.get("fraction", 0.5)))


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: the replay artifact, in global firing order."""

    seq: int
    site: str
    action: str
    hit: int          #: which invocation of the site this was (1-based)
    detail: str = ""

    def format(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        return f"#{self.seq} {self.site} hit={self.hit} " \
               f"action={self.action}{extra}"


# ----------------------------------------------------------------------
# The plan.
# ----------------------------------------------------------------------
class FaultPlan:
    """A seed plus rules; thread-safe counters and an event log.

    The same plan string driven through the same traffic produces the
    same event sequence — that is the contract ``repro-faults replay``
    (and every "re-run the failing plan" workflow) rests on.
    """

    def __init__(self, seed: int = 0,
                 rules: Sequence[FaultRule] = ()) -> None:
        self.seed = int(seed)
        self.rules: List[FaultRule] = list(rules)
        self.events: List[FaultEvent] = []
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._suspended = threading.local()

    # -- construction ----------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "FaultPlan":
        """Parse a plan string (the JSON form ``to_string`` emits)."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        rules = [FaultRule.from_dict(entry)
                 for entry in data.get("rules", [])]
        return cls(seed=int(data.get("seed", 0)), rules=rules)

    def to_string(self) -> str:
        """Compact, replayable JSON form (inverse of ``from_string``)."""
        return json.dumps(
            {"seed": self.seed,
             "rules": [rule.to_dict() for rule in self.rules]},
            sort_keys=True, separators=(",", ":"))

    def arm(self, rule: FaultRule) -> None:
        """Append a rule while live (the stateful harness's dial)."""
        with self._lock:
            self.rules.append(rule)

    # -- suspension (ground-truth computation) ---------------------------
    @contextmanager
    def suspended(self):
        """No faults fire on *this thread* inside the block.

        The harness computes solo ground truths while the plan stays
        installed for the server's threads; suspension is therefore
        per-thread, and never consumes PRNG draws or hit counts.
        """
        before = getattr(self._suspended, "active", False)
        self._suspended.active = True
        try:
            yield
        finally:
            self._suspended.active = before

    # -- the trigger core ------------------------------------------------
    def trigger(self, site: str, detail: str = ""
                ) -> Optional[FaultRule]:
        """Count one invocation of ``site``; return the rule that fires.

        Thread-safe; logs a :class:`FaultEvent` when a rule matches.
        Returns ``None`` (and counts nothing) while suspended on the
        calling thread.
        """
        if getattr(self._suspended, "active", False):
            return None
        if site not in FAULT_POINTS:
            raise ValueError(f"unregistered fault site {site!r}")
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            rng = self._rngs.get(site)
            if rng is None:
                rng = random.Random(f"{self.seed}:{site}")
                self._rngs[site] = rng
            for rule in self.rules:
                if rule.site == site and rule.matches(hit, rng):
                    self.events.append(FaultEvent(
                        seq=len(self.events) + 1, site=site,
                        action=rule.resolved_action, hit=hit,
                        detail=detail))
                    return rule
            return None

    # -- introspection ---------------------------------------------------
    def hit_count(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)

    def fired_sites(self) -> Dict[str, int]:
        """Fired-event count per site (the coverage summary's input)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for event in self.events:
                counts[event.site] = counts.get(event.site, 0) + 1
            return counts

    def event_log(self) -> List[str]:
        with self._lock:
            return [event.format() for event in self.events]

    # -- action helpers (called by hooks) --------------------------------
    def build_exception(self, rule: FaultRule, site: str) -> BaseException:
        name = rule.exc or _DEFAULT_EXCEPTIONS.get(site, "RuntimeError")
        cls = _exception_class(name)
        message = (f"injected fault at {site} "
                   f"(plan seed {self.seed}, event "
                   f"#{len(self.events)})")
        return cls(message)

    def pick_index(self, site: str, n: int) -> int:
        """Deterministic index in ``[0, n)`` from the site's stream."""
        with self._lock:
            rng = self._rngs.get(site)
            if rng is None:
                rng = random.Random(f"{self.seed}:{site}")
                self._rngs[site] = rng
            return rng.randrange(n) if n > 0 else 0
