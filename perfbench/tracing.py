"""Outside-in layer tracing for the benchmark's traced runs.

A traced run never edits the program: before the workload starts, the
child process wraps the public function at each layer boundary of
``repro`` and swaps every reference to the original function object it
finds in loaded ``repro.*`` module globals, their classes and their
module-level registries (dicts) — plus the defining owner itself, which
is how ``numpy.linalg.solve`` is reached.  A target that no longer
exists is counted in ``harness.trace.missing_targets`` instead of
failing the run, so the benchmark survives refactors of the program.

Every call records a span (name, start, end, thread, parent span,
request id).  Aggregates — calls, busy time, self time (span time minus
the time its child spans cover) and per-target counters — include every
call; the first :data:`KEEP_PER_NAME` spans of each name are also kept
in memory and written out as a Chrome trace when the run ends.
Parent/child links follow the thread or asyncio task (a context
variable), so concurrently served requests do not nest into each other.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: Open spans of the current thread or asyncio task, innermost last.
_STACK: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span_stack", default=())

#: Id of the request the current task serves (set by the load generator).
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_id", default=None)

#: Spans kept per name for the Chrome trace; aggregates count every call.
KEEP_PER_NAME = 2000


def open_spans() -> tuple:
    """Frames of the spans open in this thread or task, innermost last."""
    return _STACK.get()


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` + ``attr`` (``func`` or
    ``Class.method``), recorded as span ``span``.

    ``within`` traces the call only inside an open span of that layer;
    ``outermost`` skips calls nested in a span of the same name (a
    tiered store's get calling its tiers' gets counts once).  ``before``
    and ``after`` hooks record the target's counters.
    """

    span: str
    module: str
    attr: str
    within: Optional[str] = None
    outermost: bool = False
    before: Optional[Callable] = None
    after: Optional[Callable] = None

    @property
    def layer(self) -> str:
        return self.span.split(".")[0]


class _Frame:
    __slots__ = ("target", "start", "child")

    def __init__(self, target: Target, start: float) -> None:
        self.target = target
        self.start = start
        self.child = 0.0


class Tracer:
    """Span sink and counter registry of one traced process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: Dict[str, List[float]] = {}   # name -> [calls, busy, self]
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.events: List[tuple] = []
        self.dropped = 0
        self.missing: List[str] = []
        #: Serve phase label the batcher counters are filed under.
        self.phase = ""
        #: id(job) -> start of the serve request that parsed it.
        self.job_starts: Dict[int, float] = {}
        self._kept: Dict[str, int] = {}

    # -- counters ---------------------------------------------------------
    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    # -- spans ------------------------------------------------------------
    def _close(self, frame: _Frame, parent: Optional[_Frame],
               end: float) -> float:
        seconds = end - frame.start
        if parent is not None:
            parent.child += seconds
        name = frame.target.span
        with self._lock:
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += seconds
            agg[2] += max(0.0, seconds - frame.child)
            kept = self._kept.get(name, 0)
            if kept < KEEP_PER_NAME:
                self._kept[name] = kept + 1
                self.events.append((
                    name, frame.start, end, threading.get_ident(),
                    parent.target.span if parent is not None else None,
                    REQUEST_ID.get()))
            else:
                self.dropped += 1
        return seconds

    def _skip(self, target: Target, stack: tuple) -> bool:
        if target.within is not None and not any(
                f.target.layer == target.within for f in stack):
            return True
        return target.outermost and any(
            f.target.span == target.span for f in stack)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A traced stand-in for ``fn`` (async functions stay async)."""
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                stack = _STACK.get()
                frame = _Frame(target, time.perf_counter())
                token = _STACK.set(stack + (frame,))
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _STACK.reset(token)
                    seconds = tracer._close(
                        frame, stack[-1] if stack else None,
                        time.perf_counter())
                if target.after is not None:
                    target.after(tracer, args, kwargs, result, seconds)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = _STACK.get()
            if (target.within is not None or target.outermost) \
                    and tracer._skip(target, stack):
                return fn(*args, **kwargs)
            if target.before is not None:
                target.before(tracer, args, kwargs)
            frame = _Frame(target, time.perf_counter())
            token = _STACK.set(stack + (frame,))
            try:
                result = fn(*args, **kwargs)
            finally:
                _STACK.reset(token)
                seconds = tracer._close(frame, stack[-1] if stack else None,
                                        time.perf_counter())
            if target.after is not None:
                target.after(tracer, args, kwargs, result, seconds)
            return result
        return traced

    # -- installation -----------------------------------------------------
    def install(self, targets: List[Target]) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, name = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = (vars(owner).get(name) if isinstance(owner, type)
                            else getattr(owner, name, None))
            except (ImportError, AttributeError):
                original = None
            if original is None or not callable(original):
                self.missing.append(target.span + ":" + target.attr)
                continue
            wrapper = self.wrap(target, original)
            setattr(owner, name, wrapper)
            _replace_references(original, wrapper)

    # -- export -----------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """JSON form merged by the parent across a workload's processes."""
        with self._lock:
            return {"spans": dict(self.spans),
                    "counters": dict(self.counters),
                    "maxima": dict(self.maxima),
                    "samples": {k: list(v) for k, v in self.samples.items()},
                    "events": list(self.events),
                    "dropped": self.dropped,
                    "missing": list(self.missing)}


def _replace_references(original: Any, wrapper: Any) -> None:
    """Point every ``repro.*`` reference to ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for item_key, item in list(value.items()):
                    if item is original:
                        value[item_key] = wrapper
            elif (isinstance(value, type)
                  and value.__module__ == module_name):
                for attr, item in list(vars(value).items()):
                    if item is original:
                        setattr(value, attr, wrapper)


def merge(exports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine the exports of several processes of one workload; each
    event gains its process index as the Chrome trace ``pid``."""
    merged: Dict[str, Any] = {"spans": {}, "counters": {}, "maxima": {},
                              "samples": {}, "events": [], "dropped": 0,
                              "missing": []}
    for pid, export in enumerate(exports):
        for name, (calls, busy, self_s) in export["spans"].items():
            agg = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += busy
            agg[2] += self_s
        for key, value in export["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0.0) + value
        for key, value in export["maxima"].items():
            merged["maxima"][key] = max(merged["maxima"].get(key, value),
                                        value)
        for key, values in export["samples"].items():
            merged["samples"].setdefault(key, []).extend(values)
        merged["events"].extend([pid] + list(event)
                                for event in export["events"])
        merged["dropped"] += export["dropped"]
        for name in export["missing"]:
            if name not in merged["missing"]:
                merged["missing"].append(name)
    return merged


def chrome_trace(merged: Dict[str, Any], workload: str) -> Dict[str, Any]:
    """Chrome trace-event JSON (open in Perfetto or chrome://tracing)."""
    events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
               "ts": start * 1e6, "dur": (end - start) * 1e6,
               "pid": pid, "tid": tid,
               "args": {"parent": parent, "request": request}}
              for pid, name, start, end, tid, parent, request
              in merged["events"]]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"workload": workload,
                          "spans_not_kept": merged["dropped"],
                          "missing_targets": merged["missing"]}}
