"""The rule catalog (RPR001-RPR002, RPR004-RPR007): one invariant each.

A rule is anything satisfying the :class:`Rule` protocol — an id, a
severity, an explanation, and one (or both) of two hooks:

* ``check_module(ctx)`` — per-file findings from one
  :class:`~repro.analysis.lint.resolver.ModuleContext`;
* ``check_project(project)`` — cross-file findings that need the whole
  scanned tree (the fault-site registry walk).

Every shipped rule prevents a *specific* regression class this stack
has already paid for once; the ``explain`` text names it, so
``repro-lint explain RPRxxx`` answers "why does this gate exist" at the
terminal.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Protocol, Tuple

from .findings import Finding, Severity
from .resolver import ModuleContext, direct_body_walk


class Rule(Protocol):
    """Static shape of a lint rule (structural; no registration magic)."""

    rule_id: str
    title: str
    severity: Severity
    explain: str

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]: ...

    def check_project(self, project: Any) -> Iterator[Finding]: ...


class BaseRule:
    """Shared no-op hooks so rules implement only what they scan."""

    rule_id = "RPR000"
    title = ""
    severity = Severity.ERROR
    explain = ""

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Any) -> Iterator[Finding]:
        return iter(())

    def _finding(self, ctx: ModuleContext, node: ast.AST,
                 message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(rule=self.rule_id, severity=self.severity,
                       path=ctx.rel, line=line,
                       col=getattr(node, "col_offset", 0),
                       message=message, line_text=ctx.line_text(line))


# ----------------------------------------------------------------------
# RPR001 — event-loop purity in repro/serve/.
# ----------------------------------------------------------------------
#: Dotted callee names that block the calling thread.
_BLOCKING_NAMES = frozenset({
    "open", "io.open", "time.sleep", "json.dump", "os.fdopen",
    "subprocess.run", "subprocess.check_output", "os.system",
    "socket.create_connection", "socket.getaddrinfo",
})

#: Blocking socket *methods* flagged on any receiver whose name says
#: it is a socket.
_SOCKET_METHODS = frozenset({"recv", "recv_into", "sendall", "accept",
                             "connect"})

#: Store/cache I/O methods, flagged when the receiver is named like a
#: result store.
_STORE_METHODS = frozenset({"get", "put"})
_STORE_RECEIVERS = frozenset({"cache", "store", "_cache", "_store",
                              "disk"})


class BlockingCallInAsyncRule(BaseRule):
    rule_id = "RPR001"
    title = "blocking call on the event loop"
    explain = (
        "Async bodies in repro/serve/ must never perform blocking I/O "
        "directly: file opens, time.sleep, json.dump to a file handle, "
        "socket operations, or result-store get/put.  Store I/O belongs "
        "on the backend's auxiliary I/O lane (Backend.run_io_async) or "
        "an executor thread — code inside a lambda/def handed to those "
        "seams is exempt because it runs off-loop.  Origin: PR 8 fixed "
        "a cache hit that opened files and decoded JSON on the event-"
        "loop thread, stalling every in-flight request; this rule makes "
        "that regression class unrepresentable at review time.")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_layer("serve"):
            return
        for func in ctx.async_functions():
            for node in direct_body_walk(func):
                if not isinstance(node, ast.Call):
                    continue
                blocked = self._classify(ctx, node)
                if blocked is not None:
                    yield self._finding(
                        ctx, node,
                        f"blocking call {blocked} inside "
                        f"'async def {func.name}'; route it through "
                        f"Backend.run_io_async or an executor seam")

    def _classify(self, ctx: ModuleContext,
                  node: ast.Call) -> Optional[str]:
        name = ctx.resolve_call(node)
        if name is None:
            return None
        if name in _BLOCKING_NAMES:
            return f"{name}()"
        parts = name.split(".")
        if len(parts) >= 2:
            receiver, method = parts[-2], parts[-1]
            if method in _SOCKET_METHODS and "sock" in receiver.lower():
                return f"{receiver}.{method}()"
            if method in _STORE_METHODS and receiver in _STORE_RECEIVERS:
                return f"{receiver}.{method}()"
        return None


# ----------------------------------------------------------------------
# RPR002 — fault-site registry consistency.
# ----------------------------------------------------------------------
#: Helper functions of repro.faults.hooks whose first argument is a
#: registered site name.
_HOOK_FUNCTIONS = frozenset({
    "fire", "should", "sleep", "mutate", "nan_lanes", "pick_lane",
    "delay_duration",
})


def _is_hooks_call(ctx: ModuleContext, node: ast.Call) -> Optional[str]:
    """Site name when ``node`` is a fault-hook call with a literal site."""
    name = ctx.resolve_call(node)
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) < 2 or parts[-1] not in _HOOK_FUNCTIONS:
        return None
    if parts[-2] != "hooks" and "faults" not in parts[:-1]:
        return None
    if not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


class FaultSiteConsistencyRule(BaseRule):
    rule_id = "RPR002"
    title = "fault-site registry drift"
    explain = (
        "Every repro.faults.hooks call site (fire/should/sleep/mutate/"
        "nan_lanes/pick_lane/delay_duration) must name a site registered "
        "in FAULT_POINTS, and every registered site must be reachable "
        "from at least one call site — an unregistered name is a seam "
        "the campaign can never arm, and a registered-but-orphaned site "
        "is dead coverage the campaign falsely reports as a gate.  "
        "Origin: PR 6 built the 21-site registry exactly so that "
        "coverage accounting is trustworthy; this rule keeps the "
        "registry and the seams from drifting apart silently.")

    def check_project(self, project: Any) -> Iterator[Finding]:
        registry: Dict[str, Tuple[ModuleContext, ast.Call]] = {}
        for ctx in project.modules:
            parts = ctx.repro_parts
            if parts and parts[0] == "faults" and \
                    ctx.basename == "plan.py":
                for node in ast.walk(ctx.tree):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id == "FaultPoint"
                            and node.args
                            and isinstance(node.args[0], ast.Constant)
                            and isinstance(node.args[0].value, str)):
                        registry[node.args[0].value] = (ctx, node)
        if not registry:
            # No registry in the scanned tree (a partial scan): nothing
            # to reconcile against.
            return
        called: Dict[str, List[Tuple[ModuleContext, ast.Call]]] = {}
        for ctx in project.modules:
            parts = ctx.repro_parts
            if not parts or parts[0] == "faults":
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Call):
                    site = _is_hooks_call(ctx, node)
                    if site is not None:
                        called.setdefault(site, []).append((ctx, node))
        for site, uses in sorted(called.items()):
            if site not in registry:
                for ctx, node in uses:
                    yield self._finding(
                        ctx, node,
                        f"fault hook names unregistered site {site!r}; "
                        f"add a FaultPoint entry to FAULT_POINTS or fix "
                        f"the name")
        for site, (ctx, node) in sorted(registry.items()):
            if site not in called:
                yield self._finding(
                    ctx, node,
                    f"registered fault site {site!r} has no hook call "
                    f"site; delete the registration or wire the seam")


# ----------------------------------------------------------------------
# RPR004 — strict JSON in engine/serve payload paths.
# ----------------------------------------------------------------------
class StrictJsonRule(BaseRule):
    rule_id = "RPR004"
    title = "json encode without allow_nan=False"
    explain = (
        "Engine and serve payload paths must encode with "
        "allow_nan=False: Python's json module happily emits NaN/"
        "Infinity tokens, which are not JSON, poison cache records, and "
        "break strict peers.  Origin: PR 6's fault campaign forced "
        "strict encoding onto the serve wire after injected NaN lanes "
        "round-tripped into responses; this rule extends the contract "
        "to every json.dump/json.dumps under repro/engine/ and "
        "repro/serve/.")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_layer("engine", "serve"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call(node)
            if name not in ("json.dump", "json.dumps"):
                continue
            strict = any(
                kw.arg == "allow_nan"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords)
            if not strict:
                yield self._finding(
                    ctx, node,
                    f"{name}() in an engine/serve payload path must "
                    f"pass allow_nan=False (strict JSON, no NaN/"
                    f"Infinity tokens)")


# ----------------------------------------------------------------------
# RPR005 — tolerance-ledger discipline in tests/benchmarks.
# ----------------------------------------------------------------------
_TOLERANCE_KEYWORDS = frozenset({"rel", "abs", "rtol", "atol"})


def _numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp) and \
            isinstance(node.op, (ast.USub, ast.UAdd)):
        return _numeric_literal(node.operand)
    return False


class ToleranceLedgerRule(BaseRule):
    rule_id = "RPR005"
    title = "raw tolerance literal bypasses unit_tolerance()"
    explain = (
        "Test/benchmark modules routed through the tolerance ledger "
        "(they reference repro.verify.unit_tolerance) must route every "
        "rel=/abs=/rtol=/atol= bound through it — a raw float literal "
        "next to ledger lookups is an unaudited bound that silently "
        "escapes review when tolerances tighten.  Modules not yet "
        "adopted are out of scope (they are swept onto the ledger "
        "incrementally), but once a module touches the ledger it may "
        "not backslide.  Origin: PR 2's manual literal sweep, which "
        "this rule makes self-maintaining.")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        top = ctx.top_parts
        if not top or top[0] not in ("tests", "benchmarks"):
            return
        if "unit_tolerance" not in ctx.imports and \
                "unit_tolerance" not in ctx.source:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg in _TOLERANCE_KEYWORDS \
                        and _numeric_literal(kw.value):
                    yield self._finding(
                        ctx, kw.value,
                        f"raw tolerance literal {kw.arg}="
                        f"{ast.unparse(kw.value)} in a ledger-routed "
                        f"module; add a named entry to UNIT_TOLERANCES "
                        f"and call unit_tolerance()")


# ----------------------------------------------------------------------
# RPR006 — lock discipline in store/batcher/metrics.
# ----------------------------------------------------------------------
_LOCK_FILES = frozenset({"store.py", "batcher.py", "metrics.py"})


def _lock_with_items(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and "lock" in expr.attr.lower():
            return True
        if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
            return True
    return False


def _self_attr_target(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


class LockDisciplineRule(BaseRule):
    rule_id = "RPR006"
    title = "lock-guarded attribute accessed outside the lock"
    explain = (
        "In store.py/batcher.py/metrics.py, an instance attribute that "
        "is ever assigned under 'with self._lock' is part of that "
        "lock's protected state: reading or writing it from a method "
        "that holds no lock is a data race (torn counters, budget "
        "invariant violations under concurrent puts).  __init__ is "
        "exempt (no concurrent access before construction completes) "
        "and so are methods named *_locked — the stack's convention "
        "for helpers documented as called-with-lock-held.  Origin: "
        "PR 5's concurrent-writer stress tests exist because exactly "
        "this class of race promoted torn records.")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.basename not in _LOCK_FILES:
            return
        for cls in ctx.classes():
            yield from self._check_class(ctx, cls)

    def _check_class(self, ctx: ModuleContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [n for n in cls.body
                   if isinstance(n, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))]
        guarded: set = set()
        for method in methods:
            for node in ast.walk(method):
                if isinstance(node, ast.With) and _lock_with_items(node):
                    for inner in ast.walk(node):
                        guarded.update(self._assigned_attrs(inner))
        if not guarded:
            return
        for method in methods:
            if method.name in ("__init__", "__new__") or \
                    method.name.endswith("_locked"):
                continue
            locked_nodes = self._nodes_under_locks(method)
            for node in ast.walk(method):
                attr = None
                if isinstance(node, ast.Attribute):
                    attr = _self_attr_target(node)
                if attr is None or attr not in guarded:
                    continue
                if id(node) in locked_nodes:
                    continue
                access = ("written" if isinstance(node.ctx,
                                                  (ast.Store, ast.Del))
                          else "read")
                yield self._finding(
                    ctx, node,
                    f"self.{attr} is assigned under a lock elsewhere in "
                    f"{cls.name} but {access} here without one; hold "
                    f"the lock or move the access into a *_locked "
                    f"helper")

    @staticmethod
    def _assigned_attrs(node: ast.AST) -> Iterator[str]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _self_attr_target(target)
                if attr is not None:
                    yield attr
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            attr = _self_attr_target(node.target)
            if attr is not None:
                yield attr

    @staticmethod
    def _nodes_under_locks(method: ast.AST) -> set:
        covered: set = set()
        for node in ast.walk(method):
            if isinstance(node, ast.With) and _lock_with_items(node):
                for inner in ast.walk(node):
                    covered.add(id(inner))
        return covered


# ----------------------------------------------------------------------
# RPR007 — swallowed broad exceptions.
# ----------------------------------------------------------------------
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _is_broad(node: Optional[ast.AST]) -> bool:
    if node is None:
        return True  # bare except:
    if isinstance(node, ast.Name):
        return node.id in _BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(_is_broad(el) for el in node.elts)
    return False


def _body_only_passes(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


class SwallowedExceptionRule(BaseRule):
    rule_id = "RPR007"
    title = "broad exception silently swallowed"
    explain = (
        "A bare 'except:' or 'except Exception:' whose body is only "
        "'pass' erases the failure entirely — in the executor, harness "
        "and server accept loops this turned real faults (a dying "
        "drain task, a crashed leader) into silent hangs before the "
        "fault plane made them visible.  Narrow the exception type to "
        "what the seam actually expects, or record/route the failure.  "
        "Deliberate best-effort paths (interpreter teardown, best-"
        "effort close) carry a justified inline suppression instead.  "
        "Origin: PR 6, where a raising metrics hook silently killed "
        "the batcher drain task and orphaned every popped lane.")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node.type) and _body_only_passes(node.body):
                caught = ("bare except" if node.type is None
                          else f"except {ast.unparse(node.type)}")
                yield self._finding(
                    ctx, node,
                    f"{caught} with a pass-only body swallows every "
                    f"failure; narrow the type or handle/record the "
                    f"exception")


#: The shipped rule set, in catalog order.
ALL_RULES: Tuple[BaseRule, ...] = (
    BlockingCallInAsyncRule(),
    FaultSiteConsistencyRule(),
    StrictJsonRule(),
    ToleranceLedgerRule(),
    LockDisciplineRule(),
    SwallowedExceptionRule(),
)

#: Meta-findings the engine itself emits (suppression hygiene).
META_RULES: Dict[str, str] = {
    "RPR900": "malformed suppression comment (bad syntax or empty "
              "justification); the directive must read "
              "'# repro: ignore[RPRxxx] -- <justification>'",
    "RPR901": "unused suppression: the named rule does not fire on the "
              "suppressed line anymore; delete the stale directive",
}


def rule_by_id(rule_id: str) -> Optional[BaseRule]:
    for rule in ALL_RULES:
        if rule.rule_id == rule_id:
            return rule
    return None
