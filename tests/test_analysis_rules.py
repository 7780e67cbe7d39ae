"""Fixture-snippet tests for every shipped repro-lint rule.

Each rule gets a positive case (the invariant violation fires on a
committed fixture tree), a negative case (the compliant idiom stays
clean), and a suppression case where the directive grammar interacts
with the rule.  Fixture sources live in string literals and are written
to per-test tmp trees, so the shipped test file itself never trips the
rules it exercises — asserted by the self-run test at the bottom.
"""

import textwrap

from repro.analysis.lint import LintEngine


def run_lint(root, files, paths=("src", "tests", "benchmarks")):
    """Write ``files`` (rel-path -> source) under ``root`` and lint."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    engine = LintEngine(root)
    return engine.run([p for p in paths if (root / p).exists()])


def rules_fired(report):
    return sorted({f.rule for f in report.findings})


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


# ----------------------------------------------------------------------
# RPR001 — blocking calls in async bodies under repro/serve/.
# ----------------------------------------------------------------------
_ASYNC_BLOCKING = """\
    import json
    import time

    async def handler(handle, cache, key, sock):
        raw = open(key).read()
        time.sleep(0.01)
        json.dump({}, handle)
        hit = cache.get(key)
        chunk = sock.recv(4096)
        return raw, hit, chunk
"""

_ASYNC_DEFERRED = """\
    async def handler(service, key):
        value = await service._store_call(lambda: open(key).read())

        def _write(handle, payload):
            import json
            json.dump(payload, handle)

        await service._store_call(lambda: _write(None, value))
        return value
"""


class TestRPR001:
    def test_fires_on_blocking_calls_in_async_serve(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/serve/service.py": _ASYNC_BLOCKING})
        hits = findings_for(report, "RPR001")
        assert len(hits) == 5
        messages = " ".join(f.message for f in hits)
        for needle in ("open()", "time.sleep()", "json.dump()",
                       "cache.get()", "sock.recv()"):
            assert needle in messages

    def test_deferred_thunks_are_exempt(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/serve/service.py": _ASYNC_DEFERRED})
        assert findings_for(report, "RPR001") == []

    def test_only_scopes_to_serve_layer(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/engine/worker.py": _ASYNC_BLOCKING})
        assert findings_for(report, "RPR001") == []

    def test_sync_functions_in_serve_are_exempt(self, tmp_path):
        sync = _ASYNC_BLOCKING.replace("async def", "def")
        report = run_lint(tmp_path, {
            "src/repro/serve/service.py": sync})
        assert findings_for(report, "RPR001") == []

    def test_trailing_suppression_moves_finding_to_suppressed(
            self, tmp_path):
        source = (
            "async def handler(key):\n"
            "    return open(key).read()  "
            "# repro: ignore[RPR001] -- fixture exemption\n")
        report = run_lint(tmp_path, {
            "src/repro/serve/service.py": source})
        assert findings_for(report, "RPR001") == []
        assert len(report.suppressed) == 1
        finding, justification = report.suppressed[0]
        assert finding.rule == "RPR001"
        assert justification == "fixture exemption"
        assert report.clean


# ----------------------------------------------------------------------
# RPR002 — fault-site registry consistency.
# ----------------------------------------------------------------------
_PLAN_TWO_SITES = """\
    class FaultPoint:
        def __init__(self, name, description, scenario, kind):
            self.name = name

    FAULT_POINTS = {
        p.name: p for p in (
            FaultPoint("cache.get.os_error", "d", "serve", "error"),
            FaultPoint("cache.put.orphaned", "d", "serve", "error"),
        )
    }
"""

_HOOK_CALLERS = """\
    from repro.faults import hooks

    def read_record(key):
        hooks.fire("cache.get.os_error")
        if hooks.should("cache.get.unregistered"):
            return None
        return key
"""


class TestRPR002:
    def test_unregistered_call_and_orphaned_registration(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/faults/plan.py": _PLAN_TWO_SITES,
            "src/repro/engine/cache.py": _HOOK_CALLERS})
        hits = findings_for(report, "RPR002")
        assert len(hits) == 2
        by_path = {f.path: f.message for f in hits}
        assert "unregistered site 'cache.get.unregistered'" in \
            by_path["src/repro/engine/cache.py"]
        assert "registered fault site 'cache.put.orphaned' has no " \
            "hook call site" in by_path["src/repro/faults/plan.py"]

    def test_consistent_registry_is_clean(self, tmp_path):
        callers = _HOOK_CALLERS.replace(
            'hooks.should("cache.get.unregistered")',
            'hooks.should("cache.put.orphaned")')
        report = run_lint(tmp_path, {
            "src/repro/faults/plan.py": _PLAN_TWO_SITES,
            "src/repro/engine/cache.py": callers})
        assert findings_for(report, "RPR002") == []

    def test_deleting_a_registration_fails_the_run(self, tmp_path):
        # The acceptance scenario: a fault site's registration is
        # deleted while its seam still fires — the run must fail.
        plan = _PLAN_TWO_SITES.replace(
            '            FaultPoint("cache.get.os_error", "d", "serve",'
            ' "error"),\n', "")
        callers = _HOOK_CALLERS.replace(
            'hooks.should("cache.get.unregistered")',
            'hooks.should("cache.put.orphaned")')
        report = run_lint(tmp_path, {
            "src/repro/faults/plan.py": plan,
            "src/repro/engine/cache.py": callers})
        hits = findings_for(report, "RPR002")
        assert len(hits) == 1
        assert "unregistered site 'cache.get.os_error'" in \
            hits[0].message
        assert report.exit_code == 1

    def test_no_registry_in_scanned_tree_is_a_no_op(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/engine/cache.py": _HOOK_CALLERS})
        assert findings_for(report, "RPR002") == []


# ----------------------------------------------------------------------
# RPR004 — strict JSON on engine/serve payload paths.
# ----------------------------------------------------------------------
_JSON_MIXED = """\
    import json

    def encode(payload):
        return json.dumps(payload, sort_keys=True)

    def encode_strict(payload):
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    def write(payload, handle):
        json.dump(payload, handle, allow_nan=False)
"""


class TestRPR004:
    def test_fires_only_on_lax_encodes_in_engine(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/engine/report.py": _JSON_MIXED})
        hits = findings_for(report, "RPR004")
        assert len(hits) == 1
        assert "allow_nan=False" in hits[0].message
        assert hits[0].line == 4

    def test_serve_layer_is_also_in_scope(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/serve/wire.py": _JSON_MIXED})
        assert len(findings_for(report, "RPR004")) == 1

    def test_other_layers_are_out_of_scope(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/verify/report.py": _JSON_MIXED})
        assert findings_for(report, "RPR004") == []


# ----------------------------------------------------------------------
# RPR005 — tolerance-ledger discipline.
# ----------------------------------------------------------------------
_LEDGER_ROUTED_TEST = """\
    from repro.verify import unit_tolerance

    def test_mixed(approx):
        assert approx(1.0, rel=1e-3)
        assert approx(1.0, rel=unit_tolerance("suite.case.rel"))
        assert approx(0.0, abs=-1e-9)
"""

_UNADOPTED_TEST = """\
    def test_legacy(approx):
        assert approx(1.0, rel=1e-3)
"""


class TestRPR005:
    def test_fires_on_raw_literals_in_ledger_routed_module(
            self, tmp_path):
        report = run_lint(tmp_path, {
            "tests/test_fixture_tol.py": _LEDGER_ROUTED_TEST})
        hits = findings_for(report, "RPR005")
        assert len(hits) == 2
        assert "rel=0.001" in hits[0].message
        assert "abs=-1e-09" in hits[1].message

    def test_unadopted_module_is_out_of_scope(self, tmp_path):
        report = run_lint(tmp_path, {
            "tests/test_fixture_legacy.py": _UNADOPTED_TEST})
        assert findings_for(report, "RPR005") == []

    def test_src_modules_are_out_of_scope(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/verify/checks.py": _LEDGER_ROUTED_TEST})
        assert findings_for(report, "RPR005") == []

    def test_benchmarks_are_in_scope(self, tmp_path):
        report = run_lint(tmp_path, {
            "benchmarks/bench_fixture.py": _LEDGER_ROUTED_TEST})
        assert len(findings_for(report, "RPR005")) == 2


# ----------------------------------------------------------------------
# RPR006 — lock discipline in store/batcher/metrics.
# ----------------------------------------------------------------------
_LOCKED_STORE = """\
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def put(self):
            with self._lock:
                self.count += 1

        def racy_read(self):
            return self.count

        def guarded_read(self):
            with self._lock:
                return self.count

        def _sweep_locked(self):
            return self.count
"""


class TestRPR006:
    def test_fires_on_unlocked_access_to_guarded_attribute(
            self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/engine/store.py": _LOCKED_STORE})
        hits = findings_for(report, "RPR006")
        assert len(hits) == 1
        assert "self.count" in hits[0].message
        assert "read here without one" in hits[0].message

    def test_init_and_locked_helpers_are_exempt(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/engine/store.py": _LOCKED_STORE})
        lines = {f.line for f in findings_for(report, "RPR006")}
        # Only racy_read's body line fires; __init__, guarded_read and
        # _sweep_locked contribute nothing.
        assert len(lines) == 1

    def test_only_scopes_to_lock_files(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/engine/journal.py": _LOCKED_STORE})
        assert findings_for(report, "RPR006") == []

    def test_class_without_locks_is_clean(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/engine/store.py": """\
                class Store:
                    def __init__(self):
                        self.count = 0

                    def bump(self):
                        self.count += 1
            """})
        assert findings_for(report, "RPR006") == []


# ----------------------------------------------------------------------
# RPR007 — swallowed broad exceptions.
# ----------------------------------------------------------------------
_SWALLOWS = """\
    def swallow_exception(op):
        try:
            op()
        except Exception:
            pass

    def swallow_bare(op):
        try:
            op()
        except:
            pass

    def swallow_in_tuple(op):
        try:
            op()
        except (OSError, Exception):
            pass

    def narrow_is_fine(op):
        try:
            op()
        except ValueError:
            pass

    def handled_is_fine(op, log):
        try:
            op()
        except Exception:
            log("op failed")
"""


class TestRPR007:
    def test_fires_on_pass_only_broad_handlers(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/engine/worker.py": _SWALLOWS})
        hits = findings_for(report, "RPR007")
        assert len(hits) == 3
        messages = [f.message for f in hits]
        assert any("except Exception" in m for m in messages)
        assert any("bare except" in m for m in messages)
        assert any("(OSError, Exception)" in m for m in messages)

    def test_standalone_suppression_targets_the_next_code_line(
            self, tmp_path):
        source = (
            "def f(op):\n"
            "    try:\n"
            "        op()\n"
            "    # repro: ignore[RPR007] -- teardown is best-effort\n"
            "    except Exception:\n"
            "        pass\n")
        report = run_lint(tmp_path, {
            "src/repro/engine/worker.py": source})
        assert findings_for(report, "RPR007") == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0][1] == "teardown is best-effort"


# ----------------------------------------------------------------------
# Suppression hygiene (RPR900/RPR901) against real rule firings.
# ----------------------------------------------------------------------
class TestSuppressionHygiene:
    def test_empty_justification_is_rpr900(self, tmp_path):
        source = (
            "def f(op):\n"
            "    try:\n"
            "        op()\n"
            "    except Exception:  # repro: ignore[RPR007] -- \n"
            "        pass\n")
        report = run_lint(tmp_path, {
            "src/repro/engine/worker.py": source})
        hits = findings_for(report, "RPR900")
        assert len(hits) == 1
        assert "empty justification" in hits[0].message
        # The underlying finding still fires: a malformed directive
        # never suppresses.
        assert len(findings_for(report, "RPR007")) == 1

    def test_malformed_directive_is_rpr900(self, tmp_path):
        source = (
            "def f(op):\n"
            "    try:\n"
            "        op()\n"
            "    except Exception:  # repro: ignore RPR007 no brackets\n"
            "        pass\n")
        report = run_lint(tmp_path, {
            "src/repro/engine/worker.py": source})
        hits = findings_for(report, "RPR900")
        assert len(hits) == 1
        assert "malformed suppression" in hits[0].message

    def test_unused_suppression_is_rpr901(self, tmp_path):
        source = (
            "def f(op):\n"
            "    return op()  "
            "# repro: ignore[RPR007] -- nothing fires here\n")
        report = run_lint(tmp_path, {
            "src/repro/engine/worker.py": source})
        hits = findings_for(report, "RPR901")
        assert len(hits) == 1
        assert "unused" in hits[0].message
        assert not report.clean

    def test_multi_rule_directive_covers_both(self, tmp_path):
        source = (
            "import json\n"
            "async def handler(handle):\n"
            "    json.dump({}, handle)  "
            "# repro: ignore[RPR001, RPR004] -- fixture exemption\n")
        report = run_lint(tmp_path, {
            "src/repro/serve/service.py": source})
        assert findings_for(report, "RPR001") == []
        assert findings_for(report, "RPR004") == []
        assert len(report.suppressed) == 2
        assert report.clean


# ----------------------------------------------------------------------
# The shipped tree must pass its own gate.
# ----------------------------------------------------------------------
class TestSelfRun:
    def test_repo_is_clean_under_its_own_rules(self, repo_root):
        engine = LintEngine(repo_root)
        report = engine.run(
            [p for p in ("src", "tests", "benchmarks")
             if (repo_root / p).exists()])
        assert report.parse_errors == []
        assert report.findings == [], report.format_text()
        assert report.clean and report.exit_code == 0
        # Every deliberate exemption is a justified inline suppression,
        # not a baseline entry.
        assert report.baseline_consumed == 0
        for finding, justification in report.suppressed:
            assert justification.strip()
