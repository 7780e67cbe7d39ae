"""CLI tests for ``repro-lint``: exit codes, JSON shape, baselines
and rule explanations.

All runs go through :func:`repro.analysis.lint.cli.main` with explicit
``--root`` tmp trees, so nothing here depends on the invoking shell's
working directory.
"""

import json
import textwrap

from repro.analysis.lint import META_RULES, load_baseline
from repro.analysis.lint.cli import main


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


_CLEAN_TREE = {
    "src/repro/engine/report.py": """\
        import json

        def encode(payload):
            return json.dumps(payload, allow_nan=False)
    """,
}

_DIRTY_TREE = {
    "src/repro/engine/report.py": """\
        import json

        def encode(payload):
            return json.dumps(payload)

        def swallow(op):
            try:
                op()
            except Exception:
                pass
    """,
}


class TestRunExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, _CLEAN_TREE)
        code = main(["run", "--root", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        write_tree(tmp_path, _DIRTY_TREE)
        code = main(["run", "--root", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR004" in out and "RPR007" in out

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, _CLEAN_TREE)
        bad = tmp_path / "baseline.json"
        bad.write_text('{"not": "a baseline"}', encoding="utf-8")
        code = main(["run", "--root", str(tmp_path),
                     "--baseline", str(bad)])
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "src/repro/engine/broken.py": "def broken(:\n"})
        code = main(["run", "--root", str(tmp_path)])
        assert code == 1
        assert "ERROR parse" in capsys.readouterr().out


class TestJsonReport:
    def test_json_shape(self, tmp_path, capsys):
        write_tree(tmp_path, _DIRTY_TREE)
        code = main(["run", "--root", str(tmp_path),
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert payload["clean"] is False
        assert payload["exit_code"] == 1
        assert payload["files_scanned"] == 1
        assert payload["summary"]["error"] == len(payload["findings"])
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "severity", "path", "line",
                                    "col", "message", "fingerprint"}
            assert finding["severity"] == "error"
        assert {f["rule"] for f in payload["findings"]} == \
            {"RPR004", "RPR007"}

    def test_out_writes_artifact_file(self, tmp_path, capsys):
        write_tree(tmp_path, _DIRTY_TREE)
        out = tmp_path / "lint-report.json"
        code = main(["run", "--root", str(tmp_path),
                     "--out", str(out)])
        assert code == 1
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["tool"] == "repro-lint"
        assert payload["findings"]

    def test_suppressed_findings_carry_justifications(
            self, tmp_path, capsys):
        write_tree(tmp_path, {
            "src/repro/engine/report.py": """\
                import json

                def encode(payload):
                    # repro: ignore[RPR004] -- fixture: lax on purpose
                    return json.dumps(payload)
            """})
        code = main(["run", "--root", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["suppressed"] == 1
        assert payload["suppressed"][0]["justification"] == \
            "fixture: lax on purpose"

    def test_malformed_suppression_fails_the_run(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "src/repro/engine/report.py": """\
                import json

                def encode(payload):
                    # repro: ignore[RPR004] --
                    return json.dumps(payload)
            """})
        code = main(["run", "--root", str(tmp_path),
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in payload["findings"]}
        # The empty justification is RPR900 AND the unsuppressed RPR004
        # still counts.
        assert rules == {"RPR900", "RPR004"}


class TestBaselineFlow:
    def test_record_then_consume(self, tmp_path, capsys):
        write_tree(tmp_path, _DIRTY_TREE)
        base = tmp_path / "baseline.json"
        assert main(["baseline", "--root", str(tmp_path),
                     "--out", str(base)]) == 0
        recorded = load_baseline(base)
        assert sum(recorded.values()) == 2
        capsys.readouterr()
        code = main(["run", "--root", str(tmp_path),
                     "--baseline", str(base), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["baseline_consumed"] == 2

    def test_new_finding_escapes_the_baseline(self, tmp_path, capsys):
        write_tree(tmp_path, _DIRTY_TREE)
        base = tmp_path / "baseline.json"
        main(["baseline", "--root", str(tmp_path), "--out", str(base)])
        capsys.readouterr()
        write_tree(tmp_path, {
            "src/repro/engine/extra.py": """\
                import json

                def encode_more(payload):
                    return json.dumps(payload, indent=2)
            """})
        code = main(["run", "--root", str(tmp_path),
                     "--baseline", str(base), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["findings"]) == 1
        assert payload["findings"][0]["path"] == \
            "src/repro/engine/extra.py"

    def test_baseline_without_flags_is_usage_error(
            self, tmp_path, capsys):
        write_tree(tmp_path, _CLEAN_TREE)
        code = main(["baseline", "--root", str(tmp_path)])
        assert code == 2
        assert "nothing to do" in capsys.readouterr().err


class TestExplain:
    def test_explains_every_shipped_rule(self, capsys):
        for rule_id in ("RPR001", "RPR002", "RPR004", "RPR005",
                        "RPR006", "RPR007"):
            assert main(["explain", rule_id]) == 0
            out = capsys.readouterr().out
            assert rule_id in out and "Origin" in out

    def test_explains_meta_rules(self, capsys):
        for rule_id in META_RULES:
            assert main(["explain", rule_id]) == 0
            assert rule_id in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["explain", "RPR999"]) == 2
        assert "unknown rule" in capsys.readouterr().err
