"""``repro-lint`` — the static invariant gate of the stack.

Subcommands
-----------
``run``
    Lint the tree (default paths: ``src tests benchmarks``).  Exit 0
    when clean, 1 on findings (or parse failures), 2 on usage errors.
    ``--format json`` emits the full machine-readable report (the CI
    artifact); ``--baseline FILE`` grandfathers recorded findings.
``baseline``
    Record the current findings into a baseline file (``--out FILE``).
``explain``
    Print a rule's full invariant text (what it enforces and which
    regression it descends from).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import load_baseline, save_baseline
from .engine import LintEngine
from .rules import ALL_RULES, META_RULES, rule_by_id

DEFAULT_PATHS = ("src", "tests", "benchmarks")

#: Exit codes: clean / findings / usage-or-internal error.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant lint for the repro stack")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="lint the tree and report findings")
    run.add_argument("paths", nargs="*", default=None,
                     help="files or directories relative to --root "
                          "(default: src tests benchmarks)")
    run.add_argument("--root", default=".",
                     help="project root (default: current directory)")
    run.add_argument("--format", choices=("text", "json"),
                     default="text", help="report format")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="also write the JSON report to FILE")
    run.add_argument("--baseline", default=None, metavar="FILE",
                     help="grandfather findings recorded in FILE")

    base = sub.add_parser(
        "baseline", help="record current findings into a baseline file")
    base.add_argument("paths", nargs="*", default=None)
    base.add_argument("--root", default=".")
    base.add_argument("--out", default=None, metavar="FILE",
                      help="write a baseline of current findings to "
                           "FILE")

    explain = sub.add_parser(
        "explain", help="print what a rule enforces and why")
    explain.add_argument("rule", help="rule id, e.g. RPR004")
    return parser


def _resolve_paths(args: argparse.Namespace) -> List[str]:
    if args.paths:
        return list(args.paths)
    root = Path(args.root)
    return [p for p in DEFAULT_PATHS if (root / p).exists()]


def _cmd_run(args: argparse.Namespace) -> int:
    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(Path(args.baseline))
        except (OSError, ValueError) as exc:
            print(f"repro-lint: cannot read baseline: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    engine = LintEngine(args.root)
    report = engine.run(_resolve_paths(args), baseline=baseline)
    payload = report.to_payload()
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True,
                       allow_nan=False) + "\n", encoding="utf-8")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True,
                         allow_nan=False))
    else:
        print(report.format_text())
    return report.exit_code


def _cmd_baseline(args: argparse.Namespace) -> int:
    if args.out is None:
        print("repro-lint baseline: nothing to do; pass --out FILE",
              file=sys.stderr)
        return EXIT_USAGE
    engine = LintEngine(args.root)
    report = engine.run(_resolve_paths(args))
    save_baseline(Path(args.out), report.findings)
    print(f"baseline written: {args.out} "
          f"({len(report.findings)} findings recorded)")
    return EXIT_CLEAN


def _cmd_explain(args: argparse.Namespace) -> int:
    rule = rule_by_id(args.rule)
    if rule is not None:
        print(f"{rule.rule_id} [{rule.severity}] {rule.title}\n")
        print(rule.explain)
        return EXIT_CLEAN
    if args.rule in META_RULES:
        print(f"{args.rule} [error] suppression hygiene\n")
        print(META_RULES[args.rule])
        return EXIT_CLEAN
    known = ", ".join([r.rule_id for r in ALL_RULES]
                      + sorted(META_RULES))
    print(f"repro-lint: unknown rule {args.rule!r}; known: {known}",
          file=sys.stderr)
    return EXIT_USAGE


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "baseline":
        return _cmd_baseline(args)
    return _cmd_explain(args)


if __name__ == "__main__":
    sys.exit(main())
