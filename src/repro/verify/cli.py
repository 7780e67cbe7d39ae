"""``repro-verify`` — the verification command line.

Usage::

    repro-verify run                     # differential sweep, default matrix
    repro-verify run --jobs 4 --out discrepancy-report.json
    repro-verify run --oracles two_pole,elmore,talbot
    repro-verify diff                    # bitwise compare against golden
    repro-verify bless                   # (re)write the golden fixtures

``run`` sweeps the case matrix, scores every ledger pair and prints the
check table; exit 1 on any violated bound.  ``diff`` re-evaluates the
matrix and compares each observation bitwise against the committed golden
store; exit 1 on any missing or changed fixture.  ``bless`` rewrites the
fixtures from the current code — do this only after reviewing *why* the
numbers moved.

``repro-verify`` never caches: the engine store salts its keys with a
digest of the ``repro`` source only, so a warm cache would replay
observations across numpy/scipy upgrades — exactly the drift this tool
exists to catch.  Every run evaluates the whole matrix afresh.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from ..engine.executor import BatchExecutor
from .cases import VerifyCase, default_case_matrix, load_case_matrix
from .differential import evaluate_matrix, run_differential
from .golden import GoldenStore
from .oracles import DelayObservation, oracle_names
from .tolerances import DEFAULT_LEDGER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Differential-oracle verification: sweep the case "
                    "matrix, compare delay oracles pairwise and against "
                    "golden fixtures.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--matrix", default=None, metavar="FILE",
                         help="JSON case matrix (default: built-in matrix)")
        sub.add_argument("--oracles", default=None, metavar="NAMES",
                         help="comma-separated oracle names "
                              f"(default: all of {','.join(oracle_names())})")
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (1 = serial in-process)")

    run_parser = subparsers.add_parser(
        "run", help="differential sweep against the tolerance ledger")
    add_common(run_parser)
    run_parser.add_argument("--out", default=None, metavar="FILE",
                            help="write the JSON discrepancy report here")
    run_parser.add_argument("--all", action="store_true",
                            help="print every check, not just violations")

    diff_parser = subparsers.add_parser(
        "diff", help="bitwise compare oracle outputs against the golden "
                     "fixtures")
    add_common(diff_parser)
    diff_parser.add_argument("--golden", default=None, metavar="FILE",
                             help="golden store path (default: the "
                                  "committed store)")

    bless_parser = subparsers.add_parser(
        "bless", help="rewrite the golden fixtures from the current code")
    add_common(bless_parser)
    bless_parser.add_argument("--golden", default=None, metavar="FILE",
                              help="golden store path (default: the "
                                   "committed store)")
    return parser


def _setup(args: argparse.Namespace
           ) -> Tuple[List[VerifyCase], List[str], BatchExecutor]:
    """Resolve the (cases, oracle names, executor) triple from flags."""
    if args.jobs < 1:
        raise SystemExit(f"repro-verify: --jobs must be >= 1, "
                         f"got {args.jobs}")
    cases = (load_case_matrix(args.matrix) if args.matrix
             else default_case_matrix())
    if args.oracles:
        names = [n.strip() for n in args.oracles.split(",") if n.strip()]
        unknown = [n for n in names if n not in oracle_names()]
        if unknown:
            raise SystemExit(
                f"repro-verify: unknown oracle(s) {', '.join(unknown)}; "
                f"known: {', '.join(oracle_names())}")
    else:
        names = oracle_names()
    return cases, names, BatchExecutor(jobs=args.jobs)


def _observation_pairs(cases: List[VerifyCase], names: List[str],
                       executor: BatchExecutor
                       ) -> List[Tuple[VerifyCase, DelayObservation]]:
    """Evaluate the matrix and pair each observation with its case.

    Evaluation *failures* are fatal here (unlike the differential sweep,
    which records them as skips): a golden diff or bless over a partial
    observation set would silently narrow coverage.
    """
    observations, skipped = evaluate_matrix(cases, names, executor=executor)
    failures = [s for s in skipped if s.reason.startswith("evaluation failed")]
    if failures:
        for skip in failures:
            print(f"repro-verify: {skip.case_id} [{skip.subject}]: "
                  f"{skip.reason}", file=sys.stderr)
        raise SystemExit(2)
    return [(cases[index], observation)
            for (index, name), observation in sorted(
                observations.items(), key=lambda item: item[0])]


def _run(args: argparse.Namespace) -> int:
    cases, names, executor = _setup(args)
    with executor:
        report = run_differential(cases, oracles=names,
                                  ledger=DEFAULT_LEDGER, executor=executor)
    print(report.format_table(only_violations=not args.all))
    print()
    print(f"{report.n_cases} cases, {len(report.checks)} checks, "
          f"{len(report.violations)} violations, "
          f"{len(report.skipped)} skipped")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_payload(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def _diff(args: argparse.Namespace) -> int:
    cases, names, executor = _setup(args)
    store = GoldenStore(args.golden)
    with executor:
        mismatches = store.diff(_observation_pairs(cases, names, executor))
    if not mismatches:
        print(f"golden: all observations match {store.path}")
        return 0
    for mismatch in mismatches:
        print(f"golden {mismatch.kind}: {mismatch.case_id} "
              f"[{mismatch.oracle}] — {mismatch.detail}")
    print(f"\n{len(mismatches)} golden mismatch(es) against {store.path}")
    return 1


def _bless(args: argparse.Namespace) -> int:
    cases, names, executor = _setup(args)
    store = GoldenStore(args.golden)
    with executor:
        total = store.bless(_observation_pairs(cases, names, executor))
    print(f"blessed: {store.path} now holds {total} fixtures")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        if args.command == "diff":
            return _diff(args)
        return _bless(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
