"""``repro-batch`` — the batch-evaluation command line.

Usage::

    repro-batch run manifest.json --jobs 4
    repro-batch run manifest.csv --out results.json
    repro-batch run manifest.json --no-cache
    repro-batch run manifest.json --store tiered
    repro-batch cache stats
    repro-batch cache clear

``run`` reads a JSON/CSV manifest of configurations (see
:mod:`repro.engine.manifest`), evaluates every job through the engine and
prints a results table followed by a metrics summary.  The table and the
``--out`` JSON file are deterministic: identical for any ``--jobs`` value
and for cached replays.  Wall times and cache accounting appear only in
the metrics footer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .executor import BatchExecutor, BatchReport
from .manifest import ManifestError, load_manifest
from .store import STORE_NAMES, DiskStore, make_store


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-batch",
        description="Parallel batch evaluation of delay/optimizer/"
                    "transient jobs with content-addressed caching.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="evaluate a JSON/CSV manifest of jobs")
    run_parser.add_argument("manifest", help="path to the job manifest")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes (1 = serial in-process)")
    run_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="result cache directory (default: "
                                 "$REPRO_CACHE_DIR or ./.repro-cache)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="evaluate everything, ignore the cache")
    run_parser.add_argument("--store", choices=STORE_NAMES, default="disk",
                            help="result store: disk (default) or tiered "
                                 "(a byte-budgeted memory LRU over disk)")
    run_parser.add_argument("--out", default=None, metavar="FILE",
                            help="write deterministic JSON results here")

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the result cache")
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="result cache directory")
    return parser


def _format_results_table(report: BatchReport) -> str:
    """Fixed-width, deterministic results table (one row per job)."""
    headers = ("#", "kind", "status", "result")
    rows: List[tuple] = []
    for index, outcome in enumerate(report.outcomes):
        if outcome.ok:
            assert outcome.result is not None
            detail = outcome.job.summary(outcome.result)
            status = "ok"
        else:
            detail = f"{outcome.error_type}: {outcome.error}"
            status = "FAILED"
        rows.append((str(index), outcome.job.kind, status, detail))
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths))
                 for row in rows)
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"repro-batch: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    try:
        job_specs = load_manifest(args.manifest)
    except ManifestError as exc:
        print(f"repro-batch: {exc}", file=sys.stderr)
        return 2

    cache = None if args.no_cache else make_store(args.store,
                                                  root=args.cache_dir)
    with BatchExecutor(jobs=args.jobs, cache=cache) as executor:
        report = executor.run(job_specs)

    print(_format_results_table(report))
    print()
    print(report.metrics.format_summary())
    if cache is not None:
        print(f"cache dir: {cache.root}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_payload(), handle, sort_keys=True,
                      indent=2, allow_nan=False)
            handle.write("\n")
        print(f"results written to {args.out}")
    return 0 if report.all_ok else 1


def _cache(args: argparse.Namespace) -> int:
    cache = DiskStore(args.cache_dir)
    if args.action == "stats":
        print(cache.stats().format_summary())
        print(f"cache dir: {cache.root}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached results from {cache.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _cache(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early — exit quietly.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
