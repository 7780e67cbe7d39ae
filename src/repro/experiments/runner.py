"""Command-line runner for the paper-artifact experiments.

Usage::

    repro-experiments list
    repro-experiments run fig7 fig8
    repro-experiments run all --fast
    repro-experiments run fig11 --out results.txt
    repro-experiments run all --fast --jobs 4 --cache

``--fast`` shrinks sweeps/segment counts so the full suite finishes in a
couple of minutes; the default settings match the paper's resolution.

Every experiment is submitted through the batch engine
(:mod:`repro.engine`) as one ``ExperimentJob``.  ``--jobs 1`` (the
default) evaluates serially in-process (identical behaviour to calling
the experiment functions directly); ``--jobs N`` fans the requested
experiments out over N worker processes and ``--cache`` replays
previously computed experiments from the content-addressed result cache.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Iterable

from ..engine.executor import BatchExecutor
from ..engine.store import DiskStore
from ..engine.jobs import ExperimentJob
from .base import DESCRIPTIONS, ExperimentResult, all_experiment_ids

#: Reduced-cost keyword overrides per experiment for --fast runs.
FAST_OVERRIDES = {
    "table1": {"simulate": False},
    "fig4": {"points": 11},
    "fig5": {"points": 11},
    "fig6": {"points": 11},
    "fig7": {"points": 11},
    "fig8": {"points": 11},
    "fig9_10": {"period_budget": 10.0, "steps_per_period": 500},
    "fig11": {"l_values": (1.0, 1.8, 2.2, 3.0), "period_budget": 10.0,
              "steps_per_period": 500},
    "fig12": {"l_values": (0.5, 1.5, 2.5), "period_budget": 10.0,
              "steps_per_period": 500},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of Banerjee & Mehrotra, "
                    "DAC 2001.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument("ids", nargs="+",
                            help="experiment ids, or 'all'")
    run_parser.add_argument("--fast", action="store_true",
                            help="reduced sweeps for a quick pass")
    run_parser.add_argument("--out", default=None,
                            help="also write reports to this file")
    run_parser.add_argument("--append", action="store_true",
                            help="append to --out instead of overwriting")
    run_parser.add_argument("--csv-dir", default=None,
                            help="write each experiment's table as "
                                 "<id>.csv into this directory")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes for the batch engine "
                                 "(1 = serial in-process)")
    run_parser.add_argument("--cache", action="store_true",
                            help="replay results from the engine's "
                                 "content-addressed cache when possible")
    run_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="cache directory (with --cache; default: "
                                 "$REPRO_CACHE_DIR or ./.repro-cache)")
    return parser


def resolve_ids(requested: Iterable[str]) -> list[str]:
    """Expand 'all' and validate the requested experiment ids."""
    available = all_experiment_ids()
    ids: list[str] = []
    for item in requested:
        if item == "all":
            ids.extend(available)
        elif item in available:
            ids.append(item)
        else:
            raise SystemExit(
                f"unknown experiment {item!r}; available: "
                f"{', '.join(available)}")
    # De-duplicate, keep order.
    seen = set()
    return [i for i in ids if not (i in seen or seen.add(i))]


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in all_experiment_ids():
            print(f"{experiment_id:10s} {DESCRIPTIONS[experiment_id]}")
        return 0

    if args.jobs < 1:
        raise SystemExit(f"repro-experiments: --jobs must be >= 1, "
                         f"got {args.jobs}")
    ids = resolve_ids(args.ids)
    job_specs = []
    for experiment_id in ids:
        kwargs = FAST_OVERRIDES.get(experiment_id, {}) if args.fast else {}
        job_specs.append(ExperimentJob.create(experiment_id, **kwargs))

    cache = DiskStore(args.cache_dir) if args.cache else None
    start = time.perf_counter()
    with BatchExecutor(jobs=args.jobs, cache=cache) as executor:
        batch = executor.run(job_specs)

    reports = []
    failed = []
    for experiment_id, outcome in zip(ids, batch):
        if not outcome.ok:
            failed.append(experiment_id)
            print(f"== {experiment_id}: FAILED ==\n"
                  f"{outcome.error_type}: {outcome.error}")
            print()
            continue
        result = ExperimentResult.from_payload(outcome.result)
        stamp = ("cached" if outcome.from_cache
                 else f"{outcome.wall_time:.1f}s")
        report = result.format_report() + f"\n[{stamp}]"
        print(report)
        print()
        reports.append(report)
        if args.csv_dir:
            from .export import write_csv
            os.makedirs(args.csv_dir, exist_ok=True)
            write_csv(result, os.path.join(args.csv_dir,
                                           f"{experiment_id}.csv"))

    if len(ids) > 1 or failed:
        metrics = batch.metrics
        metrics.wall_time = time.perf_counter() - start
        print(metrics.format_summary())
    if args.out and reports:
        mode = "a" if args.append else "w"
        with open(args.out, mode, encoding="utf-8") as handle:
            handle.write("\n\n".join(reports) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
