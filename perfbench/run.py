"""The repository benchmark: one command, every metric with its unit.

Usage::

    python3 perfbench/run.py --workload serve_delay --seed 1 --seconds 10
    python3 perfbench/run.py --seed 1 --out results.jsonl   # every workload
    python3 perfbench/run.py --workload batch_manifest --trace 1
    python3 perfbench/run.py --smoke                        # ~1/20 scale
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
    python3 perfbench/run.py --summarize RESULTS.jsonl

``BENCHMARK.json`` at the repository root names the workloads, the
end-to-end metrics with their bounds, and the per-layer metrics.  Each
workload runs in fresh child processes, one at a time, with a pinned
environment (:data:`PINNED_ENV`); children see only the inputs generated
here from ``--seed``, and check their own outputs after timing.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric, or with ``--trace
1`` every per-layer metric, as ``{"value": ..., "unit": ...}``).  The
exit code is 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run (no result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

#: Environment every child runs under.  One BLAS thread: on a 2-core box
#: OpenBLAS's default two threads make the MNA transients slower (fig11
#: --fast 24.7-25.5 s against 22.2 s) and move transient results in the
#: last digits.  A fixed hash seed keeps set and dict orders repeatable.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

#: Wall-clock budget of one workload; runs must end well inside 180 s.
WORKLOAD_DEADLINE_S = 170.0


class HarnessError(Exception):
    """The benchmark could not run (not a failed correctness check)."""


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Spawner:
    """Runs child processes one at a time and collects their results."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = child_env()

    def __call__(self, role: str, *, trace: bool = False,
                 setup_only: bool = False, **fields: Any) -> Dict[str, Any]:
        self.count += 1
        spec_path = self.workdir / f"child{self.count}.spec.json"
        result_path = self.workdir / f"child{self.count}.result.json"
        spec = {"role": role, "trace": trace, "setup_only": setup_only,
                "result": str(result_path), **fields}
        spec_path.write_text(json.dumps(spec))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("time budget exhausted")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path), repr(spawned)],
            env=self.env, cwd=self.workdir, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{role} child exceeded the time budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise HarnessError(f"{role} child exited with code {code}")
        result = json.loads(result_path.read_text())
        result["role"] = role
        return result


def commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(workload: Any, benchmark: Dict[str, Any], *, seed: int,
                 seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """One run of one workload: inputs, children, checks, metrics."""
    from layers import per_layer_metrics
    from stats import percentile
    from tracing import chrome_trace, merge
    from workloads import SETUP_SAMPLES

    workdir = OUT / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spawn = Spawner(workdir, time.monotonic() + WORKLOAD_DEADLINE_S)
        plan = workload.plan(seconds, smoke)
        inputs = workload.inputs(seed, plan, workdir)
        # Discarded: fills the OS page cache and the bytecode caches.
        spawn(workload.role, setup_only=True, plan=plan, **inputs)
        base = workload.execute(spawn, plan, inputs, False, workdir)
        traced = (workload.execute(spawn, plan, inputs, True, workdir)
                  if trace else [])
        main = [r for r in base if r["role"] == workload.role]
        setup = [r["ready_s"] for r in main]
        while not trace and len(setup) < (2 if smoke else SETUP_SAMPLES):
            setup.append(spawn(workload.role, setup_only=True, plan=plan,
                               **inputs)["ready_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, details, attempted, failed = workload.end_to_end(base)
    e2e["setup_s"] = statistics.median(setup)
    e2e["peak_rss_mb"] = max(r["rss_mb"] for r in main)
    details["setup_s"] = setup
    checks = [c for r in base + traced for c in r.get("checks", [])]
    metrics = e2e
    declared = benchmark["end_to_end"]
    if trace:
        traced_e2e, _, traced_attempted, traced_failed = \
            workload.end_to_end(traced)
        attempted += traced_attempted
        failed += traced_failed
        merged = merge([r["trace"] for r in traced if r.get("trace")])
        serve = [r for r in traced if "late" in r]
        waits = serve[0]["dispatch_wait_ms"] if serve else {}
        metrics = per_layer_metrics(merged, {
            "gen_late_p99_ms": (percentile(serve[0]["late"], 99) * 1e3
                                if serve else 0.0),
            "cpu_s": sum(r.get("cpu_s", 0.0) for r in traced),
            "overhead_frac": (e2e["throughput_per_s"]
                              / traced_e2e["throughput_per_s"] - 1.0),
            "dispatch_wait_p50_ms": waits.get("p50", 0.0),
            "dispatch_wait_p95_ms": waits.get("p95", 0.0)})
        details["untraced"] = e2e
        details["traced"] = traced_e2e
        details["missing_targets"] = merged["missing"]
        trace_path = OUT / f"trace-{workload.name}.json"
        trace_path.write_text(json.dumps(chrome_trace(merged,
                                                      workload.name)))
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        declared = benchmark["per_layer"]

    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise HarnessError(f"{workload.name}: measured metrics "
                           f"{sorted(set(metrics) ^ set(names))} do not "
                           f"match BENCHMARK.json")
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "commit": commit(),
            "nproc": nproc(), "python": sys.version.split()[0],
            "env": PINNED_ENV, "correct": not checks and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in declared},
            "details": details, "checks": checks}


def print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name:16s} {metric:44s} {entry['value']:14.6g} "
              f"{entry['unit']}")
    print(f"{name:16s} attempted {record['attempted']}, failed "
          f"{record['failed']}, correct {record['correct']}")
    details = {k: v for k, v in record["details"].items()
               if not isinstance(v, list) or len(v) <= 12}
    print(f"{name:16s} details {json.dumps(details, default=str)}")
    for failure in record["checks"][:20]:
        print(f"{name:16s} CHECK FAILED: {failure}")


def final_line(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": entry
                   for r in records for name, entry in r["metrics"].items()}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


# ----------------------------------------------------------------------
# --compare / --summarize over result files written with --out.
# ----------------------------------------------------------------------
def read_records(path: str) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def _series(records, workload: str, smoke: bool, metric: str) -> List[tuple]:
    return [(r["seed"], r["metrics"][metric]["value"]) for r in records
            if r["workload"] == workload and r["smoke"] == smoke
            and metric in r["metrics"]]


def compare(base_path: str, new_path: str,
            benchmark: Dict[str, Any]) -> int:
    """Judge NEW against BASE per workload and metric (see
    :func:`stats.verdict`); exit 1 when any metric regressed."""
    from stats import verdict

    base, new = read_records(base_path), read_records(new_path)
    specs = {m["name"]: m for m in benchmark["end_to_end"]
             + benchmark["per_layer"]}
    regressions = 0
    groups = sorted({(r["workload"], r["smoke"]) for r in base}
                    & {(r["workload"], r["smoke"]) for r in new})
    for workload, smoke in groups:
        print(f"== {workload}{' (smoke)' if smoke else ''}")
        print(f"  {'metric':44s} {'base median [q1, q3] n':>34s} "
              f"{'new median [q1, q3] n':>34s} {'change':>8s} "
              f"{'wins':>7s} verdict")
        for name, spec in specs.items():
            b = _series(base, workload, smoke, name)
            n = _series(new, workload, smoke, name)
            if not b or not n:
                continue
            by_seed: Dict[Any, List[float]] = {}
            for seed, value in b:
                by_seed.setdefault(seed, []).append(value)
            pairs = []
            for seed, value in n:
                if by_seed.get(seed):
                    pairs.append((by_seed[seed].pop(0), value))
            v = verdict([x for _, x in b], [x for _, x in n],
                        spec["better"], spec.get("bound"), pairs)
            regressions += v["verdict"] == "regression"

            def side(s):
                return (f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                        f"{s['n']}")
            print(f"  {name:44s} {side(v['base']):>34s} "
                  f"{side(v['new']):>34s} {v['change']:+8.1%} "
                  f"{v['wins']:>3d}/{v['pairs']:<3d} {v['verdict']}")
    return 1 if regressions else 0


def summarize(path: str) -> int:
    """The trajectory point of a results file: median/q1/q3/n per
    workload and metric, with the commit, nproc, seeds and environment."""
    from stats import summary

    records = read_records(path)
    point: Dict[str, Any] = {
        "commit": sorted({r["commit"] for r in records} - {None}),
        "nproc": sorted({r["nproc"] for r in records}),
        "seeds": sorted({r["seed"] for r in records}),
        "env": PINNED_ENV, "workloads": {}}
    for r in records:
        for name, entry in r["metrics"].items():
            point["workloads"].setdefault(r["workload"], {}).setdefault(
                name, {"unit": entry["unit"], "values": []}
            )["values"].append(entry["value"])
    for metrics in point["workloads"].values():
        for name, entry in metrics.items():
            metrics[name] = {"unit": entry["unit"],
                             **summary(entry.pop("values"))}
    print(json.dumps(point, indent=1))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see BENCHMARK.json).")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json, 1 with "
                             "--smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report the per-layer metrics of a traced "
                             "run, write Chrome traces under perfbench/out")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about 1/20 scale")
    parser.add_argument("--out", metavar="FILE",
                        help="append one JSON record per workload run")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="judge two --out files against the bounds")
    parser.add_argument("--summarize", metavar="FILE",
                        help="print median/q1/q3/n of an --out file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, benchmark)
    if args.summarize:
        return summarize(args.summarize)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program to measure: {ROOT / 'src/repro'} "
                           f"is missing")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = args.workload or ["all"]
    if "all" in names:
        names = list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise HarnessError(f"unknown workload(s) {unknown}; known: "
                           f"{', '.join(WORKLOADS)}")
    seconds = args.seconds or (1.0 if args.smoke
                               else benchmark["run_seconds"])
    OUT.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        record = run_workload(WORKLOADS[name], benchmark, seed=args.seed,
                              seconds=seconds, trace=bool(args.trace),
                              smoke=args.smoke)
        print_record(record)
        records.append(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    result = final_line(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
