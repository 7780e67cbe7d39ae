"""The benchmark's workloads: plans, seeded inputs, processes, metrics.

Every workload reports the same end-to-end metrics (``BENCHMARK.json``);
what one *operation* is differs:

* ``experiments_fast`` — one operation is a whole fast reproduction, the
  ``BatchExecutor(jobs=1).run(jobs)`` call behind ``repro-experiments run
  ... --fast``, in a fresh process;
* ``serve_delay`` / ``serve_optimize`` — one operation is one request
  into ``ReproService.handle``: latency from open-loop segments at a
  fixed rate (timed from each request's due time), throughput from
  bursts that saturate the service;
* ``batch_manifest`` — one operation is one ``repro-batch run`` pass
  over a manifest, each pass in a fresh process.

The machines this runs on change speed by tens of percent for tens of
seconds at a time, so every workload spreads its samples over the whole
measured window and reports medians: serve runs alternate paced
segments with bursts, and passes repeat until the window is used.  The
p99 tail (:func:`stats.p99_or_max`) is reported in each record's
details, not gated: on such a machine it moves with every collector
pause.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List

import reference
from stats import p99_or_max, percentile

#: Fresh processes whose set-up time is sampled per run (``setup_s``).
SETUP_SAMPLES = 5

NODES = ("100nm", "250nm")


def _fits(start: float, last: float, seconds: float) -> bool:
    """Whether another unit of ``last`` seconds ends inside the window."""
    return time.monotonic() - start + last <= seconds


# ----------------------------------------------------------------------
class Experiments:
    """The fast paper reproduction through the batch engine.

    Inputs are fixed: the job list is frozen in
    ``reference/experiments_fast.json`` and the seed does not affect it.
    """

    name = "experiments_fast"
    role = "experiments"

    def plan(self, seconds: float, smoke: bool) -> Dict[str, Any]:
        jobs = reference.load(self.name)["jobs"]
        if smoke:
            # The ring-oscillator transient alone takes ~20 s.
            jobs = [job for job in jobs if job[0] != "fig11"]
        return {"jobs": jobs, "seconds": seconds}

    def inputs(self, seed, plan, workdir) -> Dict[str, Any]:
        return {}

    def execute(self, spawn: Callable, plan, inputs, trace: bool,
                workdir: Path) -> List[Dict[str, Any]]:
        results: List[Dict[str, Any]] = []
        start = last = time.monotonic()
        while not results or _fits(start, time.monotonic() - last,
                                   plan["seconds"]):
            last = time.monotonic()
            results.append(spawn(self.role, trace=trace, plan=plan))
        return results

    def end_to_end(self, results) -> tuple:
        walls = [r["wall"] for r in results]
        jobs = results[0]["jobs"]
        metrics = {"throughput_per_s": jobs / median(walls),
                   "latency_p50_ms": median(walls) * 1e3}
        details = {"passes": len(walls), "pass_s": walls,
                   "jobs_per_pass": jobs,
                   "latency_tail_ms": p99_or_max(walls) * 1e3}
        return (metrics, details, sum(r["jobs"] for r in results),
                sum(r["failed"] for r in results))


# ----------------------------------------------------------------------
class Serve:
    """Requests into one in-process ``ReproService`` (thread backend,
    default batch size and linger, cache off), from a single-threaded
    asyncio load generator in the same process.

    After an untimed warm-up the run alternates ``rounds`` times between
    a ``paced`` segment — an open loop with Poisson arrivals at
    ``paced_rate`` — and a ``sat`` burst of ``burst`` requests submitted
    at once.  Every spec is drawn fresh, so request coalescing never
    applies.
    """

    role = "serve"

    def __init__(self, name: str, *, kinds: Dict[str, float], workers: int,
                 paced_rate: float, burst: int, warmup: int,
                 l_range: tuple, jitter: tuple) -> None:
        self.name = name
        self.kinds = kinds
        self.workers = workers
        self.paced_rate = paced_rate
        self.burst = burst
        self.warmup = warmup
        self.l_range = l_range
        self.jitter = jitter

    def plan(self, seconds: float, smoke: bool) -> Dict[str, Any]:
        scale = 10 if smoke else 1
        rounds = 2 if smoke else 8
        burst = self.burst // scale
        return {"workers": self.workers, "check_every": 50,
                "rounds": rounds, "paced_rate": self.paced_rate,
                "paced_seconds": 0.4 * seconds / rounds,
                "burst": burst, "warmup": max(8, self.warmup // scale),
                # Bursts must be admitted, not refused with 429.
                "queue_depth": burst + 1024}

    def inputs(self, seed: int, plan, workdir: Path) -> Dict[str, Any]:
        from repro import units
        from repro.core.elmore import rc_optimum
        from repro.engine.jobs import driver_to_dict, line_to_dict
        from repro.tech.node import get_node

        rng = random.Random(f"{self.name}:{seed}")
        tech = {node: get_node(node) for node in NODES}
        rc = {node: rc_optimum(tech[node].line, tech[node].driver)
              for node in NODES}
        kinds, weights = zip(*self.kinds.items())

        def draw(n: int) -> Dict[str, list]:
            cols: Dict[str, list] = {"kind": [], "node": [], "l": [],
                                     "h": [], "k": []}
            for _ in range(n):
                node = rng.choice(NODES)
                cols["kind"].append(rng.choices(kinds, weights)[0])
                cols["node"].append(node)
                cols["l"].append(rng.uniform(*self.l_range) * units.NH_PER_MM)
                cols["h"].append(rc[node].h_opt * rng.uniform(*self.jitter))
                cols["k"].append(rc[node].k_opt * rng.uniform(*self.jitter))
            return cols

        def paced() -> Dict[str, list]:
            count = max(1, round(plan["paced_rate"] * plan["paced_seconds"]))
            cols = draw(count)
            offsets, t = [], 0.0
            for _ in range(count):
                t += rng.expovariate(plan["paced_rate"])
                offsets.append(t)
            cols["offsets"] = offsets
            return cols

        doc = {"nodes": {node: {"line": line_to_dict(tech[node].line),
                                "driver": driver_to_dict(tech[node].driver)}
                         for node in NODES},
               "warmup": draw(plan["warmup"]),
               "rounds": [{"paced": paced(), "burst": draw(plan["burst"])}
                          for _ in range(plan["rounds"])]}
        path = workdir / "inputs.json"
        path.write_text(json.dumps(doc))
        return {"inputs": str(path)}

    def execute(self, spawn, plan, inputs, trace, workdir):
        return [spawn(self.role, trace=trace, plan=plan, **inputs)]

    def end_to_end(self, results) -> tuple:
        (r,) = results
        latency = r["latency"]
        rates = [size / wall for size, wall in zip(r["burst_sizes"],
                                                   r["burst_walls"])]
        metrics = {"throughput_per_s": median(rates),
                   "latency_p50_ms": percentile(latency, 50) * 1e3}
        details = {"paced_requests": len(latency),
                   "latency_tail_ms": p99_or_max(latency) * 1e3,
                   "gen_late_p99_ms": percentile(r["late"], 99) * 1e3,
                   "burst_rps": rates,
                   "dispatch_wait_ms": r["dispatch_wait_ms"]}
        return metrics, details, r["attempted"], r["failed"]


# ----------------------------------------------------------------------
class Batch:
    """``repro-batch run`` passes over seeded manifests, tiered store.

    Per repetition, with a fresh cache directory: ``cold`` once (every
    row a miss: evaluate, dedup, write), ``warm`` three times (every row
    a disk hit) and ``mixed`` once (80% old rows beside 20% new ones).
    The manifest holds ``optimize`` rows (the solo Newton path),
    ``delay`` rows and 11-point ``sweep`` rows, plus 20% duplicate rows
    for single-flight dedup, shuffled.  ``throughput_per_s`` pools a
    repetition's rows over its passes' wall time (cold and mixed passes
    dominate it); ``latency_p50_ms`` is the median warm pass.
    """

    name = "batch_manifest"
    role = "batch_pass"
    sizes = {"optimize": 120, "delay": 400, "sweep": 4}

    def plan(self, seconds: float, smoke: bool) -> Dict[str, Any]:
        scale = 10 if smoke else 1
        return {"sizes": {kind: max(1, n // scale)
                          for kind, n in self.sizes.items()},
                "duplicates": 0.2, "new_in_mixed": 0.2, "warm_passes": 3,
                "seconds": seconds, "min_reps": 1 if smoke else 2,
                "sample_every": 10}

    def inputs(self, seed: int, plan, workdir: Path) -> Dict[str, Any]:
        from repro.core.elmore import rc_optimum
        from repro.tech.node import get_node

        rng = random.Random(f"{self.name}:{seed}")
        rc = {node: rc_optimum(get_node(node).line, get_node(node).driver)
              for node in NODES}

        def row(kind: str) -> Dict[str, Any]:
            node = rng.choice(NODES)
            if kind == "optimize":
                return {"kind": kind, "node": node,
                        "l_nh_per_mm": rng.uniform(0.2, 3.0)}
            if kind == "delay":
                return {"kind": kind, "node": node,
                        "l_nh_per_mm": rng.uniform(0.0, 3.0),
                        "h": rc[node].h_opt * rng.uniform(0.7, 1.3),
                        "k": rc[node].k_opt * rng.uniform(0.7, 1.3)}
            top = rng.uniform(1.5, 3.0)
            return {"kind": kind, "node": node,
                    "l_values_nh_per_mm": [top * i / 10 for i in range(11)]}

        def fresh() -> List[Dict[str, Any]]:
            rows = [row(kind) for kind, n in plan["sizes"].items()
                    for _ in range(n)]
            rows += [rng.choice(rows)
                     for _ in range(round(plan["duplicates"] * len(rows)))]
            rng.shuffle(rows)
            return rows

        cold = fresh()
        new = fresh()[:round(plan["new_in_mixed"] * len(cold))]
        mixed = rng.sample(cold, len(cold) - len(new)) + new
        rng.shuffle(mixed)
        sample = mixed[::plan["sample_every"]]
        paths = {}
        for name, rows in (("cold", cold), ("mixed", mixed),
                           ("sample", sample)):
            paths[name] = workdir / f"{name}.json"
            paths[name].write_text(json.dumps(rows))
        return {"manifests": {k: str(v) for k, v in paths.items()},
                "rows": {"cold": len(cold), "mixed": len(mixed)}}

    def execute(self, spawn, plan, inputs, trace, workdir):
        manifests = inputs["manifests"]
        passes = (["cold"] + [f"warm{i + 1}" for i in
                              range(plan["warm_passes"])] + ["mixed"])
        results, reps = [], []
        start = last = time.monotonic()
        while (len(reps) < plan["min_reps"]
               or _fits(start, time.monotonic() - last, plan["seconds"])):
            last = time.monotonic()
            rep_dir = workdir / f"{'traced' if trace else 'base'}{len(reps)}"
            rep_dir.mkdir(parents=True, exist_ok=True)
            outs = {}
            for name in passes:
                manifest = "mixed" if name == "mixed" else "cold"
                outs[name] = str(rep_dir / f"{name}.out.json")
                result = spawn(self.role, trace=trace,
                               manifest=manifests[manifest],
                               cache_dir=str(rep_dir / "cache"),
                               out_file=outs[name])
                result.update({"pass": name, "rep": len(reps),
                               "rows": inputs["rows"][manifest]})
                results.append(result)
            reps.append({"outs": outs})
        check = spawn("batch_check", reps=reps,
                      sample_manifest=manifests["sample"],
                      sample_out=str(workdir / "sample.out.json"))
        return results + [check]

    def end_to_end(self, results) -> tuple:
        passes = [r for r in results if "pass" in r]
        (check,) = [r for r in results if "pass" not in r]
        reps: Dict[int, List[Dict[str, Any]]] = {}
        for r in passes:
            reps.setdefault(r["rep"], []).append(r)
        walls = [r["wall"] for r in passes]
        metrics = {
            "throughput_per_s": median([
                sum(r["rows"] for r in rep) / sum(r["wall"] for r in rep)
                for rep in reps.values()]),
            "latency_p50_ms": median([r["wall"] for r in passes
                                      if r["pass"].startswith("warm")]) * 1e3}
        details = {"repetitions": len(reps), "pass_s": walls,
                   "latency_tail_ms": p99_or_max(walls) * 1e3}
        for kind in ("cold", "warm", "mixed"):
            details[f"{kind}_rows_per_s"] = median([
                r["rows"] / r["wall"] for r in passes
                if r["pass"].startswith(kind)])
        return metrics, details, check["attempted"], check["failed"]


WORKLOADS = {w.name: w for w in (
    Experiments(),
    Serve("serve_delay", kinds={"delay": 0.8, "critical_inductance": 0.2},
          workers=2, paced_rate=1500.0, burst=8000, warmup=512,
          l_range=(0.0, 3.0), jitter=(0.7, 1.3)),
    Serve("serve_optimize", kinds={"optimize": 1.0}, workers=1,
          paced_rate=20.0, burst=500, warmup=64,
          l_range=(0.2, 3.0), jitter=(1.0, 1.0)),
    Batch(),
)}
