"""One child process of a benchmark run: set up, measure, check, report.

Started only by ``run.py``::

    python3 perfbench/child.py SPEC.json SPAWNED

``SPEC.json`` names the role and carries the generated inputs' paths;
the seed never reaches the child.  ``SPAWNED`` is the parent's
``time.monotonic()`` just before the spawn — CLOCK_MONOTONIC is
system-wide on Linux — so ``ready_s`` covers interpreter start-up,
imports and construction.  After the timed work the child runs the
workload's correctness checks untimed and writes one JSON result to the
spec's ``result`` path.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from tracing import REQUEST_ID


def _tracer(spec: Dict[str, Any]):
    """Install the layer wrappers when the run is traced (after the
    program's imports, before any object captures a function)."""
    if not spec.get("trace"):
        return None
    from layers import TARGETS
    from tracing import Tracer
    tracer = Tracer()
    tracer.install(TARGETS)
    return tracer


def _peak_rss_mb() -> float:
    """This process's own resident high-water mark.

    ``ru_maxrss`` is no good here: Linux carries it across ``execve``,
    so a child started by a large parent reports the parent's peak.
    ``VmHWM`` belongs to the address space, which ``execve`` replaces.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _process_stats() -> Dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"rss_mb": _peak_rss_mb(),
            "cpu_s": usage.ru_utime + usage.ru_stime}


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


# ----------------------------------------------------------------------
# experiments_fast: the `repro-experiments run ... --fast` path.
# ----------------------------------------------------------------------
def experiments_setup(spec):
    import repro.experiments  # noqa: F401  (registers every experiment)
    from repro.engine.executor import BatchExecutor
    from repro.engine.jobs import ExperimentJob
    tracer = _tracer(spec)
    jobs = [ExperimentJob.create(experiment_id, **options)
            for experiment_id, options in spec["plan"]["jobs"]]
    return {"tracer": tracer, "jobs": jobs,
            "executor": BatchExecutor(jobs=1)}


def experiments_run(state, spec):
    import reference
    start = time.perf_counter()
    report = state["executor"].run(state["jobs"])
    wall = time.perf_counter() - start
    measured = _process_stats()
    state["executor"].close()
    errors = [f"{outcome.job.experiment_id}: {outcome.error_type}: "
              f"{outcome.error}" for outcome in report if not outcome.ok]
    payloads = {outcome.job.experiment_id: outcome.result
                for outcome in report if outcome.ok}
    checks = reference.check_experiments(payloads,
                                         reference.load("experiments_fast"))
    return {"wall": wall, "jobs": len(state["jobs"]), "failed": len(errors),
            "checks": errors + checks, **measured}


# ----------------------------------------------------------------------
# serve_*: open-loop and burst traffic into ReproService.handle.
# ----------------------------------------------------------------------
def serve_setup(spec):
    from repro.serve.service import ReproService
    tracer = _tracer(spec)
    plan = spec["plan"]
    service = ReproService(cache=None, backend="thread",
                           backend_workers=plan["workers"],
                           max_queue_depth=plan["queue_depth"])
    return {"tracer": tracer, "service": service}


def _documents(nodes: Dict[str, Any], cols: Dict[str, list]) -> List[dict]:
    """Request documents of one phase, built before the phase starts."""
    docs = []
    for kind, node, l, h, k in zip(cols["kind"], cols["node"], cols["l"],
                                   cols["h"], cols["k"]):
        doc = {"kind": kind, "line": dict(nodes[node]["line"], l=l),
               "driver": nodes[node]["driver"]}
        if kind == "optimize":
            doc["initial"] = [h, k]      # warm start at the RC optimum
        else:
            doc["h"], doc["k"] = h, k
        docs.append(doc)
    return docs


class _Traffic:
    """Sends requests and files their outcomes; keeps every
    ``check_every``-th response for the untimed correctness check."""

    def __init__(self, service, check_every: int, tracer) -> None:
        self.service = service
        self.check_every = check_every
        self.tracer = tracer
        self.sent = 0
        self.failed = 0
        self.kept: List[tuple] = []

    async def one(self, doc: dict) -> None:
        index = self.sent
        self.sent += 1
        REQUEST_ID.set(index)
        status, body = await self.service.handle(doc)
        if status != 200 or not body.get("ok"):
            self.failed += 1
        if index % self.check_every == 0:
            self.kept.append((doc, status, body))

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    async def burst(self, docs: List[dict]) -> float:
        start = time.perf_counter()
        await asyncio.gather(*(self.one(doc) for doc in docs))
        return time.perf_counter() - start

    async def paced(self, docs: List[dict], offsets: List[float]) -> tuple:
        """Open loop: request i is due at ``offsets[i]`` whatever the
        service is doing; latency counts from the due time, so a stall
        also bills the requests it delays."""
        latency = [0.0] * len(docs)
        late: List[float] = []

        async def timed(i: int, due: float) -> None:
            await self.one(docs[i])
            latency[i] = time.perf_counter() - due

        tasks = []
        start = time.perf_counter()
        for i, offset in enumerate(offsets):
            due = start + offset
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            late.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(timed(i, due)))
        await asyncio.gather(*tasks)
        return latency, late


async def _serve_traffic(state, inputs, plan) -> Dict[str, Any]:
    nodes = inputs["nodes"]
    traffic = _Traffic(state["service"], plan["check_every"],
                       state["tracer"])
    traffic.phase("warmup")
    await traffic.burst(_documents(nodes, inputs["warmup"]))
    latency, late, walls, sizes = [], [], [], []
    for round_inputs in inputs["rounds"]:
        traffic.phase("paced")
        docs = _documents(nodes, round_inputs["paced"])
        segment, segment_late = await traffic.paced(
            docs, round_inputs["paced"]["offsets"])
        latency += segment
        late += segment_late
        traffic.phase("sat")
        docs = _documents(nodes, round_inputs["burst"])
        walls.append(await traffic.burst(docs))
        sizes.append(len(docs))
        del docs
    measured = _process_stats()
    waits = state["service"].backend_stats()["dispatch_wait"]
    await state["service"].close()
    return {"latency": latency, "late": late, "burst_walls": walls,
            "burst_sizes": sizes, "attempted": traffic.sent,
            "failed": traffic.failed, "kept": traffic.kept,
            "dispatch_wait_ms": {k: v * 1e3 for k, v in waits.items()},
            **measured}


def serve_run(state, spec):
    inputs = json.loads(Path(spec["inputs"]).read_text())
    result = asyncio.run(_serve_traffic(state, inputs, spec["plan"]))
    result["checks"] = _check_served(result.pop("kept"))
    return result


def _check_served(kept: List[tuple]) -> List[str]:
    """Every kept response must equal a solo ``job.run()`` bitwise; for
    optimize the optimum fields (the trace's execution counters describe
    the lockstep pooling and legitimately differ)."""
    from repro.serve.protocol import REQUEST_JOB_TYPES
    failures = []
    for doc, status, body in kept:
        if status != 200 or not body.get("ok"):
            failures.append(f"{doc['kind']} request failed: {body}")
            continue
        body_fields = {k: v for k, v in doc.items() if k != "kind"}
        expected = REQUEST_JOB_TYPES[doc["kind"]].from_dict(body_fields).run()
        got = dict(body["result"])
        if doc["kind"] == "optimize":
            expected.pop("trace", None)
            got.pop("trace", None)
        if _canonical(got) != _canonical(expected):
            failures.append(f"{doc['kind']} response differs from job.run(): "
                            f"{got} != {expected}")
    return failures


# ----------------------------------------------------------------------
# batch_manifest: one `repro-batch run` pass per process.
# ----------------------------------------------------------------------
def batch_setup(spec):
    from repro.engine import cli
    return {"tracer": _tracer(spec), "cli": cli}


def batch_run(state, spec):
    argv = ["run", spec["manifest"], "--store", "tiered",
            "--cache-dir", spec["cache_dir"], "--out", spec["out_file"]]
    start = time.perf_counter()
    code = state["cli"].main(argv)
    wall = time.perf_counter() - start
    return {"wall": wall, "exit_code": code, **_process_stats()}


def _rows(path: str) -> List[dict]:
    return json.loads(Path(path).read_text())


def batch_check(state, spec):
    """Warm and mixed passes replay the cold pass bitwise, and a sample
    re-run with the store off matches what the store served."""
    failures: List[str] = []
    attempted = failed = 0
    served: Dict[str, str] = {}
    for rep in spec["reps"]:
        texts = {name: Path(path).read_text()
                 for name, path in rep["outs"].items()}
        cold = texts["cold"]
        for name, text in texts.items():
            rows = json.loads(text)
            attempted += len(rows)
            failed += sum(1 for row in rows if row["status"] != "ok")
            if name.startswith("warm") and text != cold:
                failures.append(f"{name} --out differs from the cold pass")
        for name in ("cold", "mixed"):
            for row in json.loads(texts[name]):
                key = _canonical(row["job"])
                text = _canonical(row)
                if served.setdefault(key, text) != text:
                    failures.append(f"{name} row differs from an earlier "
                                    f"pass: {row['job']}")
    sample_out = spec["sample_out"]
    state["cli"].main(["run", spec["sample_manifest"], "--no-cache",
                       "--out", sample_out])
    for row in _rows(sample_out):
        if served.get(_canonical(row["job"])) != _canonical(row):
            failures.append(f"store-off re-run differs: {row['job']}")
    return {"attempted": attempted, "failed": failed, "checks": failures}


# ----------------------------------------------------------------------
ROLES: Dict[str, tuple] = {
    "experiments": (experiments_setup, experiments_run),
    "serve": (serve_setup, serve_run),
    "batch_pass": (batch_setup, batch_run),
    "batch_check": (batch_setup, batch_check),
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(Path(argv[0]).read_text())
    spawned = float(argv[1])
    setup, run = ROLES[spec["role"]]
    state = setup(spec)
    result: Dict[str, Any] = {"ready_s": time.monotonic() - spawned}
    if not spec.get("setup_only"):
        result.update(run(state, spec))
        tracer: Optional[Any] = state.get("tracer")
        result["trace"] = tracer.export() if tracer is not None else None
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
