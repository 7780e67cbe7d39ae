"""Backend throughput: process vs thread dispatch under the serve layer.

Drives one optimize-heavy request stream (48 concurrent repeater
optimizations, micro-batched into small batches so several dispatch
concurrently) through two identical services differing only in the
shared execution backend, and writes both arms' timings to
``BENCH_backends.json`` (path override: ``REPRO_BENCH_OUT``).  Set
``REPRO_BENCH_SMOKE=1`` for a reduced-size single-repetition pass (CI
smoke mode — no ratio assertion).

The Newton inner loops are pure-Python + small-array numpy, so thread
workers serialize on the GIL while warm process workers genuinely
parallelize; on a >= 4-core host the process arm must win by >= 1.5x.
Beyond the ratio, the run is an answer-preservation check: both arms'
responses must match lane for lane once the batching-shape execution
counters are stripped (the backend may only change *where* work runs,
never what it returns).

Like ``test_bench_serve.py`` this file times both sides with the same
bare ``perf_counter`` loop (the quantity under test is a ratio), so it
does not use pytest-benchmark.
"""

import asyncio
import json
import os
import time

import numpy as np

from repro import NODE_100NM, units
from repro.core.elmore import rc_optimum
from repro.engine.backends import make_backend
from repro.engine.jobs import OptimizeJob, canonical_json
from repro.serve.protocol import ServeRequest
from repro.serve.service import ReproService

N_REQUESTS = 48
WORKERS = 4

#: Small batches, so the stream splits into many and up to ``workers``
#: of them dispatch concurrently.
MAX_BATCH_SIZE = 6

#: Linger generous enough that a burst always coalesces.
LINGER = 0.05

#: Conservative floor on the process-over-thread throughput ratio; warm
#: measurements sit well above it, so a loaded CI box cannot flake the
#: suite.  Only asserted on hosts with enough cores to host the workers.
MIN_RATIO = 1.5

def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _out_path() -> str:
    return os.environ.get("REPRO_BENCH_OUT", "BENCH_backends.json")


def build_optimize_jobs(n):
    """N repeater optimizations (Eqs. 7–8) over an inductance grid at the
    100 nm node, each lane warm-started from its own RC optimum."""
    node = NODE_100NM
    jobs = []
    for l in np.linspace(0.2 * units.NH_PER_MM, 2.0 * units.NH_PER_MM, n):
        line = node.line.with_inductance(float(l))
        seed = rc_optimum(line, node.driver)
        jobs.append(OptimizeJob(line=line, driver=node.driver,
                                initial=(seed.h_opt, seed.k_opt)))
    return jobs


def serve_once(jobs, backend):
    """One timed pass of a fresh service over ``jobs`` on the shared
    ``backend``; returns ``(wall_seconds, response_bodies)``."""

    async def run():
        service = ReproService(cache=None, backend=backend,
                               max_batch_size=MAX_BATCH_SIZE,
                               max_linger=LINGER, max_queue_depth=len(jobs))
        start = time.perf_counter()
        responses = await asyncio.gather(
            *(service.submit(ServeRequest(job=job)) for job in jobs))
        elapsed = time.perf_counter() - start
        await service.close()  # the caller owns the backend instance
        return elapsed, list(responses)

    return asyncio.run(run())


def test_process_backend_beats_threads_on_optimize_stream():
    if _smoke():
        n_requests, workers, reps = 12, 2, 1
    else:
        n_requests, workers, reps = N_REQUESTS, WORKERS, 3
    jobs = build_optimize_jobs(n_requests)
    report = {"requests": n_requests, "workers": workers, "reps": reps,
              "cpu_count": os.cpu_count(), "max_batch_size": MAX_BATCH_SIZE,
              "max_linger": LINGER, "smoke": _smoke()}
    responses = {}
    for arm in ("thread", "process"):
        backend = make_backend(arm, workers=workers)
        backend.start()
        try:
            # Untimed warmup; it also pays the process pool's spawn and
            # import cost, amortized across every later batch by design.
            serve_once(jobs, backend)
            runs = [serve_once(jobs, backend) for _ in range(reps)]
            seconds = min(run[0] for run in runs)
            responses[arm] = runs[-1][1]
            report[arm] = {"seconds": seconds,
                           "throughput_rps": n_requests / seconds,
                           "backend": backend.stats_payload()}
        finally:
            backend.close()
    report["process_over_thread"] = (report["thread"]["seconds"]
                                     / report["process"]["seconds"])

    thread, process = responses["thread"], responses["process"]
    assert len(thread) == len(process) == n_requests
    assert all(body["ok"] for body in thread + process)

    # Answer preservation, lane for lane across the two backends.
    for thread_body, process_body in zip(thread, process):
        assert canonical_json(thread_body["result"]) \
            == canonical_json(process_body["result"])

    # Both arms actually exercised their pools.
    for arm in ("thread", "process"):
        stats = report[arm]["backend"]
        assert stats["backend"] == arm
        assert stats["workers"] == workers
        assert stats["dispatches"] > 0
        assert stats["in_flight"] == 0

    with open(_out_path(), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    cores = os.cpu_count() or 1
    if not _smoke() and cores >= WORKERS:
        assert report["process_over_thread"] >= MIN_RATIO, report
