"""Serving throughput: dynamic micro-batching vs batch-size-1 serving.

Drives 256 concurrent in-process requests through one
:class:`~repro.serve.service.ReproService` twice — micro-batching
enabled, then degraded to batch-size 1 (every request evaluated through
the scalar ``job.run()`` path) — and writes both arms' timings to
``BENCH_serve.json`` (path override: ``REPRO_BENCH_OUT``).  Set
``REPRO_BENCH_SMOKE=1`` for a single repetition per arm (CI smoke mode).

Beyond the speedup, the run is an answer-preservation check: every
batched response must be bitwise identical to the same request's solo
``DelayJob.run()`` — micro-batching may only change *when* work runs,
never what it returns.

Like ``test_bench_kernels.py`` this file times both sides with the same
bare ``perf_counter`` loop (the quantity under test is a ratio), so it
does not use pytest-benchmark.
"""

import asyncio
import gc
import json
import os
import time

import numpy as np

from repro import NODE_100NM, units
from repro.core.elmore import rc_optimum
from repro.engine.jobs import DelayJob, canonical_json
from repro.serve.protocol import ServeRequest
from repro.serve.service import ReproService

N_REQUESTS = 256

#: Linger generous enough that a burst submitted in one loop pass always
#: coalesces; the burst fills the batch long before the linger expires.
LINGER = 0.05

#: Conservative floor on the micro-batching speedup; warm measurements
#: sit around 7-10x, so a loaded CI box cannot flake the suite.
MIN_SPEEDUP = 3.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _out_path() -> str:
    return os.environ.get("REPRO_BENCH_OUT", "BENCH_serve.json")


def build_delay_jobs(n):
    """N heterogeneous delay requests: an inductance grid at the 100 nm
    node's RC-optimal sizing."""
    node = NODE_100NM
    rc_ref = rc_optimum(node.line, node.driver)
    return [DelayJob(line=node.line.with_inductance(float(l)),
                     driver=node.driver, h=rc_ref.h_opt, k=rc_ref.k_opt)
            for l in np.linspace(0.0, 2.0 * units.NH_PER_MM, n)]


def serve_once(jobs, max_batch_size):
    """Serve every job concurrently through one fresh service.

    Returns ``(wall_seconds, response_bodies, batch_size_histogram)``
    with responses in job order.  The cache is off so both arms measure
    evaluation, not replay, and dispatch is pinned to one worker so the
    comparison measures coalescing alone.
    """

    async def run():
        service = ReproService(cache=None, max_batch_size=max_batch_size,
                               max_linger=LINGER, max_queue_depth=len(jobs),
                               backend="thread", backend_workers=1)
        start = time.perf_counter()
        responses = await asyncio.gather(
            *(service.submit(ServeRequest(job=job)) for job in jobs))
        elapsed = time.perf_counter() - start
        histogram = {f"{kind}:{size}": count for (kind, size), count
                     in sorted(service.metrics.batch_sizes.items())}
        await service.close()
        return elapsed, list(responses), histogram

    return asyncio.run(run())


def test_micro_batched_serving_throughput():
    reps = 1 if _smoke() else 3
    jobs = build_delay_jobs(N_REQUESTS)

    # Untimed warmup: the first passes of a process pay numpy and
    # thread-pool spin-up that neither serving mode should be billed
    # for, and the spin-up cost scales with the lane count — so warm
    # each arm once at full size before timing either.
    serve_once(jobs, N_REQUESTS)
    serve_once(jobs, N_REQUESTS)
    serve_once(jobs, 1)

    # Each arm reports its best-of-``reps`` wall time.  A full garbage
    # collection takes longer than the whole batched pass, so each timed
    # pass starts from a collected heap instead of inheriting the
    # previous pass's garbage.
    report = {"requests": N_REQUESTS, "reps": reps, "max_linger": LINGER,
              "smoke": _smoke()}
    responses = {}
    for arm, cap in (("batched", N_REQUESTS), ("solo", 1)):
        runs = []
        for _ in range(reps):
            gc.collect()
            runs.append(serve_once(jobs, cap))
        seconds = min(run[0] for run in runs)
        _, responses[arm], histogram = runs[-1]
        report[arm] = {"max_batch_size": cap, "seconds": seconds,
                       "throughput_rps": N_REQUESTS / seconds,
                       "batch_size_histogram": histogram}
    report["speedup"] = (report["solo"]["seconds"]
                         / report["batched"]["seconds"])

    batched, solo = responses["batched"], responses["solo"]
    assert len(batched) == len(solo) == N_REQUESTS
    assert all(body["ok"] for body in batched + solo)

    # Coalescing happened: the batched arm dispatched multi-lane batches,
    # the solo arm dispatched nothing but singletons.
    batched_sizes = {int(key.split(":")[1]) for key in
                     report["batched"]["batch_size_histogram"]}
    assert max(batched_sizes) > 1
    assert set(report["solo"]["batch_size_histogram"]) == {"delay:1"}

    # Answer preservation: batched == solo == the job's own run(),
    # bitwise (canonical JSON compares float repr, not approximate).
    for job, batched_body, solo_body in zip(jobs, batched, solo):
        assert canonical_json(batched_body["result"]) \
            == canonical_json(solo_body["result"])
        assert canonical_json(batched_body["result"]) \
            == canonical_json(job.run())

    with open(_out_path(), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert report["speedup"] >= MIN_SPEEDUP, report
