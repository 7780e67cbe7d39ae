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

import json
import os

from repro.engine.jobs import canonical_json
from repro.serve.bench import (build_delay_jobs, run_benchmark,
                               strip_responses)

N_REQUESTS = 256

#: Conservative floor on the micro-batching speedup; warm measurements
#: sit around 7-10x, so a loaded CI box cannot flake the suite.
MIN_SPEEDUP = 3.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _out_path() -> str:
    return os.environ.get("REPRO_BENCH_OUT", "BENCH_serve.json")


def test_micro_batched_serving_throughput():
    reps = 1 if _smoke() else 3
    report = run_benchmark(N_REQUESTS, reps=reps)
    responses = report.pop("_responses")
    report["smoke"] = _smoke()

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
    jobs = build_delay_jobs(N_REQUESTS)
    for job, batched_body, solo_body in zip(jobs, batched, solo):
        assert canonical_json(batched_body["result"]) \
            == canonical_json(solo_body["result"])
        assert canonical_json(batched_body["result"]) \
            == canonical_json(job.run())

    with open(_out_path(), "w", encoding="utf-8") as handle:
        json.dump(strip_responses(report), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")

    assert report["speedup"] >= MIN_SPEEDUP, report
