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

import json
import os

from repro.engine.jobs import canonical_json
from repro.serve.bench import run_backend_benchmark, strip_responses

N_REQUESTS = 48
WORKERS = 4

#: Conservative floor on the process-over-thread throughput ratio; warm
#: measurements sit well above it, so a loaded CI box cannot flake the
#: suite.  Only asserted on hosts with enough cores to host the workers.
MIN_RATIO = 1.5

def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _out_path() -> str:
    return os.environ.get("REPRO_BENCH_OUT", "BENCH_backends.json")


def test_process_backend_beats_threads_on_optimize_stream():
    if _smoke():
        n_requests, workers, reps = 12, 2, 1
    else:
        n_requests, workers, reps = N_REQUESTS, WORKERS, 3
    report = run_backend_benchmark(n_requests, workers=workers,
                                   reps=reps, max_batch_size=6)
    responses = report.pop("_responses")
    report["smoke"] = _smoke()

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
        json.dump(strip_responses(report), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")

    cores = os.cpu_count() or 1
    if not _smoke() and cores >= WORKERS:
        assert report["process_over_thread"] >= MIN_RATIO, report
