"""Store tiers under a hot-repeat workload: memory hits vs disk hits.

A served sweep that keeps re-requesting the same working set spends its
time in cache *hits*, so the quantity that matters is the hit path: a
disk hit opens a file and decodes JSON, a tiered store's memory hit is
a dictionary lookup on the already-decoded payload.  This benchmark
puts one delay working set into a plain disk store and a tiered store,
then times repeated hot gets against both and writes the timings to
``BENCH_store.json`` (path override: ``REPRO_BENCH_OUT``).  On a warm
cache the tiered memory hits must be >= 5x faster than disk hits.

Before timing anything, the run is an answer-preservation check: every
store flavor (disk, tiered), cold and replayed, produces
batch results bitwise identical to a cache-off run of the same
manifest.  Set ``REPRO_BENCH_SMOKE=1`` for a reduced pass with no ratio
assertion (CI smoke mode).

Like the other ratio benchmarks this times both sides with the same
bare ``perf_counter`` loop, so it does not use pytest-benchmark.
"""

import json
import os
import tempfile
import time
from pathlib import Path

from repro import NODE_100NM, units
from repro.engine.executor import BatchExecutor
from repro.engine.jobs import DelayJob, canonical_json
from repro.engine.store import (STORE_NAMES, DiskStore, TieredStore,
                                make_store)

NH = units.NH_PER_MM

N_JOBS = 16
N_REPEATS = 200
REPS = 3

#: Floor on the memory-hit-over-disk-hit throughput ratio.  Warm
#: measurements sit one to two orders of magnitude above it — a memory
#: hit skips open/read/json.loads entirely — so a loaded CI box cannot
#: flake the suite.
MIN_RATIO = 5.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _out_path() -> str:
    return os.environ.get("REPRO_BENCH_OUT", "BENCH_store.json")


def _delay_jobs(count):
    node = NODE_100NM
    return [DelayJob(line=node.line.with_inductance(0.2 * i * NH),
                     driver=node.driver, h=0.01, k=150.0)
            for i in range(count)]


def _time_hot_gets(store, jobs, repeats):
    """Best-of-REPS seconds for ``repeats`` passes of hot gets."""
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        for _ in range(repeats):
            for job in jobs:
                result = store.get(job)
                assert result is not None, "hot get missed"
        best = min(best, time.perf_counter() - start)
    return best


def test_tiered_memory_hits_beat_disk_hits():
    n_jobs = 4 if _smoke() else N_JOBS
    repeats = 5 if _smoke() else N_REPEATS
    jobs = _delay_jobs(n_jobs)
    baseline = [job.run() for job in jobs]

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        root = Path(tmp)

        # -- answer preservation: every store config == store-off -----
        expected = canonical_json({"results": baseline})
        for name in STORE_NAMES:
            store = make_store(name, root=root / f"check-{name}")
            for arm in ("cold", "replay"):
                report = BatchExecutor(jobs=1, cache=store).run(jobs)
                produced = canonical_json(
                    {"results": [outcome.result
                                 for outcome in report.outcomes]})
                assert produced == expected, \
                    f"{name} store ({arm}) diverged from store-off"
            replay = BatchExecutor(jobs=1, cache=store).run(jobs)
            assert all(outcome.from_cache for outcome in replay.outcomes)

        # -- the hot-repeat timing ------------------------------------
        disk = DiskStore(root / "disk")
        tiered = TieredStore(root=root / "tiered")
        for job, result in zip(jobs, baseline):
            disk.put(job, result)
            tiered.put(job, result)
        for job in jobs:
            tiered.get(job)  # warm pass: promote into the memory tier

        disk_seconds = _time_hot_gets(disk, jobs, repeats)
        tiered_seconds = _time_hot_gets(tiered, jobs, repeats)

    hits = n_jobs * repeats
    ratio = disk_seconds / tiered_seconds if tiered_seconds else float("inf")
    report = {
        "jobs": n_jobs,
        "repeats": repeats,
        "reps": REPS,
        "hits_per_arm": hits,
        "smoke": _smoke(),
        "disk": {"seconds": disk_seconds,
                 "hits_per_s": hits / disk_seconds},
        "tiered_memory": {"seconds": tiered_seconds,
                          "hits_per_s": hits / tiered_seconds},
        "memory_over_disk": ratio,
        "min_ratio": MIN_RATIO,
    }
    with open(_out_path(), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if not _smoke():
        assert ratio >= MIN_RATIO, report
