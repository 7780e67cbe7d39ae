"""Property-based tests for the result-store plane.

Three properties pin the store contracts under arbitrary operation
sequences — the memory tier never exceeds its byte budget, a tiered
store's reads are bitwise identical to a plain disk store's, and
promotion on hit is idempotent.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NODE_100NM, units
from repro.engine.jobs import DelayJob, canonical_json
from repro.engine.store import DiskStore, MemoryStore, TieredStore

NH = units.NH_PER_MM

#: A fixed palette of distinct specs; strategies index into it.
_JOBS = [DelayJob(line=NODE_100NM.line_with_inductance(0.25 * i * NH),
                  driver=NODE_100NM.driver, h=0.01, k=150.0)
         for i in range(8)]

_payloads = st.dictionaries(
    st.sampled_from(["tau", "delay_per_length", "threshold", "x", "y"]),
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-10**6, 10**6),
    min_size=1, max_size=4)

_put_sequences = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(_JOBS) - 1),
              _payloads),
    min_size=1, max_size=24)


def _entry_cost(payload):
    return len(canonical_json(payload).encode("utf-8"))


@given(ops=_put_sequences, budget=st.integers(min_value=0, max_value=400))
def test_memory_budget_never_exceeded(ops, budget):
    """After every operation: total bytes <= budget, and the occupancy
    accounting equals the sum of the retained entries' costs."""
    store = MemoryStore(max_bytes=budget)
    for index, payload in ops:
        store.put(_JOBS[index], payload)
        stats = store.stats()
        assert stats.total_bytes <= budget
        if budget == 0:
            assert stats.entries == 0
    retained = [payload for index in range(len(_JOBS))
                if (payload := store.get(_JOBS[index])) is not None]
    assert store.stats().total_bytes \
        == sum(_entry_cost(payload) for payload in retained)


@settings(deadline=None, max_examples=30)
@given(ops=_put_sequences)
def test_tiered_get_bitwise_equals_disk_get(ops):
    """A tiered store is transparent: every read equals a plain disk
    store's read of the same put sequence, bit for bit — whether it was
    served from memory or fell through to disk after an eviction."""
    with tempfile.TemporaryDirectory() as tmp:
        disk = DiskStore(Path(tmp) / "disk")
        # A tiny memory tier forces evictions, so some reads are memory
        # hits and others disk fall-throughs within one example.
        tiered = TieredStore(root=Path(tmp) / "tiered", max_bytes=256)
        for index, payload in ops:
            disk.put(_JOBS[index], payload)
            tiered.put(_JOBS[index], payload)
        for index in range(len(_JOBS)):
            expected = disk.get(_JOBS[index])
            produced = tiered.get(_JOBS[index])
            if expected is None:
                assert produced is None
            else:
                assert canonical_json(produced) \
                    == canonical_json(expected)


@settings(deadline=None, max_examples=30)
@given(payload=_payloads)
def test_promote_on_hit_is_idempotent(payload):
    with tempfile.TemporaryDirectory() as tmp:
        store = TieredStore(root=tmp)
        store.disk.put(_JOBS[0], payload)
        first = store.get(_JOBS[0])       # disk hit -> promote
        promoted = store.memory.stats()
        second = store.get(_JOBS[0])      # memory hit
        assert canonical_json(second) == canonical_json(first)
        after = store.memory.stats()
        assert (after.entries, after.total_bytes) \
            == (promoted.entries, promoted.total_bytes)
        # Re-promoting after the memory tier was dropped converges to
        # the same occupancy — promotion replaces, never accumulates.
        store.memory.clear()
        store.get(_JOBS[0])
        store.get(_JOBS[0])
        again = store.memory.stats()
        assert (again.entries, again.total_bytes) \
            == (promoted.entries, promoted.total_bytes)
