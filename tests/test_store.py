"""Unit tests for the result-store plane: tiers, factory, flight key.

The disk store's persistence contract is pinned by
``test_engine_cache.py``; this suite covers what the store *plane* adds
— the byte-budgeted memory tier, the tiered composition, the
``make_store`` factory, and the salt-free ``flight_key`` both dedups
key on.
"""

import json

import pytest

from repro import NODE_100NM, units
from repro.engine.store import (DEFAULT_MEMORY_BUDGET, STORE_NAMES,
                                DiskStore, MemoryStore, TieredStore,
                                flight_key, make_store)
from repro.engine.jobs import DelayJob

NH = units.NH_PER_MM


def _job(l_nh=1.0, h=0.01):
    return DelayJob(line=NODE_100NM.line_with_inductance(l_nh * NH),
                    driver=NODE_100NM.driver, h=h, k=150.0)


@pytest.fixture()
def job():
    return _job()


class TestFlightKey:
    def test_stable_and_spec_dependent(self, job):
        assert flight_key(job) == flight_key(_job())
        assert flight_key(job) != flight_key(_job(l_nh=2.0))

    def test_salt_independent(self, tmp_path, job):
        """Two differently-salted stores still coalesce the same spec."""
        a = DiskStore(tmp_path, salt="v1")
        b = DiskStore(tmp_path, salt="v2")
        assert a.key(job) != b.key(job)
        assert flight_key(job) == flight_key(job)


class TestMemoryStore:
    def test_miss_then_hit_without_filesystem(self, job):
        store = MemoryStore()
        assert store.get(job) is None
        store.put(job, {"tau": 1.0})
        assert store.get(job) == {"tau": 1.0}
        assert (store.hits, store.misses) == (1, 1)

    def test_budget_evicts_least_recently_used(self):
        jobs = [_job(l_nh=0.5 * i) for i in range(4)]
        payload = {"tau": 1.0}
        size = len(json.dumps(payload, separators=(",", ":")).encode())
        store = MemoryStore(max_bytes=2 * size + 1)
        for j in jobs[:2]:
            store.put(j, payload)
        store.get(jobs[0])            # refresh 0; 1 is now LRU
        store.put(jobs[2], payload)   # evicts 1
        assert store.get(jobs[1]) is None
        assert store.get(jobs[0]) == payload
        assert store.get(jobs[2]) == payload

    def test_oversized_payload_not_retained(self, job):
        store = MemoryStore(max_bytes=4)
        store.put(job, {"tau": 1.0})
        assert store.get(job) is None
        assert store.stats().entries == 0

    def test_replacing_entry_does_not_double_count(self, job):
        store = MemoryStore()
        store.put(job, {"tau": 1.0})
        before = store.stats().total_bytes
        store.put(job, {"tau": 1.0})
        assert store.stats().total_bytes == before
        assert store.stats().entries == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="memory budget"):
            MemoryStore(max_bytes=-1)


class TestTieredStore:
    def test_put_writes_through_both_tiers(self, tmp_path, job):
        store = TieredStore(root=tmp_path)
        key = store.put(job, {"tau": 1.0})
        assert store.path_for(key).exists()
        assert store.memory.get(job) == {"tau": 1.0}

    def test_memory_hit_never_touches_disk(self, tmp_path, job):
        store = TieredStore(root=tmp_path)
        key = store.put(job, {"tau": 1.0})
        store.path_for(key).unlink()  # disk record gone
        assert store.get(job) == {"tau": 1.0}  # memory still serves

    def test_disk_hit_promotes_into_memory(self, tmp_path, job):
        store = TieredStore(root=tmp_path)
        store.disk.put(job, {"tau": 1.0})
        assert store.memory.get(job) is None
        assert store.get(job) == {"tau": 1.0}
        assert store.memory.get(job) == {"tau": 1.0}

    def test_tiered_get_matches_disk_get(self, tmp_path, job):
        plain = DiskStore(tmp_path / "plain")
        tiered = TieredStore(root=tmp_path / "tiered")
        payload = {"tau": 1.25, "damping": "over"}
        plain.put(job, payload)
        tiered.put(job, payload)
        assert tiered.get(job) == plain.get(job)

    def test_clear_empties_both_tiers(self, tmp_path, job):
        store = TieredStore(root=tmp_path)
        store.put(job, {"tau": 1.0})
        assert store.memory.stats().entries == 1
        assert store.disk.stats().entries == 1
        assert store.clear() == 1
        assert store.memory.stats().entries == 0
        assert store.disk.stats().entries == 0
        assert store.get(job) is None


class TestMakeStore:
    def test_names_resolve(self, tmp_path):
        assert STORE_NAMES == ("disk", "tiered")
        assert isinstance(make_store("disk", root=tmp_path), DiskStore)
        assert isinstance(make_store("tiered", root=tmp_path), TieredStore)

    def test_default_is_disk(self, tmp_path):
        store = make_store(None, root=tmp_path)
        assert isinstance(store, DiskStore)
        assert store.root == tmp_path

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown store"):
            make_store("redis")

    def test_max_bytes_reaches_memory_tier(self, tmp_path):
        assert make_store("tiered", root=tmp_path).memory.max_bytes \
            == DEFAULT_MEMORY_BUDGET
