"""Unit tests for the result-store plane: tiers, factory, single-flight.

The disk store's persistence contract is pinned by
``test_engine_cache.py``; this suite covers what the store *plane* adds
— the byte-budgeted memory tier, the tiered composition, the
``make_store`` factory, and the ``SingleFlight`` coalescing protocol.
"""

import json
import threading

import pytest

from repro import NODE_100NM, units
from repro.engine.store import (DEFAULT_MEMORY_BUDGET, STORE_NAMES,
                                DiskStore, MemoryStore, SingleFlight,
                                TieredStore, describe_store, flight_key,
                                make_store)
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

    def test_stats_report_medium(self, job):
        store = MemoryStore()
        store.put(job, {"tau": 1.0})
        assert "in memory" in store.stats().format_summary()

    def test_close_clears(self, job):
        store = MemoryStore()
        store.put(job, {"tau": 1.0})
        store.close()
        assert store.stats().entries == 0


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

    def test_tier_stats_and_clear(self, tmp_path, job):
        store = TieredStore(root=tmp_path)
        store.put(job, {"tau": 1.0})
        tiers = store.tier_stats()
        assert tiers["memory"].entries == 1
        assert tiers["disk"].entries == 1
        assert store.clear() == 1
        assert store.tier_stats()["memory"].entries == 0
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

    def test_instance_passes_through(self):
        store = MemoryStore()
        assert make_store(store) is store

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown store"):
            make_store("redis")

    def test_max_bytes_reaches_memory_tier(self, tmp_path):
        store = make_store("tiered", root=tmp_path, max_bytes=123)
        assert store.memory.max_bytes == 123
        assert make_store("tiered", root=tmp_path).memory.max_bytes \
            == DEFAULT_MEMORY_BUDGET

    def test_describe_store(self, tmp_path):
        assert describe_store(None) == "off"
        assert str(tmp_path) in describe_store(make_store(root=tmp_path))
        assert describe_store(MemoryStore()) == "memory"
        assert "tiered" in describe_store(
            make_store("tiered", root=tmp_path))


class TestSingleFlight:
    def test_first_acquire_leads(self):
        flights = SingleFlight()
        leader, flight = flights.acquire("k")
        assert leader
        follower, same = flights.acquire("k")
        assert not follower
        assert same is flight

    def test_publish_fans_out_and_clears_table(self):
        flights = SingleFlight()
        _, flight = flights.acquire("k")
        _, joined = flights.acquire("k")
        flights.publish(flight, {"x": 1})
        assert joined.wait(timeout=1.0) == ("ok", {"x": 1})
        # The flight is gone: a later acquire starts fresh work.
        leader, _ = flights.acquire("k")
        assert leader

    def test_publish_error_rejects_followers(self):
        flights = SingleFlight()
        _, flight = flights.acquire("k")
        _, joined = flights.acquire("k")
        exc = RuntimeError("boom")
        flights.publish_error(flight, exc)
        assert joined.wait(timeout=1.0) == ("error", exc)

    def test_do_coalesces_concurrent_callers(self):
        flights = SingleFlight()
        calls = []
        started = threading.Event()
        release = threading.Event()

        def slow():
            calls.append(1)
            started.set()
            release.wait(timeout=5.0)
            return {"x": 42}

        results = []
        leader = threading.Thread(
            target=lambda: results.append(flights.do("k", slow)))
        leader.start()
        started.wait(timeout=5.0)
        followers = [threading.Thread(
            target=lambda: results.append(flights.do("k", slow)))
            for _ in range(4)]
        for thread in followers:
            thread.start()
        while flights.stats()["followers"] < 4:
            pass  # all four must be registered before the leader lands
        release.set()
        for thread in [leader] + followers:
            thread.join(timeout=10.0)
        assert len(calls) == 1
        assert results == [{"x": 42}] * 5
        assert all(r is results[0] for r in results)

    def test_do_propagates_leader_exception(self):
        flights = SingleFlight()

        def boom():
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            flights.do("k", boom)
        # The failed flight is cleared; the key is retryable.
        assert flights.do("k", lambda: 7) == 7

    def test_stats_counts(self):
        flights = SingleFlight()
        _, flight = flights.acquire("k")
        flights.acquire("k")
        stats = flights.stats()
        assert stats == {"leads": 1, "followers": 1, "in_flight": 1}
        flights.publish(flight, None)
        assert flights.stats()["in_flight"] == 0
