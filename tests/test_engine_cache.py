"""Unit tests for the content-addressed result cache."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import NODE_100NM, units
from repro.engine.store import (CacheStats, DiskStore, code_version_salt,
                                default_cache_dir, source_digest)
from repro.engine.jobs import OptimizeJob


@pytest.fixture()
def job():
    line = NODE_100NM.line_with_inductance(1.0 * units.NH_PER_MM)
    return OptimizeJob(line=line, driver=NODE_100NM.driver)


@pytest.fixture()
def cache(tmp_path):
    return DiskStore(tmp_path / "cache")


class TestKeys:
    def test_key_is_stable_sha256(self, cache, job):
        key = cache.key(job)
        assert len(key) == 64
        assert key == cache.key(job)
        int(key, 16)  # hex digest

    def test_key_depends_on_spec(self, cache, job):
        other = OptimizeJob(line=job.line, driver=job.driver, f=0.4)
        assert cache.key(job) != cache.key(other)

    def test_key_depends_on_code_version_salt(self, tmp_path, job):
        a = DiskStore(tmp_path, salt="v1")
        b = DiskStore(tmp_path, salt="v2")
        assert a.key(job) != b.key(job)

    def test_default_salt_is_stable_across_interpreters(self):
        """Fresh interpreters (different hash seeds) on one tree agree;
        importing the package alone never computes the digest."""
        src = str(Path(repro.__file__).resolve().parents[1])
        code = ("import repro\n"
                "from repro.engine.store import code_version_salt\n"
                "assert code_version_salt.cache_info().misses == 0\n"
                "print(code_version_salt())")
        salts = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True,
                                 check=True, timeout=120)
            salts.append(out.stdout.strip())
        assert salts[0] == salts[1] == code_version_salt()
        assert salts[0].startswith("repro-src-")

    def test_source_digest_tracks_every_source_edit(self, tmp_path):
        tree = tmp_path / "pkg"
        (tree / "sub").mkdir(parents=True)
        (tree / "__init__.py").write_text("X = 1\n")
        (tree / "sub" / "mod.py").write_text(
            "def f():\n    return 2  # one\n")
        base = source_digest(tree)
        assert source_digest(tree) == base

        # Same length, same code: only the comment's bytes differ.
        (tree / "sub" / "mod.py").write_text(
            "def f():\n    return 2  # two\n")
        commented = source_digest(tree)
        assert commented != base

        (tree / "sub" / "new.py").write_text("")
        assert source_digest(tree) not in (base, commented)


class TestStoreAndLookup:
    def test_miss_then_hit(self, cache, job):
        assert cache.get(job) is None
        cache.put(job, {"h_opt": 1.0})
        assert cache.get(job) == {"h_opt": 1.0}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_record_is_self_describing(self, cache, job):
        key = cache.put(job, {"h_opt": 1.0})
        record = json.loads(cache.path_for(key).read_text())
        assert record["key"] == key
        assert record["salt"] == cache.salt
        assert record["job"]["kind"] == "optimize"

    def test_corrupt_record_counts_as_miss(self, cache, job):
        key = cache.put(job, {"h_opt": 1.0})
        cache.path_for(key).write_text("{not json")
        assert cache.get(job) is None

    def test_corrupt_record_is_unlinked(self, cache, job):
        """A torn record must not shadow the next healthy ``put``."""
        key = cache.put(job, {"h_opt": 1.0})
        path = cache.path_for(key)
        # Truncate mid-record: the half a killed writer would leave
        # behind if os.replace were not atomic, or a full disk produced.
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.get(job) is None
        assert not path.exists()
        assert cache.misses == 1
        # The store heals on the next put/get cycle.
        cache.put(job, {"h_opt": 2.0})
        assert cache.get(job) == {"h_opt": 2.0}

    def test_record_missing_result_field_is_a_miss(self, cache, job):
        key = cache.put(job, {"h_opt": 1.0})
        path = cache.path_for(key)
        record = json.loads(path.read_text())
        del record["result"]
        path.write_text(json.dumps(record))
        assert cache.get(job) is None
        assert not path.exists()

    def test_plain_miss_does_not_unlink_neighbours(self, cache, job):
        key = cache.put(job, {"h_opt": 1.0})
        other = OptimizeJob(line=job.line, driver=job.driver, f=0.4)
        assert cache.get(other) is None  # never written
        assert cache.path_for(key).exists()

    def test_salt_mismatch_is_a_miss(self, tmp_path, job):
        DiskStore(tmp_path, salt="v1").put(job, {"h_opt": 1.0})
        assert DiskStore(tmp_path, salt="v2").get(job) is None


class TestConcurrentWriters:
    def test_racing_writers_leave_exactly_one_valid_record(self, cache,
                                                           job):
        """Atomic ``os.replace`` under a many-thread write storm.

        Every writer stores a distinct payload under the *same* key; no
        interleaving may produce a torn record, a leftover temp file, or
        more than one record on disk.
        """
        n_writers = 16
        barrier = threading.Barrier(n_writers)
        errors = []

        def write(i):
            try:
                barrier.wait(timeout=10.0)
                cache.put(job, {"h_opt": float(i)})
            except Exception as exc:  # noqa: BLE001 — assert below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i,))
                   for i in range(n_writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors

        records = [path for shard in cache.root.iterdir() if shard.is_dir()
                   for path in shard.iterdir()]
        assert [path.name for path in records] \
            == [f"{cache.key(job)}.json"]  # one record, no .tmp leftovers
        record = json.loads(records[0].read_text())  # parses cleanly
        assert record["result"] in [{"h_opt": float(i)}
                                    for i in range(n_writers)]
        assert cache.get(job) == record["result"]


class TestMaintenance:
    def test_stats_and_clear(self, cache, job):
        other = OptimizeJob(line=job.line, driver=job.driver, f=0.4)
        cache.put(job, {"h_opt": 1.0})
        cache.put(other, {"h_opt": 2.0})
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert cache.clear() == 2
        assert cache.stats().entries == 0

    def test_stats_on_missing_directory(self, tmp_path):
        cache = DiskStore(tmp_path / "never-created")
        assert cache.stats().entries == 0
        assert cache.clear() == 0

    def test_hit_rate_accounting(self):
        stats = CacheStats(entries=0, total_bytes=0, hits=19, misses=1)
        assert stats.hit_rate == pytest.approx(0.95)
        assert "95.0%" in stats.format_summary()

    def test_default_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere-else")
        assert str(default_cache_dir()) == "/tmp/somewhere-else"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert str(default_cache_dir()) == ".repro-cache"
