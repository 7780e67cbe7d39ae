"""One result plane: tiered pluggable result stores.

Every layer that replays results — the engine's
:class:`~repro.engine.executor.BatchExecutor`, the serve layer's
``ReproService``, ``repro-verify`` and ``repro-experiments`` — funnels
through one :class:`ResultStore` seam:

* :class:`DiskStore` — the content-addressed on-disk store: records
  sharded by the first two key hex digits, written atomically;
* :class:`MemoryStore` — a byte-budgeted LRU of decoded payloads; hits
  never touch the filesystem.  It is the memory tier of
  :class:`TieredStore`: alone it would start empty in every one-shot
  CLI process;
* :class:`TieredStore` — memory over disk: write-through puts,
  promote-on-hit, memory hits never open a file.

Stores are selected by name through :func:`make_store`, mirroring
:func:`repro.engine.backends.make_backend`, so every CLI shares one
``--store {disk,tiered}`` vocabulary.

:func:`flight_key` is the salt-free spec hash both in-process dedups
key on: the executor's per-batch dictionary of leader lanes and the
serve layer's table of in-flight requests.

The cache key of a job is ``SHA-256(canonical-JSON(spec) + "\\0" + salt)``
where the salt is a digest of the ``repro`` package source
(:func:`code_version_salt`): any edit to any module, comments included,
starts a fresh key space, so results computed by one version of the
code are never replayed against another.  Only *successful* results are
stored — a failed job is always retried by the next batch that
contains it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..faults import hooks as _faults
from .jobs import canonical_json, job_to_dict

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Selectable store names, in the order CLIs advertise them.
STORE_NAMES = ("disk", "tiered")

#: Default byte budget for the memory tier (64 MiB).
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024


def default_cache_dir() -> Path:
    """Cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def source_digest(root: "os.PathLike[str] | str") -> str:
    """SHA-256 over every ``*.py`` file under ``root``.

    Files are hashed in sorted relative-path order, each as its POSIX
    relative path, its byte length and its bytes, so renaming, adding
    or editing a file — a comment included — changes the digest.
    """
    root = Path(root)
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix()
                      for path in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_version_salt() -> str:
    """Salt tying cache keys to the source of the ``repro`` package.

    Computed on first use (a store's construction) and then reused for
    the life of the process.
    """
    return "repro-src-" + source_digest(Path(__file__).resolve().parents[1])


def flight_key(job: Any) -> str:
    """Version-independent spec hash used to coalesce identical work.

    Unlike the store key this carries no version salt: two in-process
    evaluations of the same spec are the same work regardless of which
    store (if any) the results land in.
    """
    text = canonical_json(job_to_dict(job))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Store occupancy plus this session's hit/miss accounting."""

    entries: int = 0
    total_bytes: int = 0
    hits: int = 0
    misses: int = 0
    salt: str = field(default_factory=code_version_salt)
    medium: str = "on disk"

    @property
    def hit_rate(self) -> float:
        """Session hit rate in [0, 1]; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def format_summary(self) -> str:
        return (f"cache: {self.entries} entries, {self.total_bytes} bytes "
                f"{self.medium}; session {self.hits} hits / {self.misses} "
                f"misses ({100.0 * self.hit_rate:.1f}% hit rate); salt "
                f"{self.salt!r}")


# ----------------------------------------------------------------------
# The store protocol.
# ----------------------------------------------------------------------
class ResultStore:
    """Base result store: content-addressed keys, get/put/stats/close.

    Subclasses implement :meth:`get`, :meth:`put`, :meth:`stats` and
    :meth:`clear`; :meth:`close` is idempotent and a closed store may
    still be read (closing releases resources, it does not invalidate
    records).  ``hits``/``misses`` are per-instance session counters.
    """

    name = "store"

    #: Bound on the per-store key memo (entries are ~100 bytes each).
    _KEY_CACHE_LIMIT = 4096

    def __init__(self, *, salt: Optional[str] = None) -> None:
        self.salt = salt if salt is not None else code_version_salt()
        self.hits = 0
        self.misses = 0
        self._key_cache: Dict[Any, str] = {}

    def key(self, job: Any) -> str:
        """SHA-256 hex digest of the job's canonical spec + version salt.

        Hashable jobs (the frozen spec dataclasses) are memoized: on a
        hot-repeat workload the canonical-JSON + SHA-256 work would
        otherwise dominate a memory-tier hit.
        """
        try:
            cached = self._key_cache.get(job)
        except TypeError:               # unhashable job: compute directly
            return self._compute_key(job)
        if cached is not None:
            return cached
        key = self._compute_key(job)
        if len(self._key_cache) >= self._KEY_CACHE_LIMIT:
            self._key_cache.clear()
        self._key_cache[job] = key
        return key

    def _compute_key(self, job: Any) -> str:
        text = canonical_json(job_to_dict(job)) + "\0" + self.salt
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get(self, job: Any) -> Optional[Dict[str, Any]]:
        """Return the stored result dict for ``job``, or ``None``."""
        raise NotImplementedError

    def put(self, job: Any, result: Dict[str, Any]) -> str:
        """Store a successful result; returns the record key."""
        raise NotImplementedError

    def stats(self) -> CacheStats:
        """Occupancy and this instance's session hit/miss counts."""
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (idempotent; records stay readable)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class DiskStore(ResultStore):
    """Content-addressed on-disk store mapping job specs to records.

    Records are small JSON files sharded by the first two key hex
    digits (``root/ab/<key>.json``), written atomically (temp file +
    ``os.replace``) so concurrent workers and interrupted runs cannot
    leave a torn record.
    """

    name = "disk"

    def __init__(self, root: "os.PathLike[str] | str | None" = None, *,
                 salt: Optional[str] = None) -> None:
        super().__init__(salt=salt)
        self.root = Path(root) if root is not None else default_cache_dir()

    # ------------------------------------------------------------------
    # Paths.
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """On-disk path of the record with the given key."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / store.
    # ------------------------------------------------------------------
    def get(self, job: Any) -> Optional[Dict[str, Any]]:
        """Return the cached result dict for ``job``, or ``None`` on miss.

        A record that exists but cannot be parsed — torn JSON from a
        killed writer or a full disk, or a record missing its ``result``
        field — counts as a miss *and is unlinked*, so a corrupt file
        never shadows the healthy record a later ``put`` writes.  A
        plain I/O error (``OSError``) is a miss *without* the unlink:
        the record content was never seen, so a transient failure — a
        file-descriptor limit, an injected ``cache.get.os_error`` —
        must not evict a healthy record.
        """
        path = self.path_for(self.key(job))
        try:
            if _faults.ACTIVE is not None:
                # The record name is content-addressed (stable across
                # runs); the cache root is not — keep event details
                # replay-comparable.
                _faults.fire("cache.get.os_error", record=path.name)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if _faults.ACTIVE is not None:
                text = _faults.mutate("cache.get.torn_record", text)
            record = json.loads(text)
            result = record["result"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        except (ValueError, KeyError):
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def _make_shard(self, shard: Path, key: str) -> None:
        if _faults.ACTIVE is not None:
            _faults.fire("store.disk.shard_unwritable", shard=key[:2])
        shard.mkdir(parents=True, exist_ok=True)

    def put(self, job: Any, result: Dict[str, Any]) -> str:
        """Store a successful result; returns the record key."""
        key = self.key(job)
        path = self.path_for(key)
        self._make_shard(path.parent, key)
        record = {"key": key, "salt": self.salt,
                  "job": job_to_dict(job), "result": result}
        # The temp name must be unique per *writer*, not just per
        # process: concurrent threads sharing one name would interleave
        # writes into one inode and os.replace could promote a torn
        # record.  mkstemp gives every writer its own file.
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{key[:8]}.", suffix=".tmp")
        try:
            if _faults.ACTIVE is not None \
                    and _faults.should("cache.put.stale_tmp"):
                # Simulate a concurrent writer killed between mkstemp
                # and os.replace: its orphaned temp file stays behind.
                stale_fd, _stale = tempfile.mkstemp(
                    dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp")
                os.close(stale_fd)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True, allow_nan=False)
            if _faults.ACTIVE is not None:
                _faults.fire("cache.put.os_error", record=path.name)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return key

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------
    def _record_paths(self):
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                for path in sorted(shard.glob("*.json")):
                    yield path

    def tmp_files(self) -> list:
        """Orphaned writer temp files (``*.tmp``) across every shard.

        A healthy store has none: writers either promote their temp
        file with ``os.replace`` or unlink it on failure.  Anything
        listed here came from a writer that died between the two — the
        invariant the fault harness counts against injected
        ``cache.put.stale_tmp`` events.
        """
        if not self.root.is_dir():
            return []
        return sorted(path for shard in self.root.iterdir()
                      if shard.is_dir() for path in shard.glob("*.tmp"))

    def stats(self) -> CacheStats:
        """Disk occupancy and this instance's session hit/miss counts."""
        entries = 0
        total_bytes = 0
        for path in self._record_paths():
            entries += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        return CacheStats(entries=entries, total_bytes=total_bytes,
                          hits=self.hits, misses=self.misses,
                          salt=self.salt)

    def clear(self) -> int:
        """Delete every record (and orphaned writer temp files);
        returns the number of records removed."""
        removed = 0
        for path in list(self._record_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.tmp_files():
            try:
                path.unlink()
            except OSError:
                pass
        if self.root.is_dir():
            for shard in list(self.root.iterdir()):
                if shard.is_dir():
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
        return removed


class MemoryStore(ResultStore):
    """Byte-budgeted LRU of decoded result payloads.

    Hits never touch the filesystem: the payload object decoded at
    ``put`` time is returned directly (callers treat results as
    immutable throughout the stack).  An entry's cost is the byte
    length of its canonical JSON, so the budget tracks what the same
    records would occupy on disk; the store evicts least-recently-used
    entries until the total fits, and a single payload larger than the
    whole budget is simply not retained.

    Thread-safe: every operation holds one lock, so a store shared by
    backend workers and the executor keeps its budget invariant under
    concurrent puts (the ``store.memory.evict_race`` fault site models
    a racing evictor removing an extra entry — a lost entry is only a
    future miss, never a wrong answer).
    """

    name = "memory"

    def __init__(self, max_bytes: int = DEFAULT_MEMORY_BUDGET, *,
                 salt: Optional[str] = None) -> None:
        super().__init__(salt=salt)
        if max_bytes < 0:
            raise ValueError(f"memory budget must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Dict[str, Any], int]]" = \
            OrderedDict()
        self._total_bytes = 0

    def get(self, job: Any) -> Optional[Dict[str, Any]]:
        key = self.key(job)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, job: Any, result: Dict[str, Any]) -> str:
        key = self.key(job)
        size = len(canonical_json(result).encode("utf-8"))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._total_bytes -= old[1]
            if size <= self.max_bytes:
                self._entries[key] = (result, size)
                self._total_bytes += size
                self._evict_locked()
        return key

    def _evict_locked(self) -> None:
        while self._total_bytes > self.max_bytes and self._entries:
            _, (_, size) = self._entries.popitem(last=False)
            self._total_bytes -= size
            if _faults.ACTIVE is not None \
                    and _faults.should("store.memory.evict_race"):
                # A racing evictor got the same LRU head: one extra
                # entry disappears.  The budget invariant still holds
                # and a lost entry is only a future miss.
                if self._entries:
                    _, (_, extra) = self._entries.popitem(last=False)
                    self._total_bytes -= extra

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(entries=len(self._entries),
                              total_bytes=self._total_bytes,
                              hits=self.hits, misses=self.misses,
                              salt=self.salt, medium="in memory")

    def clear(self) -> int:
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._total_bytes = 0
        return removed

    def close(self) -> None:
        self.clear()


class TieredStore(ResultStore):
    """Memory over disk: write-through puts, promote-on-hit.

    ``get`` consults the memory tier first — a memory hit never touches
    the filesystem — and promotes disk hits into memory, so a hot
    working set converges to memory speed while the disk tier stays the
    durable system of record.  ``put`` writes through to disk first
    (the disk record is the one other processes share) and then
    populates memory; a disk write failure propagates to the caller
    exactly as :class:`DiskStore`'s would, without poisoning the memory
    tier with a record the disk never accepted.

    Maintenance (``root``/``_record_paths``/``tmp_files``) delegates to
    the disk tier so the fault harness's cache-integrity checks and the
    CLIs see the durable records; ``clear`` empties both tiers.
    """

    name = "tiered"

    def __init__(self, memory: Optional[MemoryStore] = None,
                 disk: Optional[DiskStore] = None, *,
                 root: "os.PathLike[str] | str | None" = None,
                 max_bytes: int = DEFAULT_MEMORY_BUDGET,
                 salt: Optional[str] = None) -> None:
        super().__init__(salt=salt)
        self.memory = (memory if memory is not None
                       else MemoryStore(max_bytes, salt=self.salt))
        self.disk = (disk if disk is not None
                     else DiskStore(root, salt=self.salt))

    @property
    def root(self) -> Path:
        return self.disk.root

    def path_for(self, key: str) -> Path:
        return self.disk.path_for(key)

    def key(self, job: Any) -> str:
        return self.disk.key(job)

    def get(self, job: Any) -> Optional[Dict[str, Any]]:
        result = self.memory.get(job)
        if result is not None:
            self.hits += 1
            return result
        result = self.disk.get(job)
        if result is None:
            self.misses += 1
            return None
        # Promote-on-hit: idempotent (re-promoting replaces the entry
        # with an identical payload at identical cost).
        self.memory.put(job, result)
        self.hits += 1
        return result

    def put(self, job: Any, result: Dict[str, Any]) -> str:
        key = self.disk.put(job, result)
        self.memory.put(job, result)
        return key

    def _record_paths(self):
        return self.disk._record_paths()

    def tmp_files(self) -> list:
        return self.disk.tmp_files()

    def stats(self) -> CacheStats:
        disk = self.disk.stats()
        return CacheStats(entries=disk.entries,
                          total_bytes=disk.total_bytes,
                          hits=self.hits, misses=self.misses,
                          salt=self.salt)

    def tier_stats(self) -> Dict[str, CacheStats]:
        """Per-tier accounting (``repro-batch cache stats``)."""
        return {"memory": self.memory.stats(), "disk": self.disk.stats()}

    def clear(self) -> int:
        self.memory.clear()
        return self.disk.clear()

    def close(self) -> None:
        self.memory.close()
        self.disk.close()


# ----------------------------------------------------------------------
# The factory every consumer layer constructs through.
# ----------------------------------------------------------------------
def make_store(store: Any = None, *,
               root: "os.PathLike[str] | str | None" = None,
               salt: Optional[str] = None) -> ResultStore:
    """Resolve a store selection to a live :class:`ResultStore`.

    ``store`` may be a name from :data:`STORE_NAMES`, ``None`` (disk —
    today's behaviour), or an existing :class:`ResultStore` instance
    (returned as-is, so a shared instance can be threaded through
    layers).  ``root`` selects the disk directory; a tiered store's
    memory tier gets :data:`DEFAULT_MEMORY_BUDGET`.
    """
    if isinstance(store, ResultStore):
        return store
    name = "disk" if store is None else str(store).lower()
    if name == "disk":
        return DiskStore(root, salt=salt)
    if name == "tiered":
        return TieredStore(root=root, salt=salt)
    raise ValueError(f"unknown store {store!r}; choose from "
                     f"{', '.join(STORE_NAMES)}")


def add_store_arguments(parser: Any) -> None:
    """Attach the shared ``--store`` CLI option.

    Every CLI that constructs a store (``repro-batch``, ``repro-serve``,
    ``repro-verify``, ``repro-experiments``) advertises the same
    vocabulary and resolves it through :func:`store_from_args`.
    """
    parser.add_argument("--store", choices=STORE_NAMES, default=None,
                        help="result store flavor: disk (default) "
                             "or tiered (a byte-budgeted memory LRU "
                             "over disk)")


def store_from_args(args: Any) -> ResultStore:
    """Build the selected store from options parsed by
    :func:`add_store_arguments` (plus the CLI's own ``--cache-dir``)."""
    return make_store(getattr(args, "store", None),
                      root=getattr(args, "cache_dir", None))


def describe_store(store: Optional[ResultStore]) -> str:
    """One-line human description for CLI startup banners."""
    if store is None:
        return "off"
    if isinstance(store, TieredStore):
        return (f"tiered ({store.root}, memory<= "
                f"{store.memory.max_bytes} bytes)")
    root = getattr(store, "root", None)
    return f"{store.name} ({root})" if root is not None else store.name
