"""Batch-evaluation engine: job specs, caching, scheduling, metrics.

This package turns the library's one-shot functions into a job-oriented
batch service.  Declarative job specs (:mod:`repro.engine.jobs`) are
content-addressed into a result store (:mod:`repro.engine.store`) and
scheduled (:mod:`repro.engine.executor`) over a serial, thread or
process backend (:mod:`repro.engine.backends`), whose every dispatch is
one :func:`repro.engine.jobs.run_jobs` call: per-kind batches, per-job
fault isolation, and batch instrumentation
(:mod:`repro.engine.metrics`).  Store keys are salted
with a digest of the package source, so a stored result is replayed
only against the code that computed it.  The ``repro-batch`` CLI
(:mod:`repro.engine.cli`) evaluates JSON/CSV manifests
(:mod:`repro.engine.manifest`).

The ``repro-batch``, ``repro-experiments`` and ``repro-verify`` CLIs
evaluate through the engine.  A library call such as
:func:`repro.core.sweep.sweep_inductance` runs in-process; wrap it in
its job spec (``SweepJob``) to cache it.
"""

from .backends import (BACKEND_NAMES, Backend, BackendStats, ProcessBackend,
                       SerialBackend, ThreadBackend, make_backend)
from .executor import BatchExecutor, BatchReport, JobOutcome
from .store import (STORE_NAMES, CacheStats, DiskStore, MemoryStore,
                    ResultStore, TieredStore, code_version_salt,
                    default_cache_dir, flight_key, make_store)
from .jobs import (CriticalInductanceJob, DelayJob, ExperimentJob,
                   OptimizeJob, SweepJob, TransientJob, job_to_dict)
from .manifest import ManifestError, load_manifest
from .metrics import BatchMetrics, JobMetrics, latency_percentiles

__all__ = [
    "BACKEND_NAMES", "Backend", "BackendStats",
    "BatchExecutor", "BatchMetrics",
    "BatchReport", "CacheStats", "CriticalInductanceJob",
    "DelayJob", "DiskStore", "ExperimentJob", "JobMetrics",
    "JobOutcome", "ManifestError", "MemoryStore", "OptimizeJob",
    "ProcessBackend", "ResultStore", "STORE_NAMES",
    "SerialBackend", "SweepJob", "ThreadBackend",
    "TieredStore", "TransientJob", "code_version_salt",
    "default_cache_dir", "flight_key", "job_to_dict",
    "latency_percentiles", "load_manifest", "make_backend", "make_store",
]
