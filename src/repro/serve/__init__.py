"""Serving layer: asyncio evaluation service with dynamic micro-batching.

The vectorized kernel layer only reaches its measured speedups when a
caller hands it a pre-assembled batch — but interactive workloads (a
signal-integrity service fielding per-net delay queries, repeater-sizing
requests) arrive one at a time.  This package closes that gap the way an
inference server does: concurrent single-point requests are admitted
into per-class queues, coalesced by a max-batch-size / max-linger
policy into single ``threshold_delay_v`` / ``critical_inductance_v`` /
``optimize_repeater_many`` calls, and fanned back to per-request futures
— with per-lane fault isolation, bounded-queue admission control (429),
per-request queue deadlines (504) and graceful drain.  Each micro-batch
is one dispatch onto a shared execution backend
(:mod:`repro.engine.backends` — serial, thread or warm-process
workers, selected via ``repro-serve serve --backend``), evaluated by
:func:`repro.engine.jobs.run_jobs`, the function every batch-engine
dispatch runs.

Modules: :mod:`~repro.serve.protocol` (wire format + error codes),
:mod:`~repro.serve.batcher` (the dynamic micro-batcher),
:mod:`~repro.serve.service` (cache, batcher and metrics wiring),
:mod:`~repro.serve.metrics` (the ``/metrics`` registry),
:mod:`~repro.serve.server` / :mod:`~repro.serve.client` (stdlib HTTP
front end and blocking client) and :mod:`~repro.serve.cli` (the
``repro-serve`` command).
"""

from .batcher import (DEFAULT_MAX_BATCH_SIZE, DEFAULT_MAX_LINGER,
                      DEFAULT_MAX_QUEUE_DEPTH, DynamicBatcher)
from .client import ServeClient, ServeClientError
from .metrics import ServerMetrics
from .protocol import (BadRequestError, DeadlineExceededError,
                       EvaluationFailedError, QueueFullError, ServeError,
                       ServeRequest, ServiceClosedError, encode_error,
                       encode_result, parse_request)
from .server import ReproServer, ServerThread
from .service import ReproService

__all__ = [
    "BadRequestError", "DEFAULT_MAX_BATCH_SIZE", "DEFAULT_MAX_LINGER",
    "DEFAULT_MAX_QUEUE_DEPTH", "DeadlineExceededError", "DynamicBatcher",
    "EvaluationFailedError", "QueueFullError", "ReproServer",
    "ReproService", "ServeClient", "ServeClientError", "ServeError",
    "ServeRequest", "ServerMetrics", "ServerThread", "ServiceClosedError",
    "encode_error", "encode_result", "parse_request",
]
