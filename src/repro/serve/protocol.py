"""Wire protocol of the serve subsystem: requests, responses, errors.

A request is one JSON object selecting a request class (``kind``) and
carrying the same fields as the matching engine job spec — the protocol
is deliberately a thin veneer over :mod:`repro.engine.jobs`, so a served
request, a ``repro-batch`` manifest row and a cache record all describe
the computation identically (and therefore share cache keys):

``{"kind": "delay", "line": {"r": ..., "l": ..., "c": ...},
   "driver": {"r_s": ..., "c_p": ..., "c_0": ...}, "h": ..., "k": ...,
   "f": 0.5}``

Two protocol-level fields ride on top of the job spec and never reach
the job (or the cache key): ``timeout`` (seconds the request may spend
queued before the batcher expires it) and ``no_cache`` (bypass the
result cache both ways).

Responses are JSON objects: ``{"ok": true, "kind": ..., "result": ...,
"cache": "hit" | "miss" | "bypass" | "off", "batch_size": N}`` on
success, ``{"ok": false, "error": {"code": ..., "message": ...}}`` on
failure.  Error codes map onto HTTP statuses the way an inference
server's do: admission-control rejections are ``429``, expired
deadlines ``504``, a draining server ``503``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Type

from ..engine.jobs import (CriticalInductanceJob, DelayJob, OptimizeJob,
                          flag_of, nonfinite_path)
from ..errors import ParameterError

#: Request classes the service batches, mapped to their engine job spec.
REQUEST_JOB_TYPES: Dict[str, Type[Any]] = {
    DelayJob.kind: DelayJob,
    CriticalInductanceJob.kind: CriticalInductanceJob,
    OptimizeJob.kind: OptimizeJob,
}

#: Keys consumed by the protocol layer, stripped before job parsing.
PROTOCOL_KEYS = ("timeout", "no_cache")


class ServeError(Exception):
    """Base of every protocol-visible failure; carries an error code."""

    code = "internal"
    http_status = 500

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.message = message
        self.details = {k: v for k, v in details.items() if v is not None}


class BadRequestError(ServeError):
    """Malformed or unsupported request document."""

    code = "bad_request"
    http_status = 400


class QueueFullError(ServeError):
    """Admission control: the request class's queue is at capacity."""

    code = "queue_full"
    http_status = 429


class DeadlineExceededError(ServeError):
    """The request expired in the queue before evaluation started."""

    code = "deadline_exceeded"
    http_status = 504


class ServiceClosedError(ServeError):
    """The service is draining and no longer admits new requests."""

    code = "shutting_down"
    http_status = 503


class EvaluationFailedError(ServeError):
    """The request was evaluated and its own lane failed."""

    code = "evaluation_failed"
    http_status = 500


@dataclass(frozen=True)
class ServeRequest:
    """One admitted request: the engine job plus protocol options."""

    job: Any
    timeout: Optional[float] = None
    no_cache: bool = False

    @property
    def kind(self) -> str:
        return self.job.kind


def parse_request(data: Any) -> ServeRequest:
    """Validate a request document and build its :class:`ServeRequest`.

    Raises :class:`BadRequestError` with a human-readable message for
    every malformed input — the server turns it into a 400 response
    rather than a traceback.
    """
    if not isinstance(data, dict):
        raise BadRequestError(
            f"request must be a JSON object, got {type(data).__name__}")
    # json.loads accepts NaN/Infinity tokens; a non-finite parameter
    # would poison a whole kernel batch and could reach the cache.
    nonfinite = nonfinite_path(data)
    if nonfinite is not None:
        raise BadRequestError(
            f"request field {nonfinite!r} is not a finite number "
            f"(NaN/Infinity are not accepted on the wire)")
    kind = data.get("kind")
    if kind not in REQUEST_JOB_TYPES:
        known = ", ".join(sorted(REQUEST_JOB_TYPES))
        raise BadRequestError(
            f"unknown request kind {kind!r}; served kinds: {known}")
    if data.get("polish_with_newton"):
        # The batched solver's polish step is not lane-equivalent to the
        # scalar one, which would break the serve layer's bitwise
        # solo-vs-batched guarantee — so the service refuses it.
        raise BadRequestError(
            "polish_with_newton is not supported by the serve batcher")

    timeout = data.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise BadRequestError(
                f"timeout must be a number of seconds, got {timeout!r}")
        if timeout <= 0.0:
            raise BadRequestError(
                f"timeout must be positive, got {timeout}")

    body = {key: value for key, value in data.items()
            if key not in PROTOCOL_KEYS}
    try:
        no_cache = flag_of(data, "no_cache", False)
        job = REQUEST_JOB_TYPES[kind].from_dict(body)
    except (KeyError, TypeError, ValueError, ParameterError) as exc:
        detail = (f"missing field {exc}" if isinstance(exc, KeyError)
                  else str(exc))
        raise BadRequestError(f"invalid {kind} request: {detail}")
    return ServeRequest(job=job, timeout=timeout, no_cache=no_cache)


def encode_result(kind: str, result: Dict[str, Any], *, cache: str,
                  batch_size: int) -> Dict[str, Any]:
    """Success response body.  ``cache`` is hit/miss/bypass/off."""
    return {"ok": True, "kind": kind, "result": result,
            "cache": cache, "batch_size": batch_size}


def encode_error(exc: ServeError) -> Tuple[int, Dict[str, Any]]:
    """(HTTP status, response body) of a protocol-visible failure."""
    error: Dict[str, Any] = {"code": exc.code, "message": exc.message}
    error.update(exc.details)
    return exc.http_status, {"ok": False, "error": error}
