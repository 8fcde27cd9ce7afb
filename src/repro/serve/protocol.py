"""Response wire types of the ``repro serve`` daemon.

Requests on the wire *are* the :mod:`repro.core.requests` objects — the
daemon adds nothing to them.  This module is the other direction: the
three response shapes a client can receive, as frozen dataclasses with
the same versioned-envelope discipline (``{"api": "repro-api/1",
"kind": ...}``) and the same :class:`~repro.core.requests.Envelope`
codec — fields declared once with ``wire()``, unknown keys and wrongly
typed values rejected — so both daemon and client deserialize through
one schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..core.requests import (
    Envelope,
    RequestError,
    _bool,
    _is,
    _names,
    _str,
    check_api_version,
    wire,
)

#: Lifecycle of a daemon job; terminal states are ``done`` and ``failed``.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass(frozen=True)
class ErrorInfo(Envelope):
    """A structured error response (the body of every non-2xx reply)."""

    status: int = wire(int)
    message: str = wire(_str, "")

    kind = "error"
    noun = "response"


@dataclass(frozen=True)
class JobStatus(Envelope):
    """One job as the daemon reports it (``GET /v1/jobs/<id>``).

    ``progress`` is the streamed per-cell progress feed (the same lines
    the CLI prints to stderr); ``execution`` is the *observed* mode of a
    finished run job (``capture`` vs ``replay`` — how the batch
    scheduler proved it shared a trace); ``batch_id``/``batch_size``
    identify the capture-sharing group the job was drained with.
    """

    job_id: str = wire(_str)
    request_kind: str = wire(_str)
    state: str = wire(_str)
    detail: str = wire(_str, "")
    client: str = wire(_str, "")
    priority: int = wire(int, 0)
    submitted_at: float = wire(float, 0.0)
    started_at: Optional[float] = wire(float, None, sparse=True)
    finished_at: Optional[float] = wire(float, None, sparse=True)
    queue_seconds: Optional[float] = wire(float, None, sparse=True)
    wall_seconds: Optional[float] = wire(float, None, sparse=True)
    progress: Tuple[str, ...] = wire(_names, (), dump=list)
    execution: str = wire(_str, "")
    batch_id: str = wire(_str, "")
    batch_size: int = wire(int, 0)
    error: Optional[str] = wire(_str, None, sparse=True)
    result: Optional[Dict[str, object]] = wire(_is(dict), None, sparse=True)

    kind = "job"
    noun = "response"

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise RequestError(
                f"unknown job state {self.state!r}; expected one of "
                f"{JOB_STATES}"
            )
        object.__setattr__(self, "progress", tuple(self.progress))

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")


@dataclass(frozen=True)
class MetricsSnapshot(Envelope):
    """Daemon counters (``GET /v1/metrics``).

    ``captures``/``replays``/``executes`` count finished run cells by
    their observed execution mode; ``replay_share`` is the batching win
    (replays over all store-mediated cells).  ``trace_hits``/``misses``
    are the shared :class:`~repro.harness.cache.TraceStore` counters.
    The ``wall_*_seconds`` buckets split busy wall time by request kind,
    and ``wall_queued_seconds`` accumulates time jobs spent waiting.
    """

    uptime_seconds: float = wire(float, 0.0)
    queue_depth: int = wire(int, 0)
    running: int = wire(int, 0)
    submitted: int = wire(int, 0)
    completed: int = wire(int, 0)
    failed: int = wire(int, 0)
    rate_limited: int = wire(int, 0)
    rejected: int = wire(int, 0)
    timeouts: int = wire(int, 0)
    captures: int = wire(int, 0)
    replays: int = wire(int, 0)
    executes: int = wire(int, 0)
    batches: int = wire(int, 0)
    max_batch: int = wire(int, 0)
    replay_share: float = wire(float, 0.0)
    trace_hits: int = wire(int, 0)
    trace_misses: int = wire(int, 0)
    wall_queued_seconds: float = wire(float, 0.0)
    wall_run_seconds: float = wire(float, 0.0)
    wall_suite_seconds: float = wire(float, 0.0)
    wall_sweep_seconds: float = wire(float, 0.0)
    draining: bool = wire(_bool, False)

    kind = "metrics"
    noun = "response"


#: Response kinds on the wire, mapped to their classes (the response
#: analogue of :data:`repro.core.requests.REQUEST_KINDS`).
RESPONSE_KINDS: Dict[str, "type[Envelope]"] = {
    "error": ErrorInfo,
    "job": JobStatus,
    "metrics": MetricsSnapshot,
}


def parse_response(payload: Mapping[str, object]):
    """One response object from its envelope payload (version-gated)."""
    check_api_version(payload, "response")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in RESPONSE_KINDS:
        known = ", ".join(sorted(RESPONSE_KINDS))
        raise RequestError(
            f"unknown response kind {kind!r}; expected one of: {known}"
        )
    return RESPONSE_KINDS[kind].from_payload(payload)


__all__ = [
    "JOB_STATES",
    "RESPONSE_KINDS",
    "ErrorInfo",
    "JobStatus",
    "MetricsSnapshot",
    "parse_response",
]
