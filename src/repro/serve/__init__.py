"""``repro serve``: a resident simulation daemon.

The daemon keeps one process alive across many requests so everything
expensive stays hot: compiled :class:`~repro.core.api.DualKernel`\\ s,
predecode tables, the parsed-trace memo, and the on-disk
:class:`~repro.harness.cache.TraceStore`.  Clients POST the same frozen
request objects every other surface uses
(:mod:`repro.core.requests`) to ``/v1/run|suite|sweep``, poll
``/v1/jobs/<id>``, and read scheduler counters at ``/v1/metrics``.

The interesting part is the :class:`~repro.serve.scheduler.Scheduler`:
queued run cells that share a :func:`~repro.harness.cache.trace_fingerprint`
are drained as one batch — the first cell captures the functional trace,
every other cell replays it through the timing model — so a burst of
timing-only config variants pays for functional semantics exactly once.

Layout: :mod:`~repro.serve.protocol` (response wire types),
:mod:`~repro.serve.scheduler` (priority queue, batching, rate limits,
drain — synchronous and fully testable without a socket),
:mod:`~repro.serve.daemon` (HTTP/1.1 front end, one thread per
connection), :mod:`~repro.serve.client` (blocking convenience client),
and :mod:`~repro.serve.wire` (the HTTP/1.1 framing both share).
"""

from .client import DaemonClient, DaemonError
from .protocol import ErrorInfo, JobStatus, MetricsSnapshot
from .scheduler import (
    Draining,
    QueueFull,
    RateLimited,
    Scheduler,
    SchedulerError,
    ServerJob,
    TokenBucket,
    UnknownJob,
)

__all__ = [
    "DaemonClient",
    "DaemonError",
    "Draining",
    "ErrorInfo",
    "JobStatus",
    "MetricsSnapshot",
    "QueueFull",
    "RateLimited",
    "Scheduler",
    "SchedulerError",
    "ServerJob",
    "TokenBucket",
    "UnknownJob",
]
