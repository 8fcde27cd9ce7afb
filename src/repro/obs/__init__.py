"""Observability: cycle-level tracing and the declared-metric registry.

The timing model publishes structured events onto a :class:`TraceBus`
(zero overhead when no bus is installed) and bumps metrics declared in
:data:`METRICS` instead of ad-hoc strings.  Exporters turn a finished
:class:`TraceData` into Chrome ``trace_event`` JSON (Perfetto-loadable),
JSONL, or a stall-reason/occupancy text report.

Entry points: ``Session.run(..., trace=TraceConfig(...))``,
``repro trace <workload>`` on the CLI, and ``repro metrics`` for the
metric catalogue.
"""

from .export import (
    chrome_trace_dict,
    open_text_sink,
    parse_chrome_trace,
    read_jsonl,
    text_report,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (METRICS, Metric, MetricClass, MetricKind, MetricRegistry,
                      MetricScope)
from .trace import CATEGORIES, TraceBus, TraceConfig, TraceData, TraceEvent

__all__ = [
    "CATEGORIES",
    "METRICS",
    "Metric",
    "MetricClass",
    "MetricKind",
    "MetricRegistry",
    "MetricScope",
    "TraceBus",
    "TraceConfig",
    "TraceData",
    "TraceEvent",
    "chrome_trace_dict",
    "open_text_sink",
    "parse_chrome_trace",
    "read_jsonl",
    "text_report",
    "write_chrome_trace",
    "write_jsonl",
]
