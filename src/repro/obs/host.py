"""Host-side spans: where a run's wall time goes, layer by layer.

The simulated machine publishes cycle events on a
:class:`~repro.obs.trace.TraceBus`; this module is the host's
counterpart.  Each layer boundary of the pipeline (a cell, one kernel's
codegen or finalize, staging, a dispatch's functional pass and CU loop,
a workgroup's decode and fold, a store read or write, an HTTP or dist
round trip) runs inside ``with span(name, **attrs) as attrs:``, and
the body may add to ``attrs`` what it learns (the path a lookup took,
what a pass returned).  DESIGN.md ("Host spans") has the table of names.

A finished span is handed to every subscribed sink as one record::

    {"id", "parent", "name", "attrs", "pid", "tid", "start_ns", "end_ns"}

``parent`` is the id of the span open on the same thread when this one
began (``None`` at a root); the two times are :data:`clock` readings.
With no sink subscribed, a span point checks one module global and reads
no clock, so the points stay in every run and there is no switch.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Callable, Dict, Optional, Tuple

Record = Dict[str, object]
Sink = Callable[[Record], None]

#: The span clock (CLOCK_MONOTONIC on Linux: one timeline for every
#: process of a run).  Read only while a sink is subscribed.
clock = time.perf_counter_ns

_sinks: Tuple[Sink, ...] = ()
_ids = itertools.count(1)
_open = threading.local()


def subscribe(sink: Sink) -> Callable[[], None]:
    """Hand every span that finishes from now on to ``sink`` (on the
    thread that finished it); returns the function that unsubscribes."""
    global _sinks
    _sinks += (sink,)

    def unsubscribe() -> None:
        global _sinks
        _sinks = tuple(s for s in _sinks if s is not sink)
    return unsubscribe


class span:
    """``with span(name, **attrs) as attrs:`` records one span around the
    body when a sink is subscribed, and only yields ``attrs`` otherwise."""

    __slots__ = ("name", "attrs", "_record")

    def __init__(self, name: str, **attrs: object) -> None:
        self.name = name
        self.attrs = attrs
        self._record: Optional[Record] = None

    def __enter__(self) -> Dict[str, object]:
        if _sinks:
            stack = getattr(_open, "stack", None)
            if stack is None:
                stack = _open.stack = []
            pid = os.getpid()
            record = self._record = {
                "id": f"{pid}.{next(_ids)}",
                "parent": stack[-1] if stack else None, "name": self.name,
                "attrs": self.attrs, "pid": pid, "tid": threading.get_ident(),
                "start_ns": 0, "end_ns": 0}
            stack.append(record["id"])
            record["start_ns"] = clock()
        return self.attrs

    def __exit__(self, *exc: object) -> None:
        record = self._record
        if record is not None:
            record["end_ns"] = clock()
            _open.stack.pop()
            for sink in _sinks:
                sink(record)
