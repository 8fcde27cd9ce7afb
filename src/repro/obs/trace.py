"""Cycle-level trace bus: structured events out of the timing model.

The timing model publishes events (instruction issues, cache lookups,
VRF bank conflicts, IB flushes, stall reasons, ``s_waitcnt`` waits,
dispatch/workgroup lifecycle) onto a :class:`TraceBus`.  The bus is
**zero-overhead when absent**: every emit site is guarded by an
``is not None`` check on the GPU's ``trace`` attribute, so untraced runs
execute the exact pre-instrumentation path.

Volume control:

* **category masks** — :class:`TraceConfig.categories` selects which
  event classes are recorded at all;
* **sampling** — ``sample_every=N`` keeps one event in N per category
  (stall *accounting* stays exact; only the event stream is thinned);
* **hard cap** — ``max_events`` bounds memory; overflow is counted in
  ``dropped``, never silently ignored.

The result of a traced run is an immutable :class:`TraceData`, which is
JSON-serializable (:meth:`TraceData.to_payload`) so traces survive the
trip back from a forked worker and can be exported to Chrome
``trace_event`` JSON or JSONL (see :mod:`repro.obs.export`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Every event category the timing model can publish.
CATEGORIES = (
    "issue",     # instruction issue/retire (dur = issue occupancy)
    "mem",       # memory instruction lifetime (issue -> completion)
    "cache",     # per-cache hit/miss/fill outcomes
    "vrf",       # register-file operand gathers and bank conflicts
    "flush",     # instruction-buffer flushes
    "stall",     # one blocked interval: ts = start, dur = cycles, name = why
    "wait",      # s_waitcnt arrival with pending counts
    "dispatch",  # kernel dispatch + workgroup place/retire lifecycle
    "fetch",     # instruction-buffer fill requests
)

_CATEGORY_SET = frozenset(CATEGORIES)


def _normalize(categories: Sequence[str]) -> Tuple[str, ...]:
    out = []
    for cat in categories:
        if cat not in _CATEGORY_SET:
            raise ValueError(
                f"unknown trace category {cat!r}; known: {', '.join(CATEGORIES)}"
            )
        if cat not in out:
            out.append(cat)
    return tuple(sorted(out))


@dataclass(frozen=True)
class TraceConfig:
    """What to record.  Hashable and picklable (rides inside a
    :class:`repro.harness.parallel.Job`'s request)."""

    categories: Tuple[str, ...] = CATEGORIES
    sample_every: int = 1
    max_events: int = 1_000_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", _normalize(self.categories))
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")

    @classmethod
    def parse(
        cls,
        spec: Optional[str] = None,
        sample_every: int = 1,
        max_events: int = 1_000_000,
    ) -> "TraceConfig":
        """Build from a CLI-style spec: ``"issue,cache,stall"`` or ``"all"``."""
        if spec is None or not spec.strip() or spec.strip() == "all":
            categories: Sequence[str] = CATEGORIES
        else:
            categories = [c.strip() for c in spec.split(",") if c.strip()]
        return cls(categories=tuple(categories), sample_every=sample_every,
                   max_events=max_events)

    def to_payload(self) -> Dict[str, object]:
        """JSON-friendly form (wire inverse of :meth:`from_payload`)."""
        return {
            "categories": list(self.categories),
            "sample_every": self.sample_every,
            "max_events": self.max_events,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "TraceConfig":
        return cls(
            categories=tuple(payload.get("categories", CATEGORIES)),  # type: ignore[arg-type]
            sample_every=int(payload.get("sample_every", 1)),  # type: ignore[arg-type]
            max_events=int(payload.get("max_events", 1_000_000)),  # type: ignore[arg-type]
        )


class TraceEvent:
    """One structured event.  ``cu``/``wf`` are -1 for device-scope events."""

    __slots__ = ("ts", "dur", "cat", "name", "cu", "wf", "args")

    def __init__(self, ts: int, dur: int, cat: str, name: str,
                 cu: int = -1, wf: int = -1,
                 args: Optional[Dict[str, object]] = None) -> None:
        self.ts = ts
        self.dur = dur
        self.cat = cat
        self.name = name
        self.cu = cu
        self.wf = wf
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent(ts={self.ts}, dur={self.dur}, cat={self.cat!r}, "
                f"name={self.name!r}, cu={self.cu}, wf={self.wf}, "
                f"args={self.args!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.ts, self.dur, self.cat, self.name, self.cu, self.wf,
                self.args or {}) == (
            other.ts, other.dur, other.cat, other.name, other.cu, other.wf,
            other.args or {})

    def to_payload(self) -> List[object]:
        return [self.ts, self.dur, self.cat, self.name, self.cu, self.wf,
                self.args or {}]

    @classmethod
    def from_payload(cls, payload: Sequence[object]) -> "TraceEvent":
        ts, dur, cat, name, cu, wf, args = payload
        return cls(int(ts), int(dur), str(cat), str(name), int(cu), int(wf),
                   dict(args) if args else None)


class TraceBus:
    """The live event sink one traced run publishes onto."""

    __slots__ = ("config", "events", "dropped", "stall_cycles", "_seen",
                 "wants_issue", "wants_mem", "wants_cache", "wants_vrf",
                 "wants_flush", "wants_stall", "wants_wait",
                 "wants_dispatch", "wants_fetch")

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        self.events: List[TraceEvent] = []
        self.dropped = 0
        #: exact stall accounting: reason -> blocked wavefront-cycles
        #: (``simd_busy``: busy SIMD-cycles).
        self.stall_cycles: Dict[str, int] = {}
        self._seen: Dict[str, int] = {}
        enabled = set(self.config.categories)
        # Precomputed per-category booleans keep the hot-path guard to a
        # single attribute read at each instrumentation point.
        self.wants_issue = "issue" in enabled
        self.wants_mem = "mem" in enabled
        self.wants_cache = "cache" in enabled
        self.wants_vrf = "vrf" in enabled
        self.wants_flush = "flush" in enabled
        self.wants_stall = "stall" in enabled
        self.wants_wait = "wait" in enabled
        self.wants_dispatch = "dispatch" in enabled
        self.wants_fetch = "fetch" in enabled

    def emit(self, cat: str, name: str, ts: int, dur: int = 0,
             cu: int = -1, wf: int = -1,
             args: Optional[Dict[str, object]] = None) -> None:
        """Record one event, subject to sampling and the event cap.

        Callers are expected to have checked the matching ``wants_*``
        flag already (that is the zero-overhead contract); emitting an
        unselected category is therefore treated as a caller bug.
        """
        seen = self._seen.get(cat, 0)
        self._seen[cat] = seen + 1
        if seen % self.config.sample_every:
            return
        if len(self.events) >= self.config.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(ts, dur, cat, name, cu, wf, args))

    def stall(self, reason: str, ts: int, cu: int = -1, wf: int = -1, *,
              dur: int = 1) -> None:
        """Account one blocked interval ``[ts, ts + dur)``; the counter is
        exact even when the corresponding event stream is sampled away."""
        self.stall_cycles[reason] = self.stall_cycles.get(reason, 0) + dur
        self.emit("stall", reason, ts, dur=dur, cu=cu, wf=wf)

    def data(self) -> "TraceData":
        return TraceData(
            events=list(self.events),
            dropped=self.dropped,
            stall_cycles=dict(self.stall_cycles),
            categories=self.config.categories,
            sample_every=self.config.sample_every,
        )


@dataclass
class TraceData:
    """A finished run's trace: events plus exact stall accounting."""

    events: List[TraceEvent] = field(default_factory=list)
    dropped: int = 0
    stall_cycles: Dict[str, int] = field(default_factory=dict)
    categories: Tuple[str, ...] = CATEGORIES
    sample_every: int = 1

    def counts(self) -> Dict[str, int]:
        """Recorded events per category."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.cat] = out.get(event.cat, 0) + 1
        return out

    def by_category(self, cat: str) -> List[TraceEvent]:
        return [e for e in self.events if e.cat == cat]

    def to_payload(self) -> Dict[str, object]:
        return {
            "events": [e.to_payload() for e in self.events],
            "dropped": self.dropped,
            "stall_cycles": dict(self.stall_cycles),
            "categories": list(self.categories),
            "sample_every": self.sample_every,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "TraceData":
        return cls(
            events=[TraceEvent.from_payload(p)
                    for p in payload.get("events", [])],  # type: ignore[union-attr]
            dropped=int(payload.get("dropped", 0)),  # type: ignore[arg-type]
            stall_cycles={str(k): int(v)
                          for k, v in payload.get("stall_cycles", {}).items()},  # type: ignore[union-attr]
            categories=tuple(payload.get("categories", CATEGORIES)),  # type: ignore[arg-type]
            sample_every=int(payload.get("sample_every", 1)),  # type: ignore[arg-type]
        )

    def merge(self, other: "TraceData") -> None:
        """Fold another trace in (suite aggregation across runs)."""
        self.events.extend(other.events)
        self.dropped += other.dropped
        for reason, cycles in other.stall_cycles.items():
            self.stall_cycles[reason] = self.stall_cycles.get(reason, 0) + cycles
