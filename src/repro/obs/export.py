"""Trace exporters: Chrome ``trace_event`` JSON, JSONL, and text reports.

The Chrome format loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: one *process* per compute unit (plus a device-scope
pseudo-process for dispatch-level events), one *thread* per wavefront.
Events with a duration become complete events (``"ph": "X"``); point
events become instants (``"ph": "i"``).  Timestamps are in cycles, mapped
1:1 onto the viewer's microsecond axis.

:func:`parse_chrome_trace` inverts the export (metadata aside), which the
round-trip tests use to prove no event is lost or mislabeled on the way
to the viewer.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, IO, Iterable, Iterator, List, Optional, Union

from ..common.stats import StatSet
from .trace import TraceData, TraceEvent

#: every exporter in this package (and ``repro.explore.analyze``) accepts
#: either a filesystem path or an already-open text stream.
TextSink = Union[str, IO[str]]


@contextmanager
def open_text_sink(out: TextSink) -> Iterator[IO[str]]:
    """Yield a writable text stream for a path *or* an open file.

    Paths are opened (and closed) here; streams are passed through
    untouched so callers can write to ``sys.stdout`` or ``StringIO``.
    """
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as f:
            yield f
    else:
        yield out

#: Chrome pid used for device-scope events (cu == -1).
DEVICE_PID = 0


def _event_to_chrome(event: TraceEvent) -> Dict[str, object]:
    out: Dict[str, object] = {
        "name": event.name,
        "cat": event.cat,
        "ts": event.ts,
        "pid": DEVICE_PID if event.cu < 0 else event.cu + 1,
        # tid 0 means "no wavefront"; wavefront n renders as thread n+1.
        "tid": event.wf + 1,
    }
    if event.dur > 0:
        out["ph"] = "X"
        out["dur"] = event.dur
    else:
        out["ph"] = "i"
        out["s"] = "t"
    if event.args:
        out["args"] = event.args
    return out


def chrome_trace_dict(trace: TraceData,
                      metadata: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
    """The full Chrome ``trace_event`` document for one trace."""
    events: List[Dict[str, object]] = []
    pids = sorted({DEVICE_PID if e.cu < 0 else e.cu + 1 for e in trace.events})
    for pid in pids:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": "gpu" if pid == DEVICE_PID else f"cu{pid - 1}"},
        })
    events.extend(_event_to_chrome(e) for e in trace.events)
    other: Dict[str, object] = {
        "clock": "gpu-cycles",
        "dropped_events": trace.dropped,
        "sample_every": trace.sample_every,
        "categories": list(trace.categories),
        "stall_cycles": dict(trace.stall_cycles),
    }
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(trace: TraceData, out: TextSink,
                       metadata: Optional[Dict[str, object]] = None) -> None:
    """Write the Chrome trace JSON to a path or open file."""
    doc = chrome_trace_dict(trace, metadata)
    with open_text_sink(out) as f:
        json.dump(doc, f)
        f.write("\n")


def parse_chrome_trace(source: Union[str, Dict[str, object]]) -> TraceData:
    """Inverse of :func:`write_chrome_trace` (metadata events dropped).

    Accepts the JSON text or an already-parsed document; used by the
    round-trip tests and by tooling that post-processes exported traces.
    """
    doc = json.loads(source) if isinstance(source, str) else source
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace_event document")
    events: List[TraceEvent] = []
    for raw in doc["traceEvents"]:  # type: ignore[union-attr]
        if raw.get("ph") == "M":
            continue
        pid = int(raw.get("pid", DEVICE_PID))
        events.append(TraceEvent(
            ts=int(raw["ts"]),
            dur=int(raw.get("dur", 0)),
            cat=str(raw.get("cat", "")),
            name=str(raw.get("name", "")),
            cu=-1 if pid == DEVICE_PID else pid - 1,
            wf=int(raw.get("tid", 0)) - 1,
            args=raw.get("args") or None,
        ))
    other = doc.get("otherData", {}) if isinstance(doc, dict) else {}
    return TraceData(
        events=events,
        dropped=int(other.get("dropped_events", 0)),
        stall_cycles={str(k): int(v)
                      for k, v in other.get("stall_cycles", {}).items()},
        categories=tuple(other.get("categories", ())) or ("issue",),
        sample_every=int(other.get("sample_every", 1)),
    )


def write_jsonl(trace: TraceData, out: TextSink) -> None:
    """One JSON object per line: cheap to stream, grep, and tail."""
    with open_text_sink(out) as f:
        for event in trace.events:
            f.write(json.dumps({
                "ts": event.ts, "dur": event.dur, "cat": event.cat,
                "name": event.name, "cu": event.cu, "wf": event.wf,
                "args": event.args or {},
            }, sort_keys=True))
            f.write("\n")


def read_jsonl(lines: Iterable[str]) -> TraceData:
    """Parse a JSONL export back into a :class:`TraceData` (events only)."""
    events = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        events.append(TraceEvent(
            ts=int(raw["ts"]), dur=int(raw["dur"]), cat=str(raw["cat"]),
            name=str(raw["name"]), cu=int(raw["cu"]), wf=int(raw["wf"]),
            args=raw.get("args") or None,
        ))
    return TraceData(events=events)


# ---------------------------------------------------------------------------
# Text report
# ---------------------------------------------------------------------------


def _occupancy_rows(trace: TraceData) -> List[List[object]]:
    """Time-weighted resident-workgroup occupancy per CU, from the
    dispatch-category ``wg_place``/``wg_retire`` events."""
    per_cu: Dict[int, List[TraceEvent]] = {}
    for event in trace.events:
        if event.cat == "dispatch" and event.name in ("wg_place", "wg_retire"):
            per_cu.setdefault(event.cu, []).append(event)
    rows: List[List[object]] = []
    for cu in sorted(per_cu):
        events = sorted(per_cu[cu], key=lambda e: e.ts)
        area = 0
        peak = 0
        last_ts = events[0].ts
        resident = 0
        for event in events:
            area += resident * (event.ts - last_ts)
            last_ts = event.ts
            resident = int((event.args or {}).get("resident", resident))
            peak = max(peak, resident)
        span = events[-1].ts - events[0].ts
        avg = area / span if span else float(peak)
        rows.append([cu, f"{avg:.2f}", peak])
    return rows


def _cache_rows(stats: StatSet) -> List[List[object]]:
    """Hit rates by cache level, folded over the per-instance counters."""
    levels: Dict[str, List[int]] = {}
    for name, value in stats.counters.items():
        for prefix, label in (("l1d", "L1D"), ("l1i", "L1I"),
                              ("sc", "scalar"), ("l2_", "L2")):
            if name.startswith(prefix) and name.endswith(("_hits", "_misses")):
                bucket = levels.setdefault(label, [0, 0])
                bucket[0 if name.endswith("_hits") else 1] += value
                break
    rows = []
    for label in ("L1D", "L1I", "scalar", "L2"):
        if label not in levels:
            continue
        hits, misses = levels[label]
        total = hits + misses
        rate = 100.0 * hits / total if total else 0.0
        rows.append([label, hits, misses, f"{rate:.1f}%"])
    return rows


def text_report(trace: TraceData, stats: Optional[StatSet] = None,
                title: str = "trace") -> str:
    """The stall-reason / occupancy / cache summary for one traced run."""
    lines: List[str] = [f"== {title} =="]
    counts = trace.counts()
    total_events = sum(counts.values())
    lines.append(
        f"events: {total_events} recorded"
        + (f", {trace.dropped} dropped (cap)" if trace.dropped else "")
        + (f", 1-in-{trace.sample_every} sampling" if trace.sample_every > 1
           else "")
    )
    if counts:
        per_cat = ", ".join(f"{cat}={counts[cat]}" for cat in sorted(counts))
        lines.append(f"by category: {per_cat}")

    if stats is not None:
        lines.append("")
        lines.append(
            f"cycles: {stats.cycles}  instructions: "
            f"{stats.dynamic_instructions}  IPC: {stats.ipc:.3f}"
        )
        lines.append(
            f"ib_flushes: {stats['ib_flushes']}  vrf_bank_conflicts: "
            f"{stats['vrf_bank_conflicts']}  dram_accesses: "
            f"{stats['dram_accesses']}"
        )
        cache_rows = _cache_rows(stats)
        if cache_rows:
            lines.append("")
            lines.append("cache            hits    misses   hit-rate")
            for label, hits, misses, rate in cache_rows:
                lines.append(f"  {label:<12} {hits:>8} {misses:>8} {rate:>9}")

    if trace.stall_cycles:
        total_stalls = sum(trace.stall_cycles.values())
        lines.append("")
        lines.append(f"stall cycles ({total_stalls}: wavefront-cycles, "
                     f"simd_busy in SIMD-cycles):")
        ranked = sorted(trace.stall_cycles.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        for reason, cycles in ranked:
            share = 100.0 * cycles / total_stalls
            lines.append(f"  {reason:<18} {cycles:>10}  {share:5.1f}%")

    occ_rows = _occupancy_rows(trace)
    if occ_rows:
        lines.append("")
        lines.append("occupancy (resident workgroups):")
        lines.append("  cu    avg   peak")
        for cu, avg, peak in occ_rows:
            lines.append(f"  {cu:<4} {avg:>6} {peak:>5}")

    return "\n".join(lines) + "\n"
