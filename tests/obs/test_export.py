"""Exporter tests: Chrome trace_event round-trip, JSONL, text report."""

import io
import json

import pytest

from repro.common.config import small_config
from repro.common.stats import StatSet
from repro.core import Session
from repro.obs import (
    TraceBus,
    TraceConfig,
    chrome_trace_dict,
    parse_chrome_trace,
    read_jsonl,
    text_report,
    write_chrome_trace,
    write_jsonl,
)


def _small_trace():
    bus = TraceBus(TraceConfig())
    bus.emit("issue", "v_add_f32", ts=10, dur=4, cu=0, wf=0,
             args={"pc": 2, "cat": "valu"})
    bus.emit("cache", "l1d1", ts=12, cu=1, args={"line": 77, "op": "miss"})
    bus.emit("dispatch", "kernel", ts=0, dur=100,
             args={"dispatch": 0, "workgroups": 4})   # device scope: cu=-1
    bus.stall("simd_busy", ts=11, cu=0, wf=3)
    return bus.data()


@pytest.fixture(scope="module")
def traced_run():
    return Session(small_config(2)).run(
        "arraybw", "gcn3", scale=0.1, trace=TraceConfig())


class TestChromeExport:
    def test_document_shape(self):
        doc = chrome_trace_dict(_small_trace(), metadata={"workload": "x"})
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["workload"] == "x"
        assert doc["otherData"]["stall_cycles"] == {"simd_busy": 1}

    def test_durations_become_complete_events(self):
        doc = chrome_trace_dict(_small_trace())
        issue = next(e for e in doc["traceEvents"] if e.get("name") == "v_add_f32")
        assert issue["ph"] == "X" and issue["dur"] == 4

    def test_point_events_become_instants(self):
        doc = chrome_trace_dict(_small_trace())
        cache = next(e for e in doc["traceEvents"] if e.get("name") == "l1d1")
        assert cache["ph"] == "i"

    def test_device_scope_maps_to_pid_zero(self):
        doc = chrome_trace_dict(_small_trace())
        dispatch = next(e for e in doc["traceEvents"] if e.get("name") == "kernel")
        assert dispatch["pid"] == 0
        # cu 0 / wavefront 0 must be distinguishable from "no cu/wf".
        issue = next(e for e in doc["traceEvents"] if e.get("name") == "v_add_f32")
        assert issue["pid"] == 1 and issue["tid"] == 1

    def test_process_name_metadata_present(self):
        doc = chrome_trace_dict(_small_trace())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M"}
        assert names == {"gpu", "cu0", "cu1"}

    def test_round_trip_preserves_every_event(self):
        trace = _small_trace()
        buf = io.StringIO()
        write_chrome_trace(trace, buf)
        again = parse_chrome_trace(buf.getvalue())
        assert again.events == trace.events
        assert again.stall_cycles == trace.stall_cycles
        assert again.sample_every == trace.sample_every
        assert tuple(again.categories) == trace.categories

    def test_round_trip_on_real_run(self, traced_run, tmp_path):
        trace = traced_run.trace
        path = str(tmp_path / "run.trace.json")
        write_chrome_trace(trace, path)
        with open(path) as f:
            doc = json.load(f)   # must be valid JSON on disk
        again = parse_chrome_trace(doc)
        assert len(again.events) == len(trace.events)
        assert again.counts() == trace.counts()
        assert again.events == trace.events

    def test_rejects_non_trace_documents(self):
        with pytest.raises(ValueError, match="Chrome trace_event"):
            parse_chrome_trace({"foo": 1})


class TestJsonl:
    def test_round_trip(self, tmp_path):
        trace = _small_trace()
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(trace, path)
        with open(path) as f:
            lines = f.readlines()
        assert len(lines) == len(trace.events)
        again = read_jsonl(lines)
        assert again.events == trace.events

    def test_lines_are_independent_json(self):
        buf = io.StringIO()
        write_jsonl(_small_trace(), buf)
        for line in buf.getvalue().splitlines():
            record = json.loads(line)
            assert {"ts", "dur", "cat", "name", "cu", "wf", "args"} <= set(record)


class TestTextReport:
    def test_report_sections(self, traced_run):
        report = text_report(traced_run.trace, stats=traced_run.total,
                             title="arraybw/gcn3")
        assert "== arraybw/gcn3 ==" in report
        assert "by category:" in report
        assert "stall cycles" in report
        assert "occupancy (resident workgroups):" in report
        assert "cycles:" in report and "IPC:" in report
        assert "L1I" in report   # cache hit-rate table

    def test_report_without_stats_still_renders(self):
        report = text_report(_small_trace())
        assert "simd_busy" in report
        assert "cycles:" not in report

    def test_stall_percentages_sum_sensibly(self, traced_run):
        total = sum(traced_run.trace.stall_cycles.values())
        report = text_report(traced_run.trace)
        assert (f"({total}: wavefront-cycles, simd_busy in SIMD-cycles)"
                in report)

    def test_empty_trace_reports_zero_events(self):
        report = text_report(TraceBus(TraceConfig()).data(),
                             stats=StatSet(), title="empty")
        assert "events: 0 recorded" in report
