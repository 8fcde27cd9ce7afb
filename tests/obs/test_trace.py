"""Trace bus unit tests plus cross-checks against a real simulated run."""

import pytest

from repro.common.config import small_config
from repro.core import Session
from repro.obs import CATEGORIES, TraceBus, TraceConfig, TraceData, TraceEvent


class TestTraceConfig:
    def test_defaults_cover_every_category(self):
        assert TraceConfig().categories == tuple(sorted(CATEGORIES))

    def test_categories_deduped_and_sorted(self):
        config = TraceConfig(categories=("stall", "issue", "stall"))
        assert config.categories == ("issue", "stall")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace category"):
            TraceConfig(categories=("issue", "bogus"))

    def test_bad_sampling_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(sample_every=0)
        with pytest.raises(ValueError):
            TraceConfig(max_events=0)

    @pytest.mark.parametrize("spec", [None, "", "all"])
    def test_parse_all(self, spec):
        assert TraceConfig.parse(spec).categories == tuple(sorted(CATEGORIES))

    def test_parse_list_with_whitespace(self):
        config = TraceConfig.parse(" cache , issue ", sample_every=4)
        assert config.categories == ("cache", "issue")
        assert config.sample_every == 4

    def test_hashable_for_job_transport(self):
        a = TraceConfig.parse("issue,cache")
        b = TraceConfig.parse("cache,issue")
        assert a == b and hash(a) == hash(b)


class TestTraceBus:
    def test_wants_flags_follow_mask(self):
        bus = TraceBus(TraceConfig(categories=("issue", "stall")))
        assert bus.wants_issue and bus.wants_stall
        assert not (bus.wants_cache or bus.wants_mem or bus.wants_vrf or
                    bus.wants_flush or bus.wants_wait or bus.wants_dispatch or
                    bus.wants_fetch)

    def test_sampling_keeps_every_nth_per_category(self):
        bus = TraceBus(TraceConfig(sample_every=3))
        for i in range(10):
            bus.emit("issue", "op", ts=i)
        # Kept: indices 0, 3, 6, 9.
        assert [e.ts for e in bus.events] == [0, 3, 6, 9]

    def test_sampling_counters_are_per_category(self):
        bus = TraceBus(TraceConfig(sample_every=2))
        bus.emit("issue", "op", ts=0)
        bus.emit("cache", "l1d0", ts=1)   # first of its own category: kept
        assert [e.cat for e in bus.events] == ["issue", "cache"]

    def test_cap_counts_dropped_events(self):
        bus = TraceBus(TraceConfig(max_events=5))
        for i in range(12):
            bus.emit("issue", "op", ts=i)
        assert len(bus.events) == 5
        assert bus.dropped == 7
        assert bus.data().dropped == 7

    def test_stall_accounting_exact_under_sampling(self):
        bus = TraceBus(TraceConfig(sample_every=100))
        for i in range(250):
            bus.stall("simd_busy", ts=i)
        # The event stream is thinned, the accounting is not.
        assert bus.stall_cycles == {"simd_busy": 250}
        assert len([e for e in bus.events if e.cat == "stall"]) == 3

    def test_stall_charges_its_interval(self):
        bus = TraceBus()
        bus.stall("scoreboard", ts=3, cu=0, wf=1, dur=5)
        bus.stall("scoreboard", ts=9, cu=0, wf=1)
        assert bus.stall_cycles == {"scoreboard": 6}
        assert [(e.ts, e.dur) for e in bus.events] == [(3, 5), (9, 1)]

    def test_data_is_a_snapshot(self):
        bus = TraceBus()
        bus.emit("issue", "op", ts=0)
        data = bus.data()
        bus.emit("issue", "op", ts=1)
        assert len(data.events) == 1


class TestTraceData:
    def _data(self):
        bus = TraceBus()
        bus.emit("issue", "v_add", ts=5, dur=4, cu=1, wf=2, args={"pc": 3})
        bus.emit("cache", "l1d0", ts=6, cu=1, args={"line": 9, "op": "hit"})
        bus.stall("simd_busy", ts=7, cu=1)
        return bus.data()

    def test_payload_round_trip_is_lossless(self):
        data = self._data()
        again = TraceData.from_payload(data.to_payload())
        assert again.events == data.events
        assert again.stall_cycles == data.stall_cycles
        assert again.categories == data.categories
        assert again.sample_every == data.sample_every

    def test_payload_survives_json(self):
        import json

        data = self._data()
        again = TraceData.from_payload(json.loads(json.dumps(data.to_payload())))
        assert again.events == data.events

    def test_counts_and_by_category(self):
        data = self._data()
        assert data.counts() == {"issue": 1, "cache": 1, "stall": 1}
        assert data.by_category("cache")[0].name == "l1d0"

    def test_merge_folds_events_and_stalls(self):
        a, b = self._data(), self._data()
        a.merge(b)
        assert len(a.events) == 6
        assert a.stall_cycles == {"simd_busy": 2}

    def test_event_equality_treats_missing_args_as_empty(self):
        assert TraceEvent(1, 0, "issue", "op") == \
               TraceEvent(1, 0, "issue", "op", args={})


@pytest.fixture(scope="module")
def traced_run():
    """One real traced simulation shared by the cross-check tests."""
    return Session(small_config(2)).run(
        "bitonic", "gcn3", scale=0.1, trace=TraceConfig())


class TestTraceAgainstMetrics:
    """Unsampled event counts must agree with the metric counters."""

    def test_run_carries_trace_data(self, traced_run):
        assert traced_run.trace is not None
        assert traced_run.trace.sample_every == 1
        assert traced_run.trace.events

    def test_issue_events_match_dynamic_instructions(self, traced_run):
        issues = traced_run.trace.by_category("issue")
        assert len(issues) == traced_run.dynamic_instructions

    def test_flush_events_match_ib_flushes(self, traced_run):
        flushes = traced_run.trace.by_category("flush")
        assert len(flushes) == traced_run.stat("ib_flushes")

    def test_l1i_lookups_match_ifetch_requests(self, traced_run):
        l1i_lookups = [
            e for e in traced_run.trace.by_category("cache")
            if e.name.startswith("l1i") and e.args["op"] in ("hit", "miss")
        ]
        assert len(l1i_lookups) == traced_run.stat("ifetch_requests")

    def test_stall_accounting_only_uses_known_reasons(self, traced_run):
        known = {
            "simd_busy", "fetch_wait", "ib_resync", "scalar_busy",
            "branch_busy", "vmem_busy", "lds_busy", "unit_busy",
            "waitcnt_vm", "waitcnt_lgkm", "scoreboard", "scoreboard_mem",
            "vmem_capacity",
        }
        assert set(traced_run.trace.stall_cycles) <= known
        assert traced_run.trace.stall_cycles  # a real run always stalls

    def test_tracing_does_not_change_statistics(self, traced_run):
        untraced = Session(small_config(2)).run("bitonic", "gcn3", scale=0.1)
        assert untraced.total.snapshot() == traced_run.total.snapshot()

    def test_category_mask_limits_recorded_events(self):
        run = Session(small_config(2)).run(
            "bitonic", "gcn3", scale=0.1,
            trace=TraceConfig.parse("issue,stall"))
        assert set(run.trace.counts()) <= {"issue", "stall"}
        assert run.trace.by_category("issue")
