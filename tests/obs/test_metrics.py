"""Metric registry tests: declarations, lookup, suggestions, and the
every-counter-is-declared invariant over a real run."""

import pytest

from repro.common.config import small_config
from repro.common.stats import StatSet
from repro.core import Session
from repro.__main__ import main
from repro.obs import (METRICS, MetricClass, MetricKind, MetricRegistry,
                       MetricScope)
from repro.obs.metrics import CYCLES, IB_FLUSHES


class TestRegistry:
    def test_exact_lookup(self):
        metric = METRICS.find("cycles")
        assert metric is not None
        assert metric.kind is MetricKind.COUNTER
        assert metric.unit == "cycles"

    def test_family_lookup_matches_instances(self):
        for name in ("l1d0_hits", "l1d17_misses", "l1i3_hits", "sc0_misses",
                     "l2_1_hits"):
            assert METRICS.find(name) is not None, name

    def test_family_requires_full_match(self):
        assert METRICS.find("l1d_hits") is None       # no instance number
        assert METRICS.find("xl1d0_hits") is None     # prefix garbage
        assert METRICS.find("l1d0_hits_extra") is None

    def test_unknown_name(self):
        assert METRICS.find("no_such_metric") is None
        assert not METRICS.known("no_such_metric")

    def test_suggest_close_matches(self):
        assert "ib_flushes" in METRICS.suggest("ib_flushs")
        assert "cycles" in METRICS.suggest("cycels")
        assert METRICS.suggest("qqqqqq") == []

    def test_duplicate_declaration_rejected(self):
        registry = MetricRegistry()
        registry.counter("x", "events", MetricScope.GPU, "an x")
        with pytest.raises(ValueError, match="declared twice"):
            registry.counter("x", "events", MetricScope.GPU, "another x")

    def test_iteration_and_len_cover_everything(self):
        metrics = list(METRICS)
        assert len(metrics) == len(METRICS)
        assert all(m.description for m in metrics)
        assert all(m.unit for m in metrics)

    def test_instruction_category_counters_declared(self):
        assert METRICS.find("instr_valu") is not None
        assert METRICS.find("instr_vmem") is not None


class TestMetricClass:
    def test_trace_class_is_what_the_fold_computes(self):
        trace = {m.name for m in METRICS if m.metric_class is MetricClass.TRACE}
        assert {"dynamic_instructions", "ib_flushes", "barriers",
                "vmem_requests", "vmem_lines", "smem_requests",
                "lds_accesses", "workgroups_dispatched", "instr_valu",
                "reuse_distance_median", "simd_utilization"} <= trace
        assert not trace & {"cycles", "ipc", "vrf_bank_conflicts",
                            "ifetch_requests", "dram_accesses",
                            "l1d<cu>_hits"}
        assert METRICS.find("l1d3_misses").metric_class is MetricClass.TIMING

    def test_cli_prints_each_class(self, capsys):
        assert main(["metrics", "--match", "^(cycles|vmem_lines)$"]) == 0
        rows = {line.split()[0]: line.split()
                for line in capsys.readouterr().out.splitlines()[4:]}
        assert rows["cycles"][2] == "timing"
        assert rows["vmem_lines"][2] == "trace"


class TestBumpByMetric:
    def test_bump_accepts_metric_objects(self):
        stats = StatSet()
        stats.bump(CYCLES, 10)
        stats.bump(IB_FLUSHES)
        assert stats["cycles"] == 10
        assert stats["ib_flushes"] == 1

    def test_bump_still_accepts_strings(self):
        stats = StatSet()
        stats.bump("l1d0_hits", 3)
        assert stats["l1d0_hits"] == 3


class TestEveryEmittedCounterIsDeclared:
    """The registry must know every counter a real run produces —
    otherwise stat() lookups on real output could raise."""

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_real_run_counters_all_known(self, isa):
        run = Session(small_config(2)).run("spmv", isa, scale=0.1)
        unknown = [name for name in run.total.snapshot()
                   if METRICS.find(name) is None]
        assert unknown == []
