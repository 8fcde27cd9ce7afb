"""Harness tests: runner caching, figure generators, hardware proxy."""

import pytest

from repro.common.config import small_config
from repro.harness.figures import ALL_FIGURES, DISPLAY
from repro.harness.hardware_model import (
    CorrelationReport,
    _pearson,
    correlate,
    hardware_cycles,
    table07_rows,
)
from repro.core import Session
from repro.harness.runner import run_workload


@pytest.fixture(scope="module")
def mini_suite():
    """A tiny two-workload suite shared by all harness tests."""
    return Session(small_config(2)).suite(scale=0.1,
                                          workloads=["arraybw", "comd"])


class TestRunner:
    def test_run_workload_fields(self):
        run = run_workload("snap", isa="gcn3", scale=0.1,
                           config=small_config(2))
        assert run.verified
        assert run.cycles > 0
        assert run.dynamic_instructions > 0
        assert run.instr_footprint_bytes > 0
        assert run.data_footprint_bytes > 0
        assert run.kernel_code_bytes  # one entry per kernel

    def test_suite_matrix_complete(self, mini_suite):
        assert set(mini_suite.runs) == {
            ("arraybw", "hsail"), ("arraybw", "gcn3"),
            ("comd", "hsail"), ("comd", "gcn3"),
        }
        assert mini_suite.all_verified()

    def test_pair_accessor(self, mini_suite):
        hs, g3 = mini_suite.pair("comd")
        assert hs.isa == "hsail" and g3.isa == "gcn3"
        assert g3.dynamic_instructions > hs.dynamic_instructions

    def test_suite_cached_in_process(self, tmp_path):
        """A repeated suite in one process is served from the result
        cache (there is no in-process memo): every cell a hit, the same
        payloads."""
        common = dict(scale=0.1, workloads=["arraybw", "comd"],
                      use_disk_cache=True, cache_dir=str(tmp_path))
        first = Session(small_config(2)).suite(**common)
        events = []
        again = Session(small_config(2)).suite(progress=events.append,
                                               **common)
        assert [e.status for e in events] == ["hit"] * 4
        assert ({k: r.to_payload() for k, r in again.runs.items()}
                == {k: r.to_payload() for k, r in first.runs.items()})


class TestFigures:
    def test_every_generator_produces_rows(self, mini_suite):
        for key, fn in ALL_FIGURES.items():
            title, headers, rows = fn(mini_suite)
            assert title, key
            assert rows, key
            for row in rows:
                assert len(row) == len(headers), (key, row)

    def test_display_names(self):
        assert DISPLAY["arraybw"] == "Array BW"
        assert DISPLAY["xsbench"] == "XSBench"

    def test_fig05_ratio_definition(self, mini_suite):
        _t, _h, rows = ALL_FIGURES["fig05"](mini_suite)
        hs, g3 = mini_suite.pair("arraybw")
        row = next(r for r in rows if r[0] == "Array BW")
        assert row[3] == pytest.approx(
            g3.dynamic_instructions / hs.dynamic_instructions)

    def test_geomean_row_present(self, mini_suite):
        for key in ("fig05", "fig06", "fig11", "fig12"):
            _t, _h, rows = ALL_FIGURES[key](mini_suite)
            assert rows[-1][0] == "GEOMEAN", key


class TestHardwareProxy:
    def test_deterministic(self):
        assert hardware_cycles("comd", 1000) == hardware_cycles("comd", 1000)
        assert hardware_cycles("comd", 1000) != hardware_cycles("fft", 1000)

    def test_scales_with_cycles(self):
        assert hardware_cycles("comd", 2000) == 2 * hardware_cycles("comd", 1000)

    def test_pearson(self):
        assert _pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert _pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
        assert _pearson([1.0], [2.0]) == 1.0

    def test_correlate_report(self, mini_suite):
        report = correlate(mini_suite)
        assert isinstance(report, CorrelationReport)
        for isa in ("hsail", "gcn3"):
            assert -1.0 <= report.correlation[isa] <= 1.0
            assert report.mean_abs_error[isa] >= 0.0
            assert set(report.per_workload_error[isa]) == {"arraybw", "comd"}

    def test_table07_rows(self, mini_suite):
        title, headers, rows = table07_rows(mini_suite)
        assert "Table 7" in title
        assert rows[0][0] == "HSAIL" and rows[1][0] == "GCN3"


class TestFailedPairFigures:
    """A failed run must surface as n/a, never a fabricated ratio."""

    @pytest.fixture(scope="class")
    def wounded_suite(self):
        """arraybw intact; comd's GCN3 cell marked failed."""
        from repro.harness.runner import SuiteResults, WorkloadRun

        good = Session(small_config(2)).suite(scale=0.1,
                                              workloads=["arraybw", "comd"])
        suite = SuiteResults(scale=0.1)
        suite.runs.update(good.runs)
        suite.runs[("comd", "gcn3")] = WorkloadRun.failure(
            "comd", "gcn3", "injected crash")
        return suite

    def test_ratio_nan_on_failed_pair(self):
        import math

        from repro.harness.figures import _ratio

        assert math.isnan(_ratio(1.0, 2.0, failed=True))
        assert _ratio(1.0, 2.0) == 0.5
        assert _ratio(1.0, 0.0) == 0.0   # zero denominator, healthy run

    def test_figures_render_na_not_zero(self, wounded_suite):
        import math

        from repro.harness.figures import figure05_dynamic_instructions

        _t, _h, rows = figure05_dynamic_instructions(wounded_suite)
        by_name = {r[0]: r for r in rows}
        assert math.isnan(by_name[DISPLAY.get("comd", "comd")][3])
        assert not math.isnan(by_name[DISPLAY.get("arraybw", "arraybw")][3])

    def test_geomean_row_excludes_failed(self, wounded_suite):
        import math

        from repro.harness.figures import figure05_dynamic_instructions

        clean = Session(small_config(2)).suite(scale=0.1,
                                               workloads=["arraybw"])
        wounded_geo = figure05_dynamic_instructions(wounded_suite)[2][-1][3]
        clean_geo = figure05_dynamic_instructions(clean)[2][-1][3]
        assert not math.isnan(wounded_geo)
        assert wounded_geo == pytest.approx(clean_geo)

    def test_summary_skips_failed_pairs(self, wounded_suite):
        from repro.harness.figures import figure01_summary

        rows = figure01_summary(wounded_suite)[2]
        # Ratios equal the arraybw-only summary: comd contributed nothing.
        clean = Session(small_config(2)).suite(scale=0.1,
                                               workloads=["arraybw"])
        clean_rows = figure01_summary(clean)[2]
        assert [r[1] for r in rows] == [r[1] for r in clean_rows]

    def test_all_figures_survive_failed_pair(self, wounded_suite):
        for fn in ALL_FIGURES.values():
            fn(wounded_suite)   # must not raise

    def test_na_rendering(self):
        from repro.common.tables import format_value

        assert format_value(float("nan")) == "n/a"
