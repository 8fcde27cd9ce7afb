"""Sweep scheduler: journaling, resume-without-resimulation, isolation."""

import json

import pytest

from repro.common.config import small_config
from repro.core import Session
from repro.explore.space import Axis
from repro.core.requests import SweepRequest
from repro.explore.sweep import (
    JOURNAL_FORMAT_VERSION,
    execute_sweep_request,
    sweep_fingerprint,
)
from repro.harness.parallel import execute_job
from repro.harness.runner import run_workload

AXES = [Axis("cu.vrf_banks", (2, 4))]
WORKLOADS = ["arraybw"]
SCALE = 0.1


def _sweep(tmp, progress=None, execute=None, **kw):
    kw.setdefault("axes", AXES)
    kw.setdefault("config", small_config(2))
    kw.setdefault("workloads", WORKLOADS)
    kw.setdefault("scale", SCALE)
    kw.setdefault("use_disk_cache", False)
    kw.setdefault("sweeps_dir", str(tmp))
    return execute_sweep_request(SweepRequest(**kw), progress=progress,
                                 execute=execute)


class CountingExecute:
    """Execute hook that counts simulated cells (serial path only)."""

    def __init__(self):
        self.calls = []

    def __call__(self, job):
        self.calls.append(job.describe())
        return execute_job(job)


class TestSweepFingerprint:
    def test_deterministic(self):
        a = sweep_fingerprint(small_config(2), AXES, "grid", WORKLOADS,
                              ("hsail", "gcn3"), SCALE, 7)
        b = sweep_fingerprint(small_config(2), AXES, "grid", WORKLOADS,
                              ("hsail", "gcn3"), SCALE, 7)
        assert a == b
        assert len(a) == 12
        int(a, 16)

    def test_every_component_matters(self):
        base = sweep_fingerprint(small_config(2), AXES, "grid", WORKLOADS,
                                 ("hsail", "gcn3"), SCALE, 7)
        variants = [
            sweep_fingerprint(small_config(4), AXES, "grid", WORKLOADS,
                              ("hsail", "gcn3"), SCALE, 7),
            sweep_fingerprint(small_config(2),
                              [Axis("cu.vrf_banks", (2, 8))], "grid",
                              WORKLOADS, ("hsail", "gcn3"), SCALE, 7),
            sweep_fingerprint(small_config(2), AXES, "ofat", WORKLOADS,
                              ("hsail", "gcn3"), SCALE, 7),
            sweep_fingerprint(small_config(2), AXES, "grid", ["comd"],
                              ("hsail", "gcn3"), SCALE, 7),
            sweep_fingerprint(small_config(2), AXES, "grid", WORKLOADS,
                              ("gcn3",), SCALE, 7),
            sweep_fingerprint(small_config(2), AXES, "grid", WORKLOADS,
                              ("hsail", "gcn3"), 0.2, 7),
            sweep_fingerprint(small_config(2), AXES, "grid", WORKLOADS,
                              ("hsail", "gcn3"), SCALE, 8),
        ]
        assert all(v != base for v in variants)


class TestCleanSweep:
    def test_matches_direct_runs(self, tmp_path):
        results = _sweep(tmp_path)
        assert len(results.points) == 2
        assert not results.failed_points
        assert results.replayed() == 0
        for pr in results.points:
            banks = dict(pr.point.overrides)["cu.vrf_banks"]
            for isa in ("hsail", "gcn3"):
                direct = run_workload(
                    "arraybw", isa, scale=SCALE,
                    config=small_config(2).with_overrides(
                        {"cu.vrf_banks": banks}))
                got = pr.runs[("arraybw", isa)]
                assert got.total.snapshot() == direct.total.snapshot()

    def test_journal_written_per_point(self, tmp_path):
        results = _sweep(tmp_path)
        lines = [json.loads(l) for l in
                 open(results.journal_path, encoding="utf-8")]
        assert lines[0]["type"] == "header"
        assert lines[0]["format"] == JOURNAL_FORMAT_VERSION
        points = [l for l in lines if l["type"] == "point"]
        assert [p["point"]["point_id"] for p in points] == \
            [pr.point.point_id for pr in results.points]
        assert all(len(p["runs"]) == 2 for p in points)

    def test_point_suite_adapter_feeds_figures(self, tmp_path):
        from repro.harness.figures import figure09_ib_flushes

        results = _sweep(tmp_path)
        suite = results.points[0].suite(SCALE)
        assert suite.workloads == ["arraybw"]
        figure09_ib_flushes(suite)  # must not raise

    def test_progress_events_tagged_with_point(self, tmp_path):
        events = []
        _sweep(tmp_path, progress=events.append)
        assert len(events) == 4
        assert {e.point for e in events} == {"cu.vrf_banks=2",
                                             "cu.vrf_banks=4"}
        assert all(e.status == "ok" for e in events)
        assert "[cu.vrf_banks=2]" in events[0].format() or \
            "cu.vrf_banks=2:" in events[0].format()


class TestResume:
    def test_killed_sweep_resumes_without_resimulation(self, tmp_path):
        """The satellite contract: kill mid-flight, resume, and the
        journaled points replay with zero re-simulation while the merged
        results equal a clean serial sweep."""
        events = []

        def kill_after_first_point(event):
            events.append(event)
            done = [e for e in events if e.status in ("ok", "failed")]
            if len(done) == 2:   # first point = 1 workload x 2 ISAs
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _sweep(tmp_path, progress=kill_after_first_point)

        counter = CountingExecute()
        resumed = _sweep(tmp_path, resume=True, execute=counter)

        assert resumed.replayed() == 1
        assert resumed.points[0].from_journal
        assert not resumed.points[1].from_journal
        # Only the second point's two cells were simulated.
        assert len(counter.calls) == 2
        assert all("cu.vrf_banks=4" in c for c in counter.calls)

        clean = _sweep(tmp_path / "clean")
        assert [pr.point.point_id for pr in resumed.points] == \
            [pr.point.point_id for pr in clean.points]
        for a, b in zip(resumed.points, clean.points):
            for key in b.runs:
                assert a.runs[key].total.snapshot() == \
                    b.runs[key].total.snapshot()

    def test_full_resume_serves_everything_from_journal(self, tmp_path):
        _sweep(tmp_path)
        counter = CountingExecute()
        events = []
        resumed = _sweep(tmp_path, resume=True, execute=counter,
                         progress=events.append)
        assert resumed.replayed() == 2
        assert counter.calls == []
        assert {e.status for e in events} == {"journal"}

    def test_resume_by_explicit_sweep_id(self, tmp_path):
        first = _sweep(tmp_path)
        counter = CountingExecute()
        resumed = _sweep(tmp_path, resume=first.sweep_id, execute=counter)
        assert resumed.sweep_id == first.sweep_id
        assert resumed.replayed() == 2
        assert counter.calls == []

    def test_multi_axis_resume_ignores_journal_key_order(self, tmp_path):
        # The journal is written with sorted keys, which reorders the
        # overrides of a point whose axes are not alphabetical.
        axes = [Axis("l1d.hit_latency", (4, 8)), Axis("cu.vrf_banks", (2, 4))]
        _sweep(tmp_path, axes=axes, isas=("gcn3",))
        counter = CountingExecute()
        resumed = _sweep(tmp_path, axes=axes, isas=("gcn3",), resume=True,
                         execute=counter)
        assert resumed.replayed() == 4
        assert counter.calls == []

    def test_fresh_run_truncates_prior_journal(self, tmp_path):
        _sweep(tmp_path)
        counter = CountingExecute()
        again = _sweep(tmp_path, execute=counter)  # no resume
        assert again.replayed() == 0
        assert len(counter.calls) == 4

    def test_stale_source_journal_resimulates(self, tmp_path):
        results = _sweep(tmp_path)
        lines = open(results.journal_path, encoding="utf-8").readlines()
        header = json.loads(lines[0])
        header["source"] = "0" * len(header["source"])
        with open(results.journal_path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            f.writelines(lines[1:])
        counter = CountingExecute()
        with pytest.warns(UserWarning, match="different source tree"):
            resumed = _sweep(tmp_path, resume=True, execute=counter)
        assert resumed.replayed() == 0
        assert len(counter.calls) == 4

    def test_truncated_tail_ignored(self, tmp_path):
        results = _sweep(tmp_path)
        with open(results.journal_path, "a", encoding="utf-8") as f:
            f.write('{"type": "point", "point": {"overr')  # mid-write kill
        counter = CountingExecute()
        resumed = _sweep(tmp_path, resume=True, execute=counter)
        assert resumed.replayed() == 2
        assert counter.calls == []

    def test_changed_config_fingerprint_resimulates(self, tmp_path):
        results = _sweep(tmp_path)
        lines = open(results.journal_path, encoding="utf-8").readlines()
        entry = json.loads(lines[1])
        entry["point"]["config_fingerprint"] = "deadbeefdeadbeef"
        with open(results.journal_path, "w", encoding="utf-8") as f:
            f.write(lines[0])
            f.write(json.dumps(entry) + "\n")
            f.writelines(lines[2:])
        counter = CountingExecute()
        resumed = _sweep(tmp_path, resume=True, execute=counter)
        assert resumed.replayed() == 1   # the untampered point
        assert len(counter.calls) == 2   # the tampered one re-ran


class TestFailureIsolation:
    def test_invalid_point_journaled_failed_not_simulated(self, tmp_path):
        counter = CountingExecute()
        results = _sweep(tmp_path,
                         axes=[Axis("l1i.size_bytes", (8192, 100))],
                         execute=counter)
        assert len(results.points) == 2
        (bad,) = results.failed_points
        assert bad.point.error is not None
        assert "l1i.size_bytes" in bad.error
        assert len(counter.calls) == 2   # only the valid point ran
        # The failed point is journaled, so resume replays it too.
        counter2 = CountingExecute()
        resumed = _sweep(tmp_path,
                         axes=[Axis("l1i.size_bytes", (8192, 100))],
                         resume=True, execute=counter2)
        assert resumed.replayed() == 2
        assert counter2.calls == []

    def test_unwritable_journal_degrades_gracefully(self, tmp_path):
        # A *file* where the sweeps dir should be: mkdir fails, journalling
        # turns off, but the sweep itself still completes correctly.
        blocker = tmp_path / "nope"
        blocker.write_text("not a directory")
        counter = CountingExecute()
        results = _sweep(tmp_path, sweeps_dir=str(blocker), execute=counter)
        assert len(results.points) == 2
        assert not results.failed_points
        assert len(counter.calls) == 4


class TestDiskCacheIntegration:
    def test_warm_cache_skips_pool(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _sweep(tmp_path / "s1", use_disk_cache=True, cache_dir=cache_dir)
        counter = CountingExecute()
        events = []
        again = _sweep(tmp_path / "s2", use_disk_cache=True,
                       cache_dir=cache_dir, execute=counter,
                       progress=events.append)
        assert counter.calls == []
        assert {e.status for e in events} == {"hit"}
        assert not again.failed_points


class TestSessionSweep:
    def test_string_axes_accepted(self, tmp_path):
        session = Session(small_config(2))
        results = session.sweep(["cu.vrf_banks=2,4"], workloads=WORKLOADS,
                                scale=SCALE, use_disk_cache=False,
                                sweeps_dir=str(tmp_path))
        assert len(results.points) == 2
        assert not results.failed_points

    def test_parallel_matches_serial(self, tmp_path):
        serial = _sweep(tmp_path / "a")
        parallel = _sweep(tmp_path / "b", jobs=2)
        for a, b in zip(serial.points, parallel.points):
            assert a.point.point_id == b.point.point_id
            for key in a.runs:
                assert a.runs[key].total.snapshot() == \
                    b.runs[key].total.snapshot()


class TestJournalLock:
    def test_second_writer_is_refused_naming_the_holder(self, tmp_path):
        import os

        from repro.common.errors import ReproError
        from repro.explore.sweep import SweepJournal, journal_header

        header = journal_header("cafe12345678", small_config(2), AXES,
                                "grid", WORKLOADS, ("gcn3",), SCALE, 7)
        first = SweepJournal(str(tmp_path), "cafe12345678")
        first.open(header, resume=False)
        try:
            second = SweepJournal(str(tmp_path), "cafe12345678")
            with pytest.raises(ReproError) as excinfo:
                second.open(header, resume=False)
            message = str(excinfo.value)
            assert "locked by" in message
            assert f"pid {os.getpid()}" in message
        finally:
            first.close()

    def test_lock_released_on_close(self, tmp_path):
        from repro.explore.sweep import SweepJournal, journal_header

        header = journal_header("cafe12345678", small_config(2), AXES,
                                "grid", WORKLOADS, ("gcn3",), SCALE, 7)
        first = SweepJournal(str(tmp_path), "cafe12345678")
        first.open(header, resume=False)
        first.close()
        second = SweepJournal(str(tmp_path), "cafe12345678")
        second.open(header, resume=False)          # no longer contended
        second.close()
