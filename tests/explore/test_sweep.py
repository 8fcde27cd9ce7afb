"""Sweep scheduler: journaling, resume-without-resimulation, isolation.

``PYTHONPATH=src python tests/explore/test_sweep.py`` prints the run
payload encodes a one-point sweep with the disk cache on makes per
accepted cell (one: the journal's cell line and the cache entry share
it).
"""

import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro.common.config import small_config
from repro.common.stats import StatSet
from repro.core import Session
from repro.explore.space import Axis
from repro.core.requests import SweepRequest
from repro.explore.sweep import (
    JOURNAL_FORMAT_VERSION,
    execute_sweep_request,
    sweep_fingerprint,
)
from repro.harness import runner
from repro.harness.runner import WorkloadRun, run_workload

AXES = [Axis("cu.vrf_banks", (2, 4))]
WORKLOADS = ["arraybw"]
SCALE = 0.1


def _sweep(tmp, progress=None, **kw):
    kw.setdefault("axes", AXES)
    kw.setdefault("config", small_config(2))
    kw.setdefault("workloads", WORKLOADS)
    kw.setdefault("scale", SCALE)
    kw.setdefault("use_disk_cache", False)
    kw.setdefault("sweeps_dir", str(tmp))
    return execute_sweep_request(SweepRequest(**kw), progress=progress)


class CountingExecute:
    """Counts the cells simulated in this process (the serial path), by
    wrapping ``runner.execute_run_request``, which every cell runs
    through; ``calls`` holds their requests."""

    def __init__(self, monkeypatch):
        self.calls = []
        execute = runner.execute_run_request

        def counting(request, trace_store=None):
            self.calls.append(request)
            return execute(request, trace_store=trace_store)

        monkeypatch.setattr(runner, "execute_run_request", counting)


def _encodes(call):
    """(result, payload encodes by class) that ``call`` makes, counted by
    wrapping ``WorkloadRun.to_payload`` and ``StatSet.to_payload``."""
    counts = Counter()
    originals = {cls: cls.__dict__["to_payload"]
                 for cls in (WorkloadRun, StatSet)}

    def counting(cls, original):
        def encode(self):
            counts[cls.__name__] += 1
            return original(self)
        return encode

    for cls, original in originals.items():
        cls.to_payload = counting(cls, original)
    try:
        result = call()
    finally:
        for cls, original in originals.items():
            cls.to_payload = original
    return result, counts


def _one_point_encodes(tmp):
    """(results, encodes) of a one-point, four-cell sweep, disk cache on
    (executed, so no drift guard re-runs a cell and compares payloads)."""
    return _encodes(lambda: _sweep(
        tmp, axes=[Axis("cu.vrf_banks", (4,))],
        workloads=["arraybw", "spmv"], use_disk_cache=True,
        cache_dir=str(tmp / "cache"), execution="execute"))


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
        assert all(set(p) == {"type", "point", "status", "error"}
                   for p in points)
        # Each cell is journaled as it lands, before its point's line.
        runs = {}
        for line in lines[1:]:
            if line["type"] == "cell":
                runs.setdefault(line["point"], []).append(line["run"])
            else:
                assert len(runs[line["point"]["point_id"]]) == 2
        assert sorted(runs) == sorted(p["point"]["point_id"] for p in points)
        assert all(len(r) == 2 for r in runs.values())
        for pr in results.points:
            assert sorted((r["workload"], r["isa"])
                          for r in runs[pr.point.point_id]) == sorted(pr.runs)

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
    def test_killed_sweep_resumes_without_resimulation(self, tmp_path,
                                                       monkeypatch):
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

        counter = CountingExecute(monkeypatch)
        resumed = _sweep(tmp_path, resume=True, execution="execute")

        assert resumed.replayed() == 1
        assert resumed.points[0].from_journal
        assert not resumed.points[1].from_journal
        # Only the second point's two cells were simulated.
        assert len(counter.calls) == 2
        assert all(r.config.cu.vrf_banks == 4 for r in counter.calls)

        clean = _sweep(tmp_path / "clean")
        assert [pr.point.point_id for pr in resumed.points] == \
            [pr.point.point_id for pr in clean.points]
        for a, b in zip(resumed.points, clean.points):
            for key in b.runs:
                assert a.runs[key].total.snapshot() == \
                    b.runs[key].total.snapshot()

    def test_a_kill_between_two_cells_keeps_the_finished_one(
            self, tmp_path, monkeypatch):
        """A point's finished cell is journaled when it lands, so a kill
        before its sibling lands loses nothing: on resume it comes back
        as ``journal`` and only the other three cells run."""
        from repro.dist import journal_digest

        def kill_after_first_cell(event):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _sweep(tmp_path, progress=kill_after_first_cell)

        counter = CountingExecute(monkeypatch)
        events = []
        resumed = _sweep(tmp_path, resume=True, execution="execute",
                         progress=events.append)
        first = (events[0].point, events[0].isa)
        assert [e.status for e in events] == ["journal", "ok", "ok", "ok"]
        assert first == ("cu.vrf_banks=2", "hsail")
        assert len(counter.calls) == 3
        assert ("hsail", 2) not in {(r.isa, r.config.cu.vrf_banks)
                                    for r in counter.calls}
        assert resumed.replayed() == 0 and not resumed.failed_points
        clean = _sweep(tmp_path / "clean")
        assert (journal_digest(resumed.journal_path)
                == journal_digest(clean.journal_path))

    def test_format_1_journal_resimulates(self, tmp_path, monkeypatch):
        results = _sweep(tmp_path)
        lines = open(results.journal_path, encoding="utf-8").readlines()
        header = json.loads(lines[0])
        header["format"] = 1
        with open(results.journal_path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            f.writelines(lines[1:])
        counter = CountingExecute(monkeypatch)
        with pytest.warns(UserWarning, match="different source tree or "
                                             "format"):
            resumed = _sweep(tmp_path, resume=True, execution="execute")
        assert resumed.replayed() == 0
        assert len(counter.calls) == 4

    def test_full_resume_serves_everything_from_journal(self, tmp_path,
                                                        monkeypatch):
        _sweep(tmp_path)
        counter = CountingExecute(monkeypatch)
        events = []
        resumed = _sweep(tmp_path, resume=True, execution="execute",
                         progress=events.append)
        assert resumed.replayed() == 2
        assert counter.calls == []
        assert {e.status for e in events} == {"journal"}

    def test_resume_by_explicit_sweep_id(self, tmp_path, monkeypatch):
        first = _sweep(tmp_path)
        counter = CountingExecute(monkeypatch)
        resumed = _sweep(tmp_path, resume=first.sweep_id, execution="execute")
        assert resumed.sweep_id == first.sweep_id
        assert resumed.replayed() == 2
        assert counter.calls == []

    def test_multi_axis_resume_ignores_journal_key_order(self, tmp_path,
                                                         monkeypatch):
        # Point ids are order-sensitive: a point whose axes are not
        # alphabetical must not be matched by its overrides' key order.
        axes = [Axis("l1d.hit_latency", (4, 8)), Axis("cu.vrf_banks", (2, 4))]
        _sweep(tmp_path, axes=axes, isas=("gcn3",))
        counter = CountingExecute(monkeypatch)
        resumed = _sweep(tmp_path, axes=axes, isas=("gcn3",), resume=True,
                         execution="execute")
        assert resumed.replayed() == 4
        assert counter.calls == []

    def test_fresh_run_truncates_prior_journal(self, tmp_path, monkeypatch):
        _sweep(tmp_path)
        counter = CountingExecute(monkeypatch)
        again = _sweep(tmp_path, execution="execute")  # no resume
        assert again.replayed() == 0
        assert len(counter.calls) == 4

    def test_stale_source_journal_resimulates(self, tmp_path, monkeypatch):
        results = _sweep(tmp_path)
        lines = open(results.journal_path, encoding="utf-8").readlines()
        header = json.loads(lines[0])
        header["source"] = "0" * len(header["source"])
        with open(results.journal_path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            f.writelines(lines[1:])
        counter = CountingExecute(monkeypatch)
        with pytest.warns(UserWarning, match="different source tree"):
            resumed = _sweep(tmp_path, resume=True, execution="execute")
        assert resumed.replayed() == 0
        assert len(counter.calls) == 4

    def test_truncated_tail_ignored(self, tmp_path, monkeypatch):
        results = _sweep(tmp_path)
        with open(results.journal_path, "a", encoding="utf-8") as f:
            f.write('{"type": "point", "point": {"overr')  # mid-write kill
        counter = CountingExecute(monkeypatch)
        resumed = _sweep(tmp_path, resume=True, execution="execute")
        assert resumed.replayed() == 2
        assert counter.calls == []

    def test_changed_config_fingerprint_resimulates(self, tmp_path,
                                                    monkeypatch):
        results = _sweep(tmp_path)
        lines = open(results.journal_path, encoding="utf-8").readlines()
        first = results.points[0].point.point_id
        with open(results.journal_path, "w", encoding="utf-8") as f:
            f.write(lines[0])
            for line in lines[1:]:
                # Every line of the first point, as if journaled under
                # another config: its two cells and its point line.
                entry = json.loads(line)
                if entry["type"] == "cell" and entry["point"] == first:
                    entry["config"] = "deadbeefdeadbeef"
                elif (entry["type"] == "point"
                      and entry["point"]["point_id"] == first):
                    entry["point"]["config_fingerprint"] = "deadbeefdeadbeef"
                f.write(json.dumps(entry) + "\n")
        counter = CountingExecute(monkeypatch)
        resumed = _sweep(tmp_path, resume=True, execution="execute")
        assert resumed.replayed() == 1   # the untampered point
        assert len(counter.calls) == 2   # the tampered one re-ran


class TestFailureIsolation:
    def test_invalid_point_journaled_failed_not_simulated(self, tmp_path,
                                                          monkeypatch):
        counter = CountingExecute(monkeypatch)
        results = _sweep(tmp_path,
                         axes=[Axis("l1i.size_bytes", (8192, 100))],
                         execution="execute")
        assert len(results.points) == 2
        (bad,) = results.failed_points
        assert bad.point.error is not None
        assert "l1i.size_bytes" in bad.error
        assert len(counter.calls) == 2   # only the valid point ran
        # The failed point is journaled, so resume replays it too.
        counter2 = CountingExecute(monkeypatch)
        resumed = _sweep(tmp_path,
                         axes=[Axis("l1i.size_bytes", (8192, 100))],
                         resume=True, execution="execute")
        assert resumed.replayed() == 2
        assert counter2.calls == []

    def test_unwritable_journal_degrades_gracefully(self, tmp_path,
                                                    monkeypatch):
        # A *file* where the sweeps dir should be: mkdir fails, journalling
        # turns off, but the sweep itself still completes correctly.
        blocker = tmp_path / "nope"
        blocker.write_text("not a directory")
        counter = CountingExecute(monkeypatch)
        results = _sweep(tmp_path, sweeps_dir=str(blocker),
                         execution="execute")
        assert len(results.points) == 2
        assert not results.failed_points
        assert len(counter.calls) == 4


class TestEncodeOnce:
    def test_one_payload_encode_per_accepted_cell(self, tmp_path):
        """The journal's cell line and the result cache entry are written
        from one payload dict."""
        results, encodes = _one_point_encodes(tmp_path)
        (point,) = results.points
        assert not point.failed and len(point.runs) == 4
        assert encodes["WorkloadRun"] == 4
        assert encodes["StatSet"] == sum(1 + len(run.per_dispatch)
                                         for run in point.runs.values())
        assert len(list((tmp_path / "cache").glob("*.json"))) == 4

    def test_equal_statistics_reuse_one_encoding(self, tmp_path):
        """A derived replay has its witness's statistics: its cell line
        reuses the last encoding journaled for its workload and ISA, with
        its own wall time and execution, and reads back as the run
        itself.  The 1 KiB point evicts, so its statistics differ and
        the cells on either side of it are encoded again."""
        from repro.explore.sweep import SweepJournal

        results, encodes = _encodes(lambda: _sweep(
            tmp_path, axes=[Axis("l1d.size_bytes", (65536, 131072, 1024,
                                                    262144))],
            workloads=["spmv"], isas=("gcn3",), execution="auto",
            trace_dir=str(tmp_path / "traces"), verify_replay=False))
        runs = [pr.runs[("spmv", "gcn3")] for pr in results.points]
        assert runs[3].execution == "derived"
        assert runs[0].total.snapshot() == runs[1].total.snapshot()
        assert runs[1].total.snapshot() != runs[2].total.snapshot()
        assert encodes["WorkloadRun"] == 3
        cells, finished = SweepJournal(tmp_path, results.sweep_id).load()
        assert len(finished) == 4
        for pr in results.points:
            (journaled,) = cells[(pr.point.point_id,
                                  pr.point.fingerprint())].values()
            assert (journaled.to_payload()
                    == pr.runs[("spmv", "gcn3")].to_payload())


class TestDiskCacheIntegration:
    def test_warm_cache_skips_pool(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        _sweep(tmp_path / "s1", use_disk_cache=True, cache_dir=cache_dir)
        counter = CountingExecute(monkeypatch)
        events = []
        again = _sweep(tmp_path / "s2", use_disk_cache=True,
                       cache_dir=cache_dir, execution="execute",
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results, encodes = _one_point_encodes(Path(tmp))
    cells = len(results.points[0].runs)
    print(f"sweep payload encodes, 1 point x {cells} cells "
          f"(arraybw, spmv; both ISAs), disk cache on: "
          f"{encodes['WorkloadRun'] / cells:g} WorkloadRun.to_payload per "
          f"accepted cell ({encodes['StatSet']} StatSet.to_payload)")
