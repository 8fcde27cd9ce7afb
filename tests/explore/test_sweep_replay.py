"""Sweep-level trace replay: capture once per group, replay the rest."""

import pytest

from repro.common.config import small_config
from repro.common.errors import ReproError
from repro.explore.space import Axis
from repro.core.requests import SweepRequest
from repro.explore.sweep import _replay_differs, execute_sweep_request
from repro.harness import equivalence
from repro.harness.cache import TraceStore, trace_fingerprint
from repro.harness.runner import clear_suite_cache

AXIS = "l1d.size_bytes=8k,16k,32k,64k"


@pytest.fixture(autouse=True)
def _fresh_staging():
    clear_suite_cache()
    yield
    clear_suite_cache()


def _sweep(tmp_path, execution="auto", workloads=("arraybw",), jobs=1,
           resume=False, trace_dir=None, axis=AXIS, **kw):
    return execute_sweep_request(SweepRequest(
        axes=[Axis.parse(axis)], config=small_config(2),
        workloads=list(workloads),
        scale=0.1, jobs=jobs, use_disk_cache=False,
        sweeps_dir=str(tmp_path / "sweeps"), resume=resume,
        execution=execution,
        trace_dir=str(trace_dir or tmp_path / "traces"), **kw,
    ))


def _cell_payloads(results):
    out = {}
    for pr in results.points:
        for key, run in pr.runs.items():
            payload = run.to_payload()
            payload.pop("wall_seconds", None)
            payload.pop("execution", None)
            out[(pr.point.point_id,) + key] = payload
    return out


class TestAutoSweep:
    def test_captures_once_per_isa_then_replays(self, tmp_path):
        results = _sweep(tmp_path)
        assert results.execution == "auto"
        assert not results.failed_points
        # 4 points x 1 workload x 2 ISAs = 8 cells; one functional
        # execution per workload x ISA group, everything else replayed.
        assert results.captures == 2
        assert results.replays == 6
        assert results.replay_drift == 0
        assert results.verified_cell  # the drift guard sampled a cell

    def test_statistics_match_execute_sweep(self, tmp_path):
        auto = _sweep(tmp_path)
        clear_suite_cache()
        execute = _sweep(tmp_path, execution="execute")
        assert _cell_payloads(auto) == _cell_payloads(execute)

    def test_warm_store_replays_everything(self, tmp_path):
        _sweep(tmp_path)
        clear_suite_cache()
        again = _sweep(tmp_path)
        assert again.captures == 0
        assert again.replays == 8
        assert again.replay_drift == 0

    def test_to_json_carries_replay_fields(self, tmp_path):
        import json

        doc = json.loads(_sweep(tmp_path).to_json())
        assert doc["execution"] == "auto"
        assert doc["captures"] == 2
        assert doc["replays"] == 6
        assert doc["replay_drift"] == 0

    def test_parallel_pool_shares_the_store(self, tmp_path):
        results = _sweep(tmp_path, jobs=2)
        assert not results.failed_points
        assert results.captures == 2
        assert results.replays == 6
        assert results.replay_drift == 0


class TestStrictAndDegraded:
    def test_strict_replay_against_warm_store(self, tmp_path):
        _sweep(tmp_path)
        clear_suite_cache()
        strict = _sweep(tmp_path, execution="replay")
        assert not strict.failed_points
        assert strict.captures == 0
        assert strict.replays == 8

    def test_strict_replay_with_empty_store_fails_cells(self, tmp_path):
        strict = _sweep(tmp_path, execution="replay", verify_replay=False)
        assert strict.failed_points  # missing traces fail, never execute
        assert strict.captures == 0 and strict.replays == 0

    def test_strict_replay_without_store_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        with pytest.raises(ReproError, match="trace store"):
            execute_sweep_request(SweepRequest(
                axes=[Axis.parse(AXIS)], config=small_config(2),
                workloads=["arraybw"], scale=0.1, use_disk_cache=False,
                sweeps_dir=str(tmp_path / "sweeps"), execution="replay",
                trace_dir=None))

    def test_auto_degrades_without_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        results = execute_sweep_request(SweepRequest(
            axes=[Axis.parse(AXIS)], config=small_config(2),
            workloads=["arraybw"], scale=0.1, use_disk_cache=False,
            sweeps_dir=str(tmp_path / "sweeps"), execution="auto",
            trace_dir=None))
        assert results.execution == "execute"
        assert results.captures == 0 and results.replays == 0
        assert not results.failed_points

    def test_unknown_execution_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="execution mode"):
            _sweep(tmp_path, execution="warp")


class TestDriftGuard:
    def test_replay_differs_on_stat_change(self, tmp_path):
        results = _sweep(tmp_path)
        run = next(iter(results.points[0].runs.values()))
        same = type(run).from_payload(run.to_payload())
        assert not _replay_differs(run, same)
        tampered = type(run).from_payload(run.to_payload())
        tampered.total.bump("cycles", 1)
        assert _replay_differs(run, tampered)

    def test_replay_differs_on_failed_reexecution(self, tmp_path):
        results = _sweep(tmp_path)
        run = next(iter(results.points[0].runs.values()))
        failed = type(run).from_payload(run.to_payload())
        failed.error = "boom"
        assert _replay_differs(run, failed)

    def test_no_verify_skips_the_guard(self, tmp_path):
        results = _sweep(tmp_path, verify_replay=False)
        assert results.verified_cell == ""
        assert results.replay_drift == 0


class TestDerivedCells:
    """Cells past the last evicting size are derived, not simulated, and
    the drift guard re-executes one of those (EXPERIMENTS.md,
    "Eviction-free equivalence")."""

    PLATEAU = "l1d.size_bytes=1k,64k,128k,256k"

    def test_plateau_cells_are_derived(self, tmp_path):
        results = _sweep(tmp_path, axis=self.PLATEAU, workloads=("spmv",))
        # 1k captures, 64k simulates and witnesses, 128k and 256k derive.
        assert (results.captures, results.replays) == (2, 6)
        assert results.derived == 4
        assert results.replay_drift == 0
        clear_suite_cache()
        execute = _sweep(tmp_path, axis=self.PLATEAU, workloads=("spmv",),
                         execution="execute")
        assert execute.derived == 0
        assert _cell_payloads(results) == _cell_payloads(execute)

    def test_guard_takes_the_smallest_derived_cell(self, tmp_path):
        results = _sweep(tmp_path, axis=self.PLATEAU,
                         workloads=("lulesh", "spmv"))
        assert results.derived == 8
        first_derived = results.points[2]
        smallest = min(first_derived.runs.values(),
                       key=lambda run: run.dynamic_instructions)
        assert results.verified_cell == (
            f"{first_derived.point.point_id}:"
            f"{smallest.workload}/{smallest.isa}")

    def test_pool_cells_derive_in_their_own_process(self, tmp_path):
        """A derivation happens against the witnesses of the worker's own
        trace memo, and comes back labelled ``execution="derived"``, so
        the tally crosses the process boundary.  Three plateau-or-witness
        cells per trace over two workers: one worker runs two of them,
        and the second of those derives."""
        results = _sweep(tmp_path, axis=self.PLATEAU, workloads=("spmv",),
                         jobs=2)
        assert results.replays == 6 and 1 <= results.derived <= 4
        assert results.replay_drift == 0

    def test_guard_catches_a_wrong_derivation(self, tmp_path, monkeypatch):
        """Admission forced open across an evicting geometry: the 1k
        cells take the plateau's statistics, and the guard, which goes
        for a derived cell first, re-executes one and disagrees."""
        monkeypatch.setattr(equivalence, "admits", lambda *_: True)
        with pytest.warns(UserWarning, match="trace replay drift"):
            results = _sweep(tmp_path, axis="l1d.size_bytes=128k,64k,1k",
                             workloads=("spmv",))
        assert results.derived == 2
        assert results.verified_cell.startswith("l1d.size_bytes=1024:")
        assert results.replay_drift == 1

    def test_cli_summary_names_the_derived_share(self, tmp_path, capsys,
                                                 monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_SWEEPS_DIR", str(tmp_path / "sweeps"))
        assert main(["sweep", "-a", self.PLATEAU, "--cus", "2", "-w", "spmv",
                     "-s", "0.1", "--no-cache", "--quiet",
                     "--trace-dir", str(tmp_path / "traces")]) == 0
        err = capsys.readouterr().err
        assert "trace replay: 2 capture(s), 6 replay(s), drift=0" in err
        assert "6 replays, 4 derived from 2 witnesses" in err


class TestResumeInteraction:
    def test_journal_resume_skips_replay_entirely(self, tmp_path):
        first = _sweep(tmp_path, resume=True)
        assert first.captures == 2
        clear_suite_cache()
        resumed = _sweep(tmp_path, resume=True)
        assert resumed.replayed() == 4       # all points from the journal
        assert resumed.captures == 0 and resumed.replays == 0
        assert _cell_payloads(first) == _cell_payloads(resumed)

    def test_corrupt_stored_trace_self_heals(self, tmp_path):
        _sweep(tmp_path)
        store = TraceStore(tmp_path / "traces")
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        store._path(fp).write_bytes(b"garbage")
        clear_suite_cache()
        again = _sweep(tmp_path)
        assert not again.failed_points
        assert again.captures == 1           # only the corrupted group
        assert again.replays == 7
        assert again.replay_drift == 0
