"""A suite is a one-point sweep: ``Session.suite`` runs through the sweep
ledger's dispatch loop, so it shares the ledger's per-cell cache writes,
progress stream and deterministic reduce, and keeps no memo of its own."""

import pytest

from repro.common.config import small_config
from repro.core import Session
from repro.core.requests import ISAS
from repro.explore.sweep import SweepLedger
from repro.harness import runner
from repro.harness.cache import job_fingerprint

SCALE = 0.1
SEED = 7
WORKLOADS = ["arraybw", "bitonic"]


def _fail_once(monkeypatch, workload, isa, exc):
    """Make the next simulation of one cell raise ``exc``; later ones
    (and every other cell) run normally."""
    real = runner.execute_run_request
    armed = [True]

    def execute(request, trace_store=None):
        if armed[0] and (request.workload, request.isa) == (workload, isa):
            armed[0] = False
            raise exc
        return real(request, trace_store=trace_store)

    monkeypatch.setattr(runner, "execute_run_request", execute)


def _suite(tmp_path, **fields):
    fields.setdefault("workloads", ["arraybw"])
    return Session(small_config(2)).suite(
        scale=SCALE, seed=SEED, use_disk_cache=True,
        cache_dir=str(tmp_path / "cache"), **fields)


class TestRestart:
    def test_killed_suite_keeps_its_finished_cells(self, tmp_path,
                                                   monkeypatch):
        """Each cell is cached as it lands, so a kill after the first of
        two cells leaves that cell for the rerun."""
        _fail_once(monkeypatch, "arraybw", "gcn3", KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            _suite(tmp_path, jobs=1)
        first = job_fingerprint(small_config(2), "arraybw", "hsail", SCALE,
                                SEED)
        cached = list((tmp_path / "cache").glob("*.json"))
        assert [p.stem for p in cached] == [first]

        events = []
        results = _suite(tmp_path, jobs=1, progress=events.append)
        assert [(e.isa, e.status) for e in events] == [("hsail", "hit"),
                                                       ("gcn3", "ok")]
        assert results.all_verified()

    def test_transient_failure_is_retried(self, tmp_path, monkeypatch):
        """A failed cell is never cached or memoized: the next call in the
        same process simulates it again."""
        _fail_once(monkeypatch, "arraybw", "gcn3", RuntimeError("transient"))
        first = _suite(tmp_path)
        assert "transient" in first.get("arraybw", "gcn3").error
        again = _suite(tmp_path)
        assert again is not first
        assert again.all_verified()


class TestOnePointSweep:
    def test_suite_cells_use_the_cell_fingerprint(self):
        request = Session(small_config(2)).build_suite_request(
            scale=SCALE, seed=SEED, workloads=WORKLOADS,
            use_disk_cache=False)
        ledger = SweepLedger(request)
        try:
            jobs = ledger.open()
        finally:
            ledger.close()
        assert [(j.workload, j.isa) for j in jobs] == \
            [(w, isa) for w in WORKLOADS for isa in ISAS]
        config = request.resolved_config()
        for job in jobs:
            assert job.point == "base"
            assert job.fingerprint == job_fingerprint(
                config, job.workload, job.isa, SCALE, SEED)
        assert ledger.results.journal_path is None

    def test_sweep_at_the_base_value_hits_what_a_suite_wrote(self, tmp_path):
        base = small_config(2)
        _suite(tmp_path, workloads=WORKLOADS)
        events = []
        results = Session(base).sweep(
            [f"cu.vrf_banks={base.cu.vrf_banks}"], workloads=WORKLOADS,
            scale=SCALE, seed=SEED, use_disk_cache=True,
            cache_dir=str(tmp_path / "cache"),
            sweeps_dir=str(tmp_path / "sweeps"),
            trace_dir=str(tmp_path / "traces"), progress=events.append)
        assert len(events) == 2 * len(WORKLOADS)
        assert {e.status for e in events} == {"hit"}
        assert results.captures == results.replays == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runs_in_names_by_isas_order(self, tmp_path, jobs):
        """Cache hits resolve before misses, yet the matrix comes back
        in workloads x ISAs order on both the serial and the pool path."""
        _suite(tmp_path, workloads=["bitonic"])
        results = _suite(tmp_path, workloads=WORKLOADS, jobs=jobs)
        assert list(results.runs) == \
            [(w, isa) for w in WORKLOADS for isa in ISAS]
        assert results.all_verified()
