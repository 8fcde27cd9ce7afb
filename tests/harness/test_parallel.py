"""``--jobs`` fan-out (forked workers leasing from an in-process
coordinator): determinism vs the serial path, failure isolation, and
job timeouts at every ``jobs`` value."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.common.config import small_config
from repro.core import RunRequest, Session, SweepRequest
from repro.dist import run_dist_sweep
from repro.explore.sweep import execute_sweep_request
from repro.harness import runner
from repro.harness.parallel import Job, JobEvent, resolve_jobs, run_cell
from repro.harness.runner import WorkloadRun, run_workload

WORKLOADS = ["arraybw", "comd", "bitonic"]
SCALE = 0.1
SEED = 7


def _jobs(workloads=WORKLOADS, isas=("hsail", "gcn3"), config=None):
    config = config or small_config(2)
    session = Session(config)
    return [Job(session.build_run_request(w, isa, scale=SCALE, seed=SEED))
            for w in workloads for isa in isas]


# ---- failure injection -------------------------------------------------------
# Stand-ins for ``runner.execute_run_request``, which every cell runs
# through; a forked worker inherits the patch.

_execute = runner.execute_run_request
_PARENT = os.getpid()


def _exec_raise_on_comd(request, trace_store=None):
    if request.workload == "comd":
        raise RuntimeError("injected failure for comd")
    return _execute(request, trace_store=trace_store)


def _exec_sleep_forever(request, trace_store=None):
    time.sleep(600)


def _exec_die_in_worker(request, trace_store=None):
    """Hard-crash a forked worker; succeed when retried in the parent."""
    if os.getpid() != _PARENT:
        os._exit(3)   # simulates a segfault/OOM-kill: no exception, no result
    return _execute(request, trace_store=trace_store)


def _suite(monkeypatch, execute, workloads=WORKLOADS, jobs=2, **kw):
    """A ``jobs=2`` suite's runs with every cell executed by ``execute``."""
    monkeypatch.setattr(runner, "execute_run_request", execute)
    return Session(small_config(2)).suite(
        scale=SCALE, workloads=workloads, seed=SEED, use_disk_cache=False,
        jobs=jobs, **kw).runs


class TestDeterminism:
    """jobs=N must be stat-identical to the serial path, cell for cell."""

    @pytest.fixture(scope="class")
    def serial(self):
        return Session(small_config(2)).suite(
            scale=SCALE, workloads=WORKLOADS, seed=SEED,
            use_disk_cache=False, jobs=1)

    @pytest.fixture(scope="class")
    def pooled(self):
        return Session(small_config(2)).suite(
            scale=SCALE, workloads=WORKLOADS, seed=SEED,
            use_disk_cache=False, jobs=4)

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_statsets_identical(self, serial, pooled, workload, isa):
        s = serial.get(workload, isa)
        p = pooled.get(workload, isa)
        assert s.total.to_payload() == p.total.to_payload()
        assert s.total.snapshot() == p.total.snapshot()
        assert [d.to_payload() for d in s.per_dispatch] == \
               [d.to_payload() for d in p.per_dispatch]

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_dispatch_order_and_footprints_identical(self, serial, pooled,
                                                     workload, isa):
        s = serial.get(workload, isa)
        p = pooled.get(workload, isa)
        assert s.dispatch_kernel_names == p.dispatch_kernel_names
        assert s.data_footprint_bytes == p.data_footprint_bytes
        assert s.instr_footprint_bytes == p.instr_footprint_bytes
        assert s.static_instructions == p.static_instructions
        assert s.kernel_code_bytes == p.kernel_code_bytes
        assert s.verified and p.verified

    def test_matrix_insertion_order_identical(self, serial, pooled):
        assert list(serial.runs) == list(pooled.runs)

    def test_roundtrip_through_payload_is_lossless(self):
        from repro.harness.runner import WorkloadRun

        run = run_workload("spmv", "hsail", scale=SCALE, config=small_config(2))
        again = WorkloadRun.from_payload(run.to_payload())
        assert again.to_payload() == run.to_payload()
        assert again.total.snapshot() == run.total.snapshot()


class TestSuiteCacheKey:
    def test_different_configs_do_not_collide(self):
        """Regression: the in-process suite memo used to ignore the config,
        so a second call with a *different* GpuConfig returned the first
        config's stale results."""
        from dataclasses import replace

        base = small_config(2)
        slower = base.scaled(cu=replace(base.cu, valu_issue_cycles=8))
        a = Session(base).suite(scale=SCALE, workloads=["arraybw"], seed=SEED)
        b = Session(slower).suite(scale=SCALE, workloads=["arraybw"], seed=SEED)
        assert a is not b
        # Doubling VALU issue latency must show up in cycles; identical
        # results would mean the second call was served the stale matrix.
        assert a.get("arraybw", "gcn3").cycles < b.get("arraybw", "gcn3").cycles

    def test_same_config_still_memoized(self, tmp_path):
        """The same config again is served from the result cache: every
        cell a hit, the same payloads."""
        common = dict(scale=SCALE, workloads=["arraybw"], seed=SEED,
                      use_disk_cache=True, cache_dir=str(tmp_path))
        a = Session(small_config(2)).suite(**common)
        events = []
        b = Session(small_config(2)).suite(progress=events.append, **common)
        assert {e.status for e in events} == {"hit"} and len(events) == 2
        assert ({k: r.to_payload() for k, r in a.runs.items()}
                == {k: r.to_payload() for k, r in b.runs.items()})


class TestFailureIsolation:
    def test_raising_worker_marks_run_failed(self, monkeypatch):
        results = _suite(monkeypatch, _exec_raise_on_comd)
        assert len(results) == 6
        for (workload, _isa), run in results.items():
            if workload == "comd":
                assert run.error is not None
                assert "injected failure for comd" in run.error
                assert not run.verified
            else:
                assert run.error is None
                assert run.verified

    def test_timeout_marks_run_failed_without_hanging(self, monkeypatch):
        start = time.monotonic()
        results = _suite(monkeypatch, _exec_sleep_forever, ["arraybw"],
                         job_timeout=0.5)
        elapsed = time.monotonic() - start
        assert elapsed < 30, "suite hung on a stuck worker"
        assert len(results) == 2
        for run in results.values():
            assert run.error == "timed out after 0.5s"

    def test_dead_worker_retried_inline(self, monkeypatch):
        """Both forked workers die inside a cell: each lease goes back,
        and this process finishes the cells."""
        results = _suite(monkeypatch, _exec_die_in_worker, ["arraybw"])
        assert len(results) == 2
        for run in results.values():
            assert run.error is None, run.error
            assert run.verified

    def test_a_dead_timed_cell_says_so(self, monkeypatch):
        """Under a job timeout a cell runs in a child of its own; one
        that dies is a failed cell naming the exit, not a retry."""
        results = _suite(monkeypatch, _exec_die_in_worker, ["arraybw"],
                         jobs=1, job_timeout=60)
        for run in results.values():
            assert run.error == "cell process died (exit status 3)"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_job_timeout_holds_at_every_jobs_value(self, jobs):
        results = Session(small_config(2)).suite(
            scale=SCALE, workloads=["arraybw"], seed=SEED, use_disk_cache=False,
            jobs=jobs, job_timeout=0.001)
        assert len(results.runs) == 2
        for run in results.runs.values():
            assert run.error == "timed out after 0.001s"

    def test_inline_capture_never_raises(self):
        run = run_cell(_jobs(["no-such-workload"], ["gcn3"])[0].request)
        assert run.error is not None
        assert not run.verified
        assert run.per_dispatch == []

    def test_run_suite_survives_bad_workload(self, tmp_path):
        results = Session(small_config(2)).suite(
            scale=SCALE, workloads=["arraybw", "no-such-workload"],
            use_disk_cache=False, jobs=1)
        assert results.get("arraybw", "gcn3").verified
        failed = results.get("no-such-workload", "gcn3")
        assert failed.error is not None
        assert not results.all_verified()
        assert len(results.failures()) == 2   # both ISAs of the bad workload

    def test_failed_runs_never_written_to_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        Session(small_config(2)).suite(
            scale=SCALE, workloads=["no-such-workload"],
            use_disk_cache=True,
            cache_dir=str(cache_dir), jobs=1)
        assert not list(cache_dir.glob("*.json"))


class TestOneFailureShape:
    """A cell that raises comes back from every runner as a failed
    ``WorkloadRun`` carrying the exception's type and message, and a
    daemon reports it alike with and without a job timeout."""

    REQUEST = RunRequest(workload="no-such-workload", isa="gcn3",
                         scale=SCALE, config=small_config(2))

    @pytest.fixture(scope="class")
    def error(self):
        run = run_cell(self.REQUEST)
        assert run.error.startswith("KeyError: ")
        assert "no-such-workload" in run.error
        return run.error

    def _sweep(self, tmp_path, name, **fields):
        return SweepRequest(
            axes=("cu.vrf_banks=2,4",), workloads=("no-such-workload",),
            isas=("gcn3",), scale=SCALE, config=small_config(2),
            use_disk_cache=False, execution="execute",
            sweeps_dir=str(tmp_path / name), **fields)

    def test_every_runner_hands_back_the_same_failed_run(self, tmp_path,
                                                         error):
        runs = [run_cell(self.REQUEST), run_cell(self.REQUEST, timeout=60)]
        for name, results in (
                ("serial", execute_sweep_request(
                    self._sweep(tmp_path, "serial"))),
                ("jobs", execute_sweep_request(
                    self._sweep(tmp_path, "jobs", jobs=2))),
                ("dist", run_dist_sweep(
                    self._sweep(tmp_path, "dist"), workers=0))):
            cells = [run for pr in results.points for run in pr.runs.values()]
            assert len(cells) == 2, name
            runs += cells
        for run in runs:
            assert isinstance(run, WorkloadRun)
            assert (run.workload, run.isa) == ("no-such-workload", "gcn3")
            assert run.error == error and not run.verified

    def test_a_daemon_job_reports_it_alike_with_and_without_a_timeout(
            self, tmp_path, error):
        from repro.serve import DaemonClient, Scheduler
        from repro.serve.daemon import Daemon

        seen = []
        for job_timeout in (None, 60.0):
            daemon = Daemon(Scheduler(job_timeout=job_timeout), port=0)
            daemon.start()
            client = DaemonClient(daemon.host, daemon.port)
            try:
                status = client.wait(client.submit(self.REQUEST).job_id,
                                     timeout=120)
                executes = client.metrics().executes
            finally:
                client.close()
                daemon.close()
                daemon.scheduler.stop()
            result = {key: value for key, value
                      in (status.result or {}).items()
                      if key != "wall_seconds"}
            seen.append((status.state, status.error, result, executes))
        assert seen[0] == seen[1]
        assert seen[0][1] == error and seen[0][2]["error"] == error
        assert seen[0][3] == 1


class TestProgressEvents:
    def test_events_cover_matrix_and_report_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        session = Session(small_config(2))
        common = dict(scale=SCALE,
                      workloads=["arraybw", "bitonic"], seed=SEED,
                      use_disk_cache=True,
                      cache_dir=cache_dir)
        cold_events = []
        session.suite(jobs=2, progress=cold_events.append, **common)
        assert len(cold_events) == 4
        assert {e.status for e in cold_events} == {"ok"}
        assert sorted((e.workload, e.isa) for e in cold_events) == sorted(
            (w, isa) for w in ("arraybw", "bitonic") for isa in ("hsail", "gcn3"))
        assert {e.index for e in cold_events} == {1, 2, 3, 4}
        assert all(e.total == 4 for e in cold_events)

        warm_events = []
        session.suite(jobs=2, progress=warm_events.append, **common)
        assert {e.status for e in warm_events} == {"hit"}

    def test_event_format_line(self):
        event = JobEvent("comd", "gcn3", "miss", 1.234, 3, 20)
        line = event.format()
        assert "comd/gcn3" in line and "[3/20]" in line and "1.23s" in line


def test_a_traced_suite_keeps_its_events_under_jobs():
    """A forked worker runs the ledger's own cell requests, so a traced
    suite's cells come back with their events."""
    from repro.obs import TraceConfig

    results = Session(small_config(2)).suite(
        scale=SCALE, workloads=["arraybw"], seed=SEED, jobs=2,
        trace=TraceConfig(max_events=10))
    for run in results.runs.values():
        assert run.verified and len(run.trace.events) == 10


def test_no_process_pool_is_imported():
    """Every ``repro`` module imported and a ``jobs=2`` suite run, and
    still no ``concurrent.futures``: the forked workers are the one way
    a cell leaves the process."""
    script = """
import pkgutil, importlib, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
from repro.common.config import small_config
from repro.core import Session
runs = Session(small_config(2)).suite(scale=0.1, workloads=["arraybw"],
                                      use_disk_cache=False, jobs=2).runs
assert all(run.verified for run in runs.values())
print(sorted(name for name in sys.modules
             if name.startswith("concurrent")))
"""
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestResolveJobs:
    def test_explicit_count_passthrough(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_zero_none_negative_mean_all_cores(self):
        try:
            cores = max(1, len(os.sched_getaffinity(0)))
        except AttributeError:
            cores = max(1, os.cpu_count() or 1)
        assert resolve_jobs(0) == cores
        assert resolve_jobs(None) == cores
        assert resolve_jobs(-1) == cores
