"""Sweep workers beside the inline one: ``DistSweep(workers=N)`` forks
local ones from the coordinator's process, and ``worker_urls`` adds a
thread per ``repro serve`` daemon.

A forked child must leave through ``os._exit`` on every path (else a
failure would carry on running its parent's code — here, pytest), must
not inherit the coordinator's signal handlers or output, must hold its
own end of its socketpair and no other socket (nothing listens on a
port), and must see the journal fully written.  Every local worker is
built by ``build_worker`` with the request's ``job_timeout``, and a
timed cell's own child dies with the worker.  A run comes back from a
forked worker or a timed cell's child as itself, never decoded from a
payload.  None of this loads the serve layer."""

import json
import os
import signal
import stat
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.common.config import small_config
from repro.common.stats import StatSet
from repro.core.requests import RunRequest, SweepRequest
from repro.dist import (
    DistSweep,
    Worker,
    journal_digest,
    run_dist_sweep,
)
from repro.explore.space import Axis
from repro.explore.sweep import execute_sweep_request
from repro.harness.parallel import run_cell
from repro.harness.runner import WorkloadRun

AXES = (Axis("cu.vrf_banks", (2, 4)), Axis("l1d.hit_latency", (4, 8)))
CELLS = 4


def _request(tmp_path, name, **kw):
    spec = dict(axes=AXES, workloads=("spmv",), isas=("gcn3",), scale=0.1,
                seed=7, config=small_config(2), use_disk_cache=False,
                sweeps_dir=str(tmp_path / name / "sweeps"),
                trace_dir=str(tmp_path / name / "traces"),
                verify_replay=False)
    spec.update(kw)
    return SweepRequest(**spec)


@pytest.fixture(scope="module")
def serial_digest(tmp_path_factory):
    results = execute_sweep_request(
        _request(tmp_path_factory.mktemp("serial"), "serial"))
    return journal_digest(results.journal_path)


def _open_inodes(sockets_only=False):
    """(device, inode) of every file descriptor (or every socket) this
    process holds."""
    out = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            st = os.fstat(int(fd))
        except OSError:
            continue
        if not sockets_only or stat.S_ISSOCK(st.st_mode):
            out.add((st.st_dev, st.st_ino))
    return out


def _inode(fileobj):
    st = os.fstat(fileobj.fileno())
    return st.st_dev, st.st_ino


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to list a child's descriptors")
def test_forked_children_start_clean(tmp_path, monkeypatch, serial_digest):
    parent = os.getpid()
    sweep = DistSweep(_request(tmp_path, "fork"), workers=2)
    threads_before = threading.active_count()
    sockets_before = _open_inodes(sockets_only=True)
    at_fork = []
    real_fork, real_run = os.fork, Worker.run

    def fork():
        journal = sweep.coordinator.ledger.journal.path
        at_fork.append({
            "threads": threading.active_count(),
            "pipes": [[_inode(end) for end in pair] for pair in sweep.pipes],
            "journal": [json.loads(line)["type"]
                        for line in journal.read_text().splitlines()],
        })
        return real_fork()

    def run(self):
        if os.getpid() != parent:
            devnull = os.stat(os.devnull)
            own = _inode(self.transport.sock)
            sockets = _open_inodes(sockets_only=True) - sockets_before
            state = {
                "sigterm": signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
                "sigint": signal.getsignal(signal.SIGINT) == signal.SIG_DFL,
                "stdout": os.path.samestat(os.fstat(1), devnull),
                "stderr": os.path.samestat(os.fstat(2), devnull),
                "own_child_end":
                    own == at_fork[-1]["pipes"][len(at_fork) - 1][1],
                # no listener, no parent end, no sibling's end
                "no_other_socket": sockets == {own},
            }
            (tmp_path / f"child-{os.getpid()}.json").write_text(
                json.dumps(state))
        return real_run(self)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(Worker, "run", run)
    sweep.start()
    # The parent keeps only its own ends, one serving thread per pipe.
    assert not _open_inodes() & {pair[1] for pair in at_fork[-1]["pipes"]}
    results = sweep.wait(timeout=120)

    assert len(at_fork) == 2
    for record in at_fork:
        assert record["threads"] == threads_before   # no thread of ours
        assert record["journal"] == ["header"]       # nothing buffered
    assert at_fork[0]["pipes"] == at_fork[1]["pipes"]   # all made first
    # A child still asking for work when the sweep is done is killed.
    assert all(p.returncode in (0, -signal.SIGKILL) for p in sweep.processes)
    states = [json.loads(p.read_text()) for p in tmp_path.glob("child-*")]
    assert len(states) == 2
    for state in states:
        assert state == dict.fromkeys(state, True), state
    assert sum(w.cells for w in results.workers.values()) == CELLS
    assert journal_digest(results.journal_path) == serial_digest


def test_a_failing_child_exits_and_the_sweep_finishes_inline(
        tmp_path, monkeypatch, serial_digest):
    parent = os.getpid()
    real_run = Worker.run

    def run(self):
        if os.getpid() != parent:
            raise RuntimeError("worker loop failed")
        return real_run(self)

    monkeypatch.setattr(Worker, "run", run)
    sweep = DistSweep(_request(tmp_path, "fail"), workers=2)
    try:
        sweep.start()
    except RuntimeError:
        if os.getpid() != parent:   # a child carried on past its fork
            (tmp_path / f"escaped-{os.getpid()}").write_text("")
            os._exit(3)
        raise
    results = sweep.wait(timeout=120)

    assert not list(tmp_path.glob("escaped-*"))
    assert [p.returncode for p in sweep.processes] == [1, 1]
    assert set(results.workers) == {"inline"}
    assert results.workers["inline"].cells == CELLS
    assert journal_digest(results.journal_path) == serial_digest


def test_a_dead_worker_gives_its_lease_back_at_once(tmp_path, monkeypatch):
    """A forked worker that dies inside a cell closes its pipe, and its
    lease ends then: the other worker runs the dead one's cells, and the
    death counts as an expiry."""
    parent = os.getpid()
    real_run_cell = Worker._run_cell

    def run_cell(self, request):
        if os.getpid() != parent and self.worker_id == "local-0":
            os._exit(3)
        return real_run_cell(self, request)

    monkeypatch.setattr(Worker, "_run_cell", run_cell)
    sweep = DistSweep(_request(tmp_path, "dead", workloads=("spmv", "bitonic")),
                      workers=2)
    results = sweep.start().wait(timeout=120)

    assert sweep.processes[0].returncode == 3
    assert results.workers["local-0"].cells == 0
    assert results.expiries == results.workers["local-0"].expiries == 1
    runs = [run for pr in results.points for run in pr.runs.values()]
    assert len(runs) == 2 * CELLS
    assert all(run.error is None and run.verified for run in runs)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_raising_worker_thread_gives_its_lease_back(
        tmp_path, monkeypatch, serial_digest):
    """An in-process worker whose thread raises while it holds a lease
    ends that lease as it returns, so the inline worker runs the whole
    shard at once instead of waiting the sweep out.  The daemon-backed
    worker raises before it would reach its daemon."""
    real_run_cell = Worker._run_cell

    def run_cell(self, request):
        if self.worker_id == "daemon-0":
            raise RuntimeError("worker thread failed")
        return real_run_cell(self, request)

    monkeypatch.setattr(Worker, "_run_cell", run_cell)
    start = time.monotonic()
    results = DistSweep(_request(tmp_path, "raise"),
                        worker_urls=["http://127.0.0.1:9"]).start().wait(
                            timeout=10)
    assert time.monotonic() - start < 10
    assert results.workers["daemon-0"].cells == 0
    assert results.expiries == results.workers["daemon-0"].expiries == 1
    assert results.workers["inline"].cells == CELLS
    assert not results.failed_points
    assert journal_digest(results.journal_path) == serial_digest


def _decodes(call):
    """(result, payload decodes by class) that ``call`` makes in this
    process, counted by wrapping ``WorkloadRun.from_payload`` and
    ``StatSet.from_payload``; a forked child's decodes are its own."""
    counts = Counter()
    originals = {cls: cls.__dict__["from_payload"]
                 for cls in (WorkloadRun, StatSet)}

    def counting(cls, original):
        def decode(klass, payload):
            counts[cls.__name__] += 1
            return original.__func__(klass, payload)
        return classmethod(decode)

    for cls, original in originals.items():
        cls.from_payload = counting(cls, original)
    try:
        result = call()
    finally:
        for cls, original in originals.items():
            cls.from_payload = original
    return result, counts


def test_stolen_cells_run_once(tmp_path, monkeypatch):
    """A victim learns of a theft from its next report's reply, so no
    stolen cell is simulated twice and the thief's lease is released,
    not expired.  24 cells in four trace groups of six; each of
    ``local-0``'s cells takes 0.4 s longer (the forked workers inherit
    the patch), so ``local-1`` runs out of shards first and steals from
    it while it still has cells to run."""
    run_cell = Worker._run_cell

    def slow_run_cell(self, request):
        if self.worker_id == "local-0":
            time.sleep(0.4)
        return run_cell(self, request)

    monkeypatch.setattr(Worker, "_run_cell", slow_run_cell)
    request = _request(
        tmp_path, "steal", workloads=("spmv", "hpgmg"),
        isas=("hsail", "gcn3"),
        axes=(Axis("cu.vrf_banks", (2, 4, 8)),
              Axis("l1d.hit_latency", (4, 8))))
    results = run_dist_sweep(request, workers=2, timeout=120)
    dist = results.dist_payload()
    assert sum(w["cells"] for w in dist["workers"].values()) == 24
    assert dist["steals"] >= 1
    assert dist["duplicate_reports"] == 0 and dist["expiries"] == 0
    assert not results.failed_points
    serial = execute_sweep_request(_request(
        tmp_path, "steal-serial", workloads=("spmv", "hpgmg"),
        isas=("hsail", "gcn3"), axes=request.axes))
    assert (journal_digest(results.journal_path)
            == journal_digest(serial.journal_path))


def test_a_local_workers_reports_decode_nothing(tmp_path):
    """A forked worker reports each cell's run as itself: the
    coordinator's process decodes no run payload."""
    spec = dict(axes=(AXES[0],))
    results, decodes = _decodes(lambda: run_dist_sweep(
        _request(tmp_path, "decode", **spec), workers=1, timeout=120))
    assert results.workers["local-0"].cells == 2
    assert not results.failed_points
    assert decodes == {}


def test_a_timed_cell_decodes_nothing():
    """A timed cell's child sends its run back as itself."""
    run, decodes = _decodes(lambda: run_cell(
        RunRequest(workload="spmv", isa="gcn3", scale=0.1,
                   config=small_config(2)), timeout=300))
    assert run.verified and run.error is None
    assert decodes == {}


def test_local_workers_honour_the_job_timeout(tmp_path):
    def failed(workers):
        results = run_dist_sweep(
            _request(tmp_path, f"timeout-{workers}", job_timeout=0.001),
            workers=workers, timeout=120)
        runs = [run for pr in results.points for run in pr.runs.values()]
        assert all("timed out" in (run.error or "") for run in runs)
        return sorted(pr.point.point_id for pr in results.failed_points)

    inline = failed(0)
    assert len(inline) == len(AXES[0].values) * len(AXES[1].values)
    assert failed(1) == inline


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            return "\nState:\tZ" in f.read()
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads a process's state from /proc")
def test_a_timed_cell_dies_with_its_killed_worker(tmp_path, monkeypatch):
    """An aborted sweep SIGKILLs a worker that is inside a timed cell;
    the child running that cell must die with it, not run on (a wedged
    cell would run forever)."""
    from repro.harness import runner

    pid_file = tmp_path / "cell.pid"

    def wedged(request, trace_store=None):
        pid_file.write_text(str(os.getpid()))
        time.sleep(120)

    monkeypatch.setattr(runner, "execute_run_request", wedged)
    sweep = DistSweep(_request(tmp_path, "orphan", job_timeout=600),
                      workers=1).start()
    deadline = time.monotonic() + 60
    while not pid_file.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    results = sweep.wait(timeout=0.1)      # aborts: the sweep times out
    runs = [run for pr in results.points for run in pr.runs.values()]
    assert runs and all("timed out" in (run.error or "") for run in runs)
    pid = int(pid_file.read_text())
    assert pid not in (os.getpid(), sweep.processes[0].pid)
    deadline = time.monotonic() + 5
    while not _gone_or_zombie(pid):
        if time.monotonic() >= deadline:
            os.kill(pid, signal.SIGKILL)
            pytest.fail(f"timed cell {pid} outlived its killed worker")
        time.sleep(0.05)


def test_a_daemon_backed_worker_pushes_its_trace_back(tmp_path,
                                                      serial_digest):
    """A worker that forwards cells to a ``repro serve`` daemon with its
    own store captures there, and pushes the trace back to the
    coordinator's store after the shard."""
    from repro.serve import Scheduler
    from repro.serve.daemon import Daemon

    daemon = Daemon(Scheduler(trace_dir=str(tmp_path / "daemon-traces")),
                    port=0)
    daemon.start()
    try:
        results = run_dist_sweep(_request(tmp_path, "daemon"),
                                 worker_urls=[daemon.url], timeout=120)
    finally:
        daemon.close()
        daemon.scheduler.stop()
    assert results.workers["daemon-0"].cells == CELLS
    assert list((tmp_path / "daemon-traces").glob("*.trace"))
    assert list((tmp_path / "daemon" / "traces").glob("*.trace"))
    assert journal_digest(results.journal_path) == serial_digest


def test_local_workers_leave_the_serve_layer_unloaded(tmp_path):
    """A ``workers=1`` dist sweep and a ``jobs=2`` suite in one fresh
    process: neither imports the serve layer or the HTTP stack."""
    script = f"""
import sys
from repro.common.config import small_config
from repro.core import Session
from repro.dist import run_dist_sweep
from tests.dist.test_local_workers import CELLS, _request
from pathlib import Path
results = run_dist_sweep(_request(Path({str(tmp_path)!r}), "diet"),
                         workers=1, timeout=120)
assert sum(w.cells for w in results.workers.values()) == CELLS
runs = Session(small_config(2)).suite(scale=0.1, workloads=["arraybw"],
                                      use_cache=False, jobs=2).runs
assert all(run.verified for run in runs.values())
print(sorted(name for name in sys.modules
             if name.startswith(("repro.serve", "http."))))
"""
    root = Path(repro.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=str(root), timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)])))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
