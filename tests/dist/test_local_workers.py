"""Local workers: ``DistSweep(workers=N)`` forks them from the
coordinator's process, and ``repro dist worker`` stays the worker a
remote fleet runs.

A forked child must leave through ``os._exit`` on every path (else a
failure would carry on running its parent's code — here, pytest), must
not inherit the coordinator's signal handlers, output or listening
socket (the daemon starts after the last fork), must hold its own end
of its socketpair and no other socket, and must see the journal fully
written.  Every local worker is built by
``build_worker`` with the request's ``job_timeout``."""

import json
import os
import signal
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.common.config import small_config
from repro.core.requests import SweepRequest
from repro.dist import (
    Coordinator,
    DistSweep,
    Worker,
    journal_digest,
    run_dist_sweep,
)
from repro.explore.space import Axis
from repro.explore.sweep import execute_sweep_request
from repro.serve.daemon import Daemon

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
            "listening": sweep.server is not None,
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
        assert not record["listening"]               # the daemon comes later
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


def test_dist_worker_cli_against_a_coordinator(tmp_path, serial_digest):
    coordinator = Coordinator(_request(tmp_path, "cli"))
    server = Daemon(None, port=0, coordinator=coordinator)
    server.start()
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "dist", "worker",
             "--coordinator", server.url, "--worker-id", "cli-0",
             "--trace-dir", str(tmp_path / "cli" / "worker-traces"),
             "--quiet"],
            env=env, capture_output=True, text=True, timeout=120)
    finally:
        server.close()
    assert done.returncode == 0, done.stderr
    assert coordinator.done
    results = coordinator.finish()
    assert results.workers["cli-0"].cells == CELLS
    assert journal_digest(results.journal_path) == serial_digest
