"""Chaos test: SIGKILL a subprocess worker mid-sweep and require the
fleet to finish with zero failed points, zero resimulation of journaled
cells, and a journal bit-identical to the serial path."""

import os
import signal
import time
from dataclasses import replace

from repro.common.config import small_config
from repro.core.requests import SweepRequest
from repro.dist import DistSweep, Worker, journal_digest
from repro.explore.space import Axis
from repro.explore.sweep import execute_sweep_request

AXES = (Axis("cu.vrf_banks", (2, 4, 8)), Axis("l1d.hit_latency", (4, 8)))
WORKLOADS = ("spmv", "bitonic")
SCALE = 0.1


def _kill_a_lease_holder(sweep, deadline):
    """Wait until some local worker holds a lease and at least one cell
    has landed, then SIGKILL that worker.  Returns the victim id."""
    while time.monotonic() < deadline:
        status = sweep.coordinator.status()
        if status["cells_accepted"] >= 1 and status["active_leases"] >= 1:
            with sweep.coordinator._lock:
                holders = [lease.worker_id
                           for lease in sweep.coordinator._leases.values()
                           if lease.worker_id.startswith("local-")
                           and lease.outstanding() >= 1]
            for worker_id in holders:
                victim = sweep.processes[int(worker_id.split("-")[1])]
                if victim.poll() is None:
                    os.kill(victim.pid, signal.SIGKILL)
                    return worker_id
        time.sleep(0.05)
    return None


def test_sigkill_worker_mid_sweep(tmp_path, monkeypatch):
    # Local workers are forked, so they lease at once and the whole sweep
    # lands in about 0.15 s, which a 50 ms poll can miss.  The children
    # inherit this patch: a cell takes 0.1 s longer, so a live lease
    # stays in view for about a second.
    run_cell = Worker._run_cell

    def slow_run_cell(self, request):
        time.sleep(0.1)
        return run_cell(self, request)

    monkeypatch.setattr(Worker, "_run_cell", slow_run_cell)
    request = SweepRequest(
        axes=AXES, workloads=WORKLOADS, isas=("gcn3",), scale=SCALE,
        seed=7, config=small_config(2), use_disk_cache=False,
        sweeps_dir=str(tmp_path / "dist" / "sweeps"),
        trace_dir=str(tmp_path / "dist" / "traces"),
        verify_replay=False)
    sweep = DistSweep(request, workers=3)
    sweep.start()
    try:
        victim = _kill_a_lease_holder(sweep, time.monotonic() + 120)
        results = sweep.wait(timeout=300)
    finally:
        sweep.stop()

    assert victim is not None, "no worker ever held a lease"

    # The dead worker's pipe closed, its lease ended and its shard was
    # re-queued.
    assert results.expiries >= 1
    assert results.retries >= 1
    assert results.workers[victim].expiries >= 1

    # The sweep still completed fully, with no failed cells.
    assert len(results.points) == 6
    for pr in results.points:
        assert pr.point.error is None
        assert len(pr.runs) == len(WORKLOADS)
        for run in pr.runs.values():
            assert run.error is None, run.error

    # Zero resimulation of journaled work: every cell was accepted
    # exactly once (duplicates from steal races are rejected before
    # they count).
    accepted = sweep.coordinator._accepted
    assert len(accepted) == 12
    assert max(accepted.values()) == 1
    assert sum(stats.cells for stats in results.workers.values()) == 12

    # And the survivors' merge is bit-identical to the serial engine.
    serial = execute_sweep_request(replace(
        request, sweeps_dir=str(tmp_path / "serial" / "sweeps"),
        trace_dir=str(tmp_path / "serial" / "traces")))
    assert (journal_digest(results.journal_path)
            == journal_digest(serial.journal_path))
