"""Coordinator protocol semantics under a fake clock: leases, expiry
requeue with journaled cells subtracted, work-stealing, first-wins
reports, and the poison-shard guard.  Reports are synthesized — no
simulation runs here."""

import pytest

from repro.common.config import small_config
from repro.common.errors import ReproError
from repro.common.stats import StatSet
from repro.core.requests import SweepRequest
from repro.dist import Coordinator
from repro.explore.space import Axis
from repro.harness.runner import WorkloadRun


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _coordinator(tmp_path, clock, *, banks=(2, 4), axes=None,
                 workloads=("spmv",), isas=("gcn3",), execution="execute",
                 **kw):
    if axes is None:
        axes = (Axis("cu.vrf_banks", banks),)
    request = SweepRequest(
        axes=axes, workloads=workloads, isas=isas, scale=0.1, seed=7,
        config=small_config(2), use_disk_cache=False,
        sweeps_dir=str(tmp_path / "sweeps"), execution=execution,
        trace_dir=str(tmp_path / "traces"), verify_replay=False)
    return Coordinator(request, lease_ttl=10.0, clock=clock, **kw)


def _run(cell_key, wall=0.01):
    point, rest = cell_key.split(":", 1)
    workload, isa = rest.split("/")
    return WorkloadRun(workload=workload, isa=isa, verified=True,
                       total=StatSet(), per_dispatch=[],
                       dispatch_kernel_names=[], data_footprint_bytes=0,
                       instr_footprint_bytes=0, static_instructions=0,
                       kernel_code_bytes={}, wall_seconds=wall)


def _keys(grant):
    return [cell.key for cell in grant.shard.cells]


@pytest.fixture()
def clock():
    return FakeClock()


class TestLeaseReportCycle:
    def test_full_cycle(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock)
        grant = co.lease("w1")
        assert grant.state == "granted"
        assert grant.ttl == 10.0
        keys = _keys(grant)
        assert len(keys) == 2
        assert not co.done
        first = co.report("w1", grant.lease_id, keys[0],
                          _run(keys[0]))
        assert first["accepted"] and not first["duplicate"]
        assert not first["done"]
        last = co.report("w1", grant.lease_id, keys[1],
                         _run(keys[1]))
        assert last["done"] and co.done
        assert co.status()["active_leases"] == 0   # released on last cell
        results = co.finish()
        assert len(results.points) == 2
        assert results.workers["w1"].cells == 2
        assert results.workers["w1"].leases == 1
        assert results.retries == results.expiries == results.steals == 0
        assert (tmp_path / "sweeps").exists()

    def test_done_grant_after_completion(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock)
        grant = co.lease("w1")
        for key in _keys(grant):
            co.report("w1", grant.lease_id, key, _run(key))
        assert co.lease("w2").state == "done"
        co.finish()

    def test_second_worker_waits_without_steal(self, tmp_path, clock):
        # The only shard's capture is not stored yet, so stealing half of
        # it would capture again: the second worker waits instead.
        co = _coordinator(tmp_path, clock, execution="auto")
        co.lease("w1")
        grant = co.lease("w2")
        assert grant.state == "wait"
        assert 0 < grant.retry_after <= 2.5
        co.ledger.close()


class TestExpiry:
    def test_expired_lease_requeues_minus_reported(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock)
        grant = co.lease("w1")
        keys = _keys(grant)
        co.report("w1", grant.lease_id, keys[0], _run(keys[0]))
        clock.advance(11.0)
        regrant = co.lease("w2")
        assert regrant.state == "granted"
        # the journaled cell was subtracted: zero resimulation.
        assert _keys(regrant) == [keys[1]]
        status = co.status()
        assert status["expiries"] == 1 and status["retries"] == 1
        # the dead lease cannot renew; the victim learns to abandon it.
        assert co.renew("w1", grant.lease_id)["ok"] is False
        co.report("w2", regrant.lease_id, keys[1], _run(keys[1]))
        results = co.finish()
        assert results.workers["w1"].expiries == 1
        assert len(results.points) == 2

    def test_late_report_from_dead_lease_is_accepted(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock)
        grant = co.lease("w1")
        keys = _keys(grant)
        clock.advance(11.0)
        # the work is deterministic and done; discarding it would only
        # buy a resimulation.
        late = co.report("w1", grant.lease_id, keys[0],
                         _run(keys[0]))
        assert late["accepted"] and not late["duplicate"]
        regrant = co.lease("w2")
        assert _keys(regrant) == [keys[1]]
        co.report("w2", regrant.lease_id, keys[1], _run(keys[1]))
        co.finish()

    def test_poison_shard_fails_after_max_attempts(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock, max_attempts=2)
        co.lease("w1")
        clock.advance(11.0)
        second = co.lease("w2")            # requeue (attempt 1) + regrant
        assert second.state == "granted"
        clock.advance(11.0)
        final = co.lease("w3")             # attempt 2 -> poisoned
        assert final.state == "done"
        results = co.finish()
        assert results.expiries == 2 and results.retries == 1
        assert len(results.points) == 2
        for pr in results.points:
            for run in pr.runs.values():
                assert run.error is not None
                assert "lease expiries" in run.error


class TestSteal:
    def test_steal_splits_largest_lease(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock, banks=(2, 4, 8, 16))
        victim = co.lease("w1")
        assert len(_keys(victim)) == 4
        stolen = co.lease("w2")
        assert stolen.state == "granted" and stolen.stolen
        stolen_keys = _keys(stolen)
        assert len(stolen_keys) == 2       # tail half
        assert set(stolen_keys).isdisjoint(_keys(victim)[:2])
        # the victim learns which cells left on its next heartbeat.
        reply = co.renew("w1", victim.lease_id)
        assert reply["ok"] is True
        assert sorted(reply["stolen"]) == sorted(stolen_keys)
        status = co.status()
        assert status["steals"] == 1
        assert status["outstanding_cells"] == 4
        for key in _keys(victim)[:2]:
            co.report("w1", victim.lease_id, key, _run(key))
        for key in stolen_keys:
            co.report("w2", stolen.lease_id, key, _run(key))
        results = co.finish()
        assert results.steals == 1
        assert results.workers["w2"].steals == 1
        assert results.workers["w1"].cells == 2
        assert results.workers["w2"].cells == 2

    def test_stolen_cell_reported_by_victim_is_duplicate_safe(
            self, tmp_path, clock):
        """A victim that raced past its renewal keeps simulating stolen
        cells; whoever reports first wins, the loser is counted."""
        co = _coordinator(tmp_path, clock, banks=(2, 4, 8, 16))
        victim = co.lease("w1")
        stolen = co.lease("w2")
        contested = _keys(stolen)[0]
        first = co.report("w1", victim.lease_id, contested,
                          _run(contested))
        assert first["accepted"]
        second = co.report("w2", stolen.lease_id, contested,
                           _run(contested))
        assert second["duplicate"] and not second["accepted"]
        assert co.status()["duplicate_reports"] == 1
        assert co._accepted[contested] == 1
        co.ledger.close()


class TestReportValidation:
    def test_unknown_cell_raises(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock)
        grant = co.lease("w1")
        with pytest.raises(ReproError, match="unknown cell"):
            co.report("w1", grant.lease_id, "nope:spmv/gcn3",
                      _run("nope:spmv/gcn3"))
        co.ledger.close()

    def test_malformed_payload_raises(self, tmp_path, clock):
        # A report carries the run itself; anything else is refused and
        # the cell stays outstanding.
        co = _coordinator(tmp_path, clock)
        grant = co.lease("w1")
        key = _keys(grant)[0]
        with pytest.raises(ReproError, match=f"malformed report for cell "
                                             f"'{key}': a dict"):
            co.report("w1", grant.lease_id, key, _run(key).to_payload())
        assert key not in co._accepted
        assert co.status()["outstanding_cells"] == 2
        co.ledger.close()

    def test_non_dict_field_is_malformed_not_a_crash(self):
        # A run from a daemon arrives as JSON; from_payload would call
        # .items() on the list.  The daemon's worker decodes it and hands
        # back a failed run naming the field instead of raising.
        from types import SimpleNamespace

        from repro.core.requests import RunRequest
        from repro.dist import DaemonBackend

        payload = _run("p0:spmv/gcn3").to_payload()
        payload["kernel_code_bytes"] = ["not", "a", "dict"]

        class Client:
            def submit(self, request):
                return SimpleNamespace(job_id="j1")

            def wait(self, job_id, timeout):
                return SimpleNamespace(result=payload, error=None,
                                       wall_seconds=0.5)

        run = DaemonBackend(Client()).run(RunRequest(
            workload="spmv", isa="gcn3", scale=0.1,
            config=small_config(2)))
        assert (run.workload, run.isa, run.verified) == ("spmv", "gcn3",
                                                         False)
        assert "malformed run payload" in run.error
        assert "'kernel_code_bytes'" in run.error

    @pytest.mark.parametrize("label", ["bitonic/gcn3", "spmv/hsail"])
    def test_mislabelled_report_is_rejected(self, tmp_path, clock, label):
        """A run of another (workload, ISA) filed under this cell's key
        must not be journaled as this cell's statistics."""
        co = _coordinator(tmp_path, clock)
        grant = co.lease("w1")
        keys = _keys(grant)
        point = keys[0].split(":", 1)[0]
        with pytest.raises(ReproError, match="mislabelled report"):
            co.report("w1", grant.lease_id, keys[0],
                      _run(f"{point}:{label}"))
        # the cell stays outstanding and is still reportable.
        assert keys[0] not in co._accepted
        assert co.status()["outstanding_cells"] == 2
        good = co.report("w1", grant.lease_id, keys[0],
                         _run(keys[0]))
        assert good["accepted"]
        co.ledger.close()


class TestEdges:
    def test_invalid_points_complete_without_workers(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock,
                          axes=(Axis("l1i.size_bytes", (8192, 100)),))
        # only the valid point's cell is distributable.
        grant = co.lease("w1")
        keys = _keys(grant)
        assert len(keys) == 1
        co.report("w1", grant.lease_id, keys[0], _run(keys[0]))
        results = co.finish()
        assert len(results.points) == 2
        assert sum(1 for pr in results.points
                   if pr.point.error is not None) == 1

    def test_abort_fails_outstanding_cells(self, tmp_path, clock):
        co = _coordinator(tmp_path, clock)
        grant = co.lease("w1")
        keys = _keys(grant)
        co.report("w1", grant.lease_id, keys[0], _run(keys[0]))
        co.abort("sweep timed out")
        assert co.done
        results = co.finish()
        failed = [run for pr in results.points
                  for run in pr.runs.values() if run.error]
        assert len(failed) == 1
        assert "timed out" in failed[0].error


class TestConcurrentHttp:
    # The id predates the pipe transport: the same race, once driven
    # through the daemon's per-connection threads, now through one
    # serve_pipe thread per forked worker's socketpair.
    def test_threaded_daemon_grants_and_accepts_each_cell_once(
            self, tmp_path, clock):
        """Eight workers leasing and reporting at once, each over its
        own pipe with its own serving thread: every cell is granted to
        exactly one of them and accepted exactly once."""
        import socket
        import sys
        import threading

        from repro.dist.coordinator import serve_pipe
        from repro.dist.worker import PipeTransport

        # Every workload x ISA is its own trace group: 20 one-cell
        # shards, so no lease is ever large enough to steal from.
        workloads = ("arraybw", "bitonic", "comd", "fft", "hpgmg",
                     "lulesh", "md", "snap", "spmv", "xsbench")
        co = _coordinator(tmp_path, clock, workloads=workloads,
                          isas=("gcn3", "hsail"),
                          axes=(Axis("l1d.hit_latency", (4,)),))
        assert co.shards == 20
        pipes = [socket.socketpair() for _ in range(8)]
        servers = [threading.Thread(target=serve_pipe, args=(parent, co))
                   for parent, _ in pipes]
        granted = {}

        def work(worker_id, pipe):
            transport = PipeTransport(pipe)
            while True:
                grant = transport.lease(worker_id)
                if grant.state != "granted":
                    return
                for key in _keys(grant):
                    granted.setdefault(key, []).append(worker_id)
                    transport.report(worker_id, grant.lease_id, key,
                                     _run(key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(f"w{i}", child))
                       for i, (_, child) in enumerate(pipes)]
            for thread in servers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            for _, child in pipes:
                child.close()
            for server in servers:
                server.join(timeout=10)
                assert not server.is_alive()
        assert len(granted) == 20
        assert all(len(workers) == 1 for workers in granted.values())
        status = co.status()
        assert status["cells_accepted"] == 20 and status["done"]
        assert status["duplicate_reports"] == 0 and status["steals"] == 0
        assert len(co.finish().points) == 1
