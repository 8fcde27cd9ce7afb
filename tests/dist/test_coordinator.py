"""Coordinator protocol semantics: leases, the end of a lease (its
holder dropped, or a report refused) requeueing with journaled cells
subtracted, work-stealing, first-wins reports, and the poison-shard
guard.  Reports are synthesized — no simulation runs here."""

import threading

import pytest

from repro.common.config import small_config
from repro.common.errors import ReproError
from repro.common.stats import StatSet
from repro.core.requests import SweepRequest
from repro.dist import Coordinator
from repro.dist.coordinator import MAX_SHARD_ATTEMPTS
from repro.explore.space import Axis
from repro.harness.runner import WorkloadRun


def _coordinator(tmp_path, *, banks=(2, 4), axes=None,
                 workloads=("spmv",), isas=("gcn3",), execution="execute",
                 **kw):
    if axes is None:
        axes = (Axis("cu.vrf_banks", banks),)
    request = SweepRequest(
        axes=axes, workloads=workloads, isas=isas, scale=0.1, seed=7,
        config=small_config(2), use_disk_cache=False,
        sweeps_dir=str(tmp_path / "sweeps"), execution=execution,
        trace_dir=str(tmp_path / "traces"), verify_replay=False)
    return Coordinator(request, **kw)


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


class TestLeaseReportCycle:
    def test_full_cycle(self, tmp_path):
        co = _coordinator(tmp_path)
        grant = co.lease("w1")
        assert grant.state == "granted"
        assert grant.ttl == 0.0            # no heartbeat: the field stays unset
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

    def test_done_grant_after_completion(self, tmp_path):
        co = _coordinator(tmp_path)
        grant = co.lease("w1")
        for key in _keys(grant):
            co.report("w1", grant.lease_id, key, _run(key))
        assert co.lease("w2").state == "done"
        co.finish()

    def test_a_shard_runs_on_the_workers_own_thread(self, tmp_path):
        """A worker sends nothing between reports, so running a shard
        starts no thread beside the one that runs its cells."""
        from repro.dist import Worker

        co = _coordinator(tmp_path)
        grant = co.lease("w1")
        before = set(threading.enumerate())
        started = []

        class Backend:
            def run(self, request):
                started.append(set(threading.enumerate()) - before)
                return _run(f"p:{request.workload}/{request.isa}")

        Worker("w1", co, Backend(), co.cells)._run_shard(grant)
        assert started == [set(), set()]
        assert co.done
        co.finish()

    def test_second_worker_waits_without_steal(self, tmp_path):
        # The only shard's capture is not stored yet, so stealing half of
        # it would capture again: the second worker waits instead.
        co = _coordinator(tmp_path, execution="auto")
        co.lease("w1")
        grant = co.lease("w2")
        assert grant.state == "wait"
        assert 0 < grant.retry_after <= 2.5
        co.ledger.close()


class TestExpiry:
    def test_expired_lease_requeues_minus_reported(self, tmp_path):
        co = _coordinator(tmp_path)
        grant = co.lease("w1")
        keys = _keys(grant)
        co.report("w1", grant.lease_id, keys[0], _run(keys[0]))
        co.drop("w1")                      # its pipe closed
        regrant = co.lease("w2")
        assert regrant.state == "granted"
        # the journaled cell was subtracted: zero resimulation.
        assert _keys(regrant) == [keys[1]]
        status = co.status()
        assert status["expiries"] == 1 and status["retries"] == 1
        assert status["active_leases"] == 1   # the regrant alone
        co.report("w2", regrant.lease_id, keys[1], _run(keys[1]))
        results = co.finish()
        assert results.workers["w1"].expiries == 1
        assert len(results.points) == 2

    def test_late_report_from_dead_lease_is_accepted(self, tmp_path):
        co = _coordinator(tmp_path)
        grant = co.lease("w1")
        keys = _keys(grant)
        co.drop("w1")
        # the work is deterministic and done; discarding it would only
        # buy a resimulation.
        late = co.report("w1", grant.lease_id, keys[0],
                         _run(keys[0]))
        assert late["accepted"] and not late["duplicate"]
        regrant = co.lease("w2")
        assert _keys(regrant) == [keys[1]]
        co.report("w2", regrant.lease_id, keys[1], _run(keys[1]))
        co.finish()

    def test_poison_shard_fails_after_max_attempts(self, tmp_path):
        co = _coordinator(tmp_path)
        for attempt in range(MAX_SHARD_ATTEMPTS):
            # each drop ends the lease: a requeue, the last one poisons.
            assert co.lease(f"w{attempt}").state == "granted"
            co.drop(f"w{attempt}")
        assert co.lease("w-last").state == "done"
        results = co.finish()
        assert results.expiries == MAX_SHARD_ATTEMPTS
        assert results.retries == MAX_SHARD_ATTEMPTS - 1
        assert len(results.points) == 2
        for pr in results.points:
            for run in pr.runs.values():
                assert run.error is not None
                assert "lease expiries" in run.error


class TestSteal:
    def test_steal_splits_largest_lease(self, tmp_path):
        co = _coordinator(tmp_path, banks=(2, 4, 8, 16))
        victim = co.lease("w1")
        assert len(_keys(victim)) == 4
        stolen = co.lease("w2")
        assert stolen.state == "granted" and stolen.stolen
        stolen_keys = _keys(stolen)
        assert len(stolen_keys) == 2       # tail half
        assert set(stolen_keys).isdisjoint(_keys(victim)[:2])
        # the victim learns which cells left from its next report.
        head = _keys(victim)[:2]
        reply = co.report("w1", victim.lease_id, head[0], _run(head[0]))
        assert sorted(reply["stolen"]) == sorted(stolen_keys)
        status = co.status()
        assert status["steals"] == 1
        assert status["outstanding_cells"] == 3
        co.report("w1", victim.lease_id, head[1], _run(head[1]))
        for key in stolen_keys:
            co.report("w2", stolen.lease_id, key, _run(key))
        results = co.finish()
        assert results.steals == 1
        assert results.workers["w2"].steals == 1
        assert results.workers["w1"].cells == 2
        assert results.workers["w2"].cells == 2

    def test_stolen_cell_reported_by_victim_is_duplicate_safe(
            self, tmp_path):
        """A victim that has not reported since the theft keeps
        simulating stolen cells; whoever reports first wins, the loser is counted."""
        co = _coordinator(tmp_path, banks=(2, 4, 8, 16))
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

    def test_a_report_names_the_stolen_cells_and_frees_the_lease(
            self, tmp_path):
        co = _coordinator(tmp_path, banks=(2, 4, 8, 16))
        victim = co.lease("w1")
        stolen = co.lease("w2")
        head = _keys(victim)[:2]
        first = co.report("w1", victim.lease_id, head[0], _run(head[0]))
        assert sorted(first["stolen"]) == sorted(_keys(stolen))
        last = co.report("w1", victim.lease_id, head[1], _run(head[1]))
        assert last["stolen"] == []          # told once
        assert co.status()["active_leases"] == 1   # the victim's ended
        for key in _keys(stolen):
            reply = co.report("w2", stolen.lease_id, key, _run(key))
            assert reply["accepted"] and reply["stolen"] == []
        status = co.status()
        assert status["active_leases"] == 0 and status["done"]
        results = co.finish()
        assert results.duplicate_reports == results.expiries == 0

    def test_a_worker_skips_the_cells_its_report_says_were_stolen(
            self, tmp_path):
        """A thief arrives while the victim simulates its first cell; the
        victim runs only the head it still holds, so nothing is
        simulated twice."""
        from repro.dist import Worker

        co = _coordinator(tmp_path, banks=(2, 4, 8, 16))
        grant = co.lease("w1")
        ran, thief = [], []

        class Backend:
            def run(self, request):
                ran.append(request)
                if not thief:
                    thief.append(co.lease("w2"))
                return _run(f"p:{request.workload}/{request.isa}")

        Worker("w1", co, Backend(), co.cells)._run_shard(grant)
        assert len(ran) == 2
        for key in _keys(thief[0]):
            co.report("w2", thief[0].lease_id, key, _run(key))
        results = co.finish()
        assert results.duplicate_reports == results.expiries == 0
        assert results.workers["w1"].cells == 2


class TestReportValidation:
    def test_unknown_cell_raises(self, tmp_path):
        co = _coordinator(tmp_path)
        grant = co.lease("w1")
        with pytest.raises(ReproError, match="unknown cell"):
            co.report("w1", grant.lease_id, "nope:spmv/gcn3",
                      _run("nope:spmv/gcn3"))
        co.ledger.close()

    def test_malformed_payload_raises(self, tmp_path):
        # A report carries the run itself; anything else is refused and
        # the cell stays outstanding.
        co = _coordinator(tmp_path)
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
    def test_mislabelled_report_is_rejected(self, tmp_path, label):
        """A run of another (workload, ISA) filed under this cell's key
        must not be journaled as this cell's statistics."""
        co = _coordinator(tmp_path)
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

    @pytest.mark.parametrize("refusal", ["unknown", "malformed",
                                         "mislabelled"])
    def test_a_refused_report_ends_its_lease(self, tmp_path, refusal):
        """The worker abandons its shard at a refused report, so the
        lease ends there and the next worker gets the cells at once (the
        shard's capture is not stored, so there is nothing to steal)."""
        co = _coordinator(tmp_path, execution="auto")
        grant = co.lease("w1")
        keys = _keys(grant)
        point = keys[0].split(":", 1)[0]
        cell, run = {"unknown": ("nope:spmv/gcn3", _run(keys[0])),
                     "malformed": (keys[0], {}),
                     "mislabelled": (keys[0],
                                     _run(f"{point}:bitonic/gcn3"))}[refusal]
        with pytest.raises(ReproError):
            co.report("w1", grant.lease_id, cell, run)
        regrant = co.lease("w2")
        assert regrant.state == "granted" and not regrant.stolen
        assert _keys(regrant) == keys
        status = co.status()
        assert status["expiries"] == status["retries"] == 1
        co.ledger.close()


class TestEdges:
    def test_invalid_points_complete_without_workers(self, tmp_path):
        co = _coordinator(tmp_path,
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

    def test_abort_fails_outstanding_cells(self, tmp_path):
        co = _coordinator(tmp_path)
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
            self, tmp_path):
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
        co = _coordinator(tmp_path, workloads=workloads,
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
