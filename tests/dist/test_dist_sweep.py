"""End-to-end distributed sweeps: the embedded inline worker path is
bit-identical to the serial executor, a stolen half of a shard keeps
the capture-once economics, resume replays the journal without work,
and the results JSON carries the distribution ledger."""

import json
import time
from types import SimpleNamespace

from repro.common.config import small_config
from repro.core.requests import RunRequest, SweepRequest
from repro.dist import (DaemonBackend, EmbeddedBackend, Worker,
                        journal_digest, run_dist_sweep)
from repro.explore.space import Axis
from repro.explore.sweep import execute_sweep_request
from repro.harness.cache import TraceStore
from repro.harness.parallel import trace_key
from repro.harness.runner import WorkloadRun
from tests.explore.test_sweep import CountingExecute

AXES = (Axis("cu.vrf_banks", (2, 4)),)
SCALE = 0.1


def _request(tmp_path, name, **kw):
    spec = dict(axes=AXES, workloads=("spmv",), isas=("gcn3",),
                scale=SCALE, seed=7, config=small_config(2),
                use_disk_cache=False,
                sweeps_dir=str(tmp_path / name / "sweeps"),
                trace_dir=str(tmp_path / name / "traces"),
                verify_replay=False)
    spec.update(kw)
    return SweepRequest(**spec)


def _serial(tmp_path, name, **kw):
    return execute_sweep_request(_request(tmp_path, name, **kw))


class TestInlineDistSweep:
    def test_bit_identical_to_run_sweep(self, tmp_path):
        dist = run_dist_sweep(_request(tmp_path, "dist"))
        serial = _serial(tmp_path, "serial")
        assert (journal_digest(dist.journal_path)
                == journal_digest(serial.journal_path))
        assert len(dist.points) == 2
        # one shard, capture-once-replay-everywhere inside it.
        assert dist.shards == 1
        assert dist.captures == 1 and dist.replays == 1
        assert dist.workers["inline"].cells == 2
        assert dist.retries == dist.expiries == dist.steals == 0

    def test_chunked_shards_still_capture_once(self, tmp_path,
                                               monkeypatch):
        # Two workers, one shard: the second may only steal once the
        # first has stored its capture, so the thief replays it.  The
        # forked workers inherit the patch: a cell takes 0.3 s longer,
        # so the thief's 0.1 s back-off ends before the victim is done.
        run_cell = Worker._run_cell

        def slow_run_cell(self, request):
            time.sleep(0.3)
            return run_cell(self, request)

        monkeypatch.setattr(Worker, "_run_cell", slow_run_cell)
        spread = dict(axes=(Axis("cu.vrf_banks", (2, 4, 8, 16)),))
        dist = run_dist_sweep(_request(tmp_path, "chunked", **spread),
                              workers=2, timeout=120)
        assert dist.shards == 1 and dist.steals >= 1
        assert all(stats.cells for stats in dist.workers.values())
        assert dist.captures == 1 and dist.replays == 3
        assert (journal_digest(dist.journal_path) == journal_digest(
            _serial(tmp_path, "serial", **spread).journal_path))

    def test_derived_cells_are_counted_like_the_serial_sweep(self, tmp_path):
        # 1k captures, 64k simulates and files a witness, 128k and 256k
        # derive; the label rides the reported payload.
        plateau = dict(axes=(Axis("l1d.size_bytes",
                                  (1024, 65536, 131072, 262144)),))
        dist = run_dist_sweep(_request(tmp_path, "dist", **plateau))
        serial = _serial(tmp_path, "serial", **plateau)
        assert (dist.replays, dist.derived) == (3, 2)
        assert (serial.replays, serial.derived) == (3, 2)
        assert (journal_digest(dist.journal_path)
                == journal_digest(serial.journal_path))

    def test_json_carries_dist_ledger(self, tmp_path):
        dist = run_dist_sweep(_request(tmp_path, "ledger"))
        payload = json.loads(dist.to_json())
        ledger = payload["dist"]
        assert ledger["shards"] == 1
        assert ledger["workers"]["inline"]["cells"] == 2
        assert ledger["steals"] == 0
        assert ledger["duplicate_reports"] == 0
        # the ordinary sweep payload is still all there.
        assert payload["sweep_id"] == dist.sweep_id
        assert len(payload["points"]) == 2

    def test_resume_replays_journal_without_new_work(self, tmp_path):
        first = run_dist_sweep(_request(tmp_path, "again"))
        resumed = run_dist_sweep(_request(tmp_path, "again", resume=True))
        assert len(resumed.points) == 2
        assert resumed.shards == 0         # nothing left to distribute
        assert resumed.workers == {}
        assert (journal_digest(resumed.journal_path)
                == journal_digest(first.journal_path))


class TestEmbeddedBackend:
    def test_timed_cell_captures_into_the_backends_trace_dir(self, tmp_path):
        # With a job timeout the cell runs in a forked child, which must
        # capture into the backend's store, not the request's default
        # one, or the other workers of the sweep would capture again.
        backend = EmbeddedBackend(trace_dir=str(tmp_path / "traces"),
                                  job_timeout=300.0)
        request = RunRequest(workload="spmv", isa="gcn3", scale=SCALE,
                             seed=7, config=small_config(2),
                             execution="auto")
        run = backend.run(request)
        assert run.error is None and run.execution == "capture"
        assert TraceStore(str(tmp_path / "traces")).has(trace_key(request))


class TestDaemonBackend:
    """The daemon pins its own store: the backend pushes the
    coordinator's trace once per fingerprint, clears the request's
    ``trace_dir``, and pulls back what the daemon captured."""

    class Client:
        def __init__(self, execution):
            self.execution = execution
            self.calls = []

        def put_trace(self, fp, blob):
            self.calls.append(("put", fp, blob))
            return True

        def get_trace(self, fp):
            self.calls.append(("get", fp))
            return b"captured"

        def submit(self, request):
            self.calls.append(("submit", request.trace_dir))
            return SimpleNamespace(job_id="j")

        def wait(self, job_id, timeout):
            run = WorkloadRun.failure("spmv", "gcn3", "stub",
                                      execution=self.execution)
            return SimpleNamespace(result=run.to_payload(), error=None,
                                   wall_seconds=0.0)

    class Store:
        def __init__(self, blobs):
            self.blobs = blobs

        def read_blob(self, fp):
            return self.blobs.get(fp)

        def write_blob(self, fp, blob):
            self.blobs[fp] = blob
            return True

    def _request(self, tmp_path):
        return RunRequest(workload="spmv", isa="gcn3", scale=SCALE, seed=7,
                          config=small_config(2), execution="auto",
                          trace_dir=str(tmp_path / "coordinator"))

    def test_pushes_the_coordinators_trace_once(self, tmp_path):
        request = self._request(tmp_path)
        fp = trace_key(request)
        client = self.Client("replay")
        backend = DaemonBackend(client, self.Store({fp: b"stored"}))
        for _ in range(2):
            assert backend.run(request).execution == "replay"
        assert client.calls == [("put", fp, b"stored"), ("submit", None),
                                ("submit", None)]

    def test_pulls_back_what_the_daemon_captured(self, tmp_path):
        request = self._request(tmp_path)
        fp = trace_key(request)
        store = self.Store({})
        client = self.Client("capture")
        backend = DaemonBackend(client, store)
        assert backend.run(request).execution == "capture"
        assert store.blobs == {fp: b"captured"}
        client.execution = "replay"
        backend.run(request)
        assert client.calls == [("submit", None), ("get", fp),
                                ("submit", None)]


class TestCrossPathResume:
    """One ledger writes the journal under both executors, so a sweep
    interrupted under one resumes under the other: nothing journaled is
    re-simulated and the merged journal equals an uninterrupted run's."""

    def _reference(self, tmp_path):
        return journal_digest(
            _serial(tmp_path, "reference", execution="execute").journal_path)

    def test_dist_start_serial_resume(self, tmp_path, monkeypatch):
        from repro.dist import Coordinator, EmbeddedBackend, Worker

        class StopAfterFirstPoint(Exception):
            pass

        def stop(event):
            if co.ledger.points_done:
                raise StopAfterFirstPoint

        co = Coordinator(_request(tmp_path, "cross", execution="execute"),
                         progress=stop)
        try:
            Worker("w", co, EmbeddedBackend(), co.cells).run()
        except StopAfterFirstPoint:
            pass
        assert co.ledger.points_done == 1 and not co.done
        co.ledger.close()                  # the coordinator "dies" here

        counting = CountingExecute(monkeypatch)
        events = []
        resumed = execute_sweep_request(
            _request(tmp_path, "cross", execution="execute", resume=True),
            progress=events.append)
        assert [e.status for e in events] == ["journal", "ok"]
        # zero re-simulation: the one cell executed is not the journaled one.
        assert len(counting.calls) == 1
        assert (co.ledger.point(events[1].point).config.fingerprint()
                == counting.calls[0].config.fingerprint())
        assert events[0].point != events[1].point
        assert resumed.replayed() == 1 and not resumed.failed_points
        assert journal_digest(resumed.journal_path) == self._reference(
            tmp_path)

    def test_serial_start_dist_resume(self, tmp_path):
        class StopAfterFirstPoint(Exception):
            pass

        def stop(event):
            raise StopAfterFirstPoint      # first cell == first point here

        try:
            execute_sweep_request(
                _request(tmp_path, "cross", execution="execute"),
                progress=stop)
        except StopAfterFirstPoint:
            pass

        events = []
        resumed = run_dist_sweep(
            _request(tmp_path, "cross", execution="execute", resume=True),
            progress=events.append)
        assert [e.status for e in events] == ["journal", "ok"]
        assert events[0].point != events[1].point
        assert resumed.replayed() == 1 and not resumed.failed_points
        assert resumed.workers["inline"].cells == 1   # zero re-simulation
        assert journal_digest(resumed.journal_path) == self._reference(
            tmp_path)
