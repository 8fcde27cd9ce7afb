"""The frame protocol between a forked local worker and its coordinator:
:class:`~repro.dist.worker.PipeTransport` on the worker's end of a socketpair,
:func:`~repro.dist.coordinator.serve_pipe` on the parent's.

It fails closed.  EOF or a truncated frame ends the serving loop without
an answer and without applying anything half read; an unknown verb gets
an error reply and is never looked up on the coordinator; a coordinator
error reaches the worker as a ``ReproError``, and the worker abandons
its shard after that one failed call; and a closed pipe makes every
later call raise ``OSError``, so the worker leaves at its first failed
lease, without retrying or sleeping.  A report's reply is sent only
after the coordinator's progress callback has returned."""

import pickle
import socket
import struct
import threading
import time

import pytest

from repro.common.errors import ReproError
from repro.dist import Worker
from repro.dist.coordinator import PIPE_VERBS, serve_pipe
from repro.dist.worker import PipeTransport, recv_frame
from repro.obs import host
from tests.obs.test_host_spans import wait_for_span

from .test_coordinator import _coordinator, _keys, _run


class _Serving:
    """``serve_pipe`` on a thread, with whatever escaped from it."""

    def __init__(self, sock, coordinator):
        self.errors = []
        self.thread = threading.Thread(target=self._serve,
                                       args=(sock, coordinator))
        self.thread.start()

    def _serve(self, sock, coordinator):
        try:
            serve_pipe(sock, coordinator)
        except BaseException as exc:  # noqa: BLE001 - the test reads it
            self.errors.append(exc)

    def join(self):
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        assert self.errors == []


def _frame(obj):
    body = pickle.dumps(obj)
    return struct.pack("!I", len(body)) + body


def _serve_bytes(coordinator, data):
    """Feed ``data`` to ``serve_pipe`` then EOF; the frames it answered."""
    parent_end, child_end = socket.socketpair()
    child_end.sendall(data)
    child_end.shutdown(socket.SHUT_WR)
    serving = _Serving(parent_end, coordinator)
    serving.join()
    replies = []
    with child_end:
        while True:
            try:
                replies.append(recv_frame(child_end))
            except ConnectionError:
                return replies


@pytest.fixture()
def co(tmp_path):
    coordinator = _coordinator(tmp_path)
    yield coordinator
    coordinator.ledger.close()


def _report_frame(co):
    grant = co.lease("w1")
    key = _keys(grant)[0]
    return _frame(("report", ("w1", grant.lease_id, key, _run(key))))


@pytest.mark.parametrize("cut", ["in_header", "in_body", "long_length"])
def test_a_truncated_report_is_never_applied(co, cut):
    frame = _report_frame(co)
    data = {"in_header": frame[:2],
            "in_body": frame[:len(frame) // 2],
            "long_length": struct.pack("!I", len(frame) - 3) + frame[4:]}[cut]
    assert _serve_bytes(co, data) == []
    assert co.status()["cells_accepted"] == 0


def test_a_frame_that_is_not_a_verb_call_closes_the_pipe(co):
    lease = _frame(("lease", ("w1",)))
    body = b"\x80\x05not a pickle"
    data = (struct.pack("!I", len(body)) + body + lease)
    assert _serve_bytes(co, data) == []
    assert _serve_bytes(co, _frame(7) + lease) == []
    assert co.status()["active_leases"] == 0


def test_whole_frames_before_a_cut_are_answered(co):
    frame = _report_frame(co)
    replies = _serve_bytes(co, frame + frame[:-1])
    assert [ok for ok, _ in replies] == [True]
    assert co.status()["cells_accepted"] == 1


class _Recording:
    """A coordinator that notes every attribute looked up on it."""

    def __init__(self, coordinator):
        self.coordinator = coordinator
        self.names = []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(self.coordinator, name)


@pytest.mark.parametrize("verb", ["finish", "_accept", "abort", "__init__",
                                  "status", 3, ("lease",)])
def test_an_unknown_verb_gets_an_error_and_no_lookup(co, verb):
    recording = _Recording(co)
    replies = _serve_bytes(recording, _frame((verb, ("w1",)))
                           + _frame(("lease", ("w1",))))
    assert len(replies) == 2
    (ok, message), (leased, grant) = replies
    assert not ok and "unknown verb" in message
    assert leased and grant.state == "granted"   # the pipe stayed open
    assert set(recording.names) <= set(PIPE_VERBS)
    assert not co.done and co.status()["cells_accepted"] == 0


def test_a_coordinator_error_reaches_the_worker_as_a_repro_error(co):
    records = []
    unsubscribe = host.subscribe(records.append)
    parent_end, child_end = socket.socketpair()
    serving = _Serving(parent_end, co)
    transport = PipeTransport(child_end)
    try:
        grant = transport.lease("w1")
        with pytest.raises(ReproError, match="unknown cell"):
            transport.report("w1", grant.lease_id, "nope", _run(
                _keys(grant)[0]))
        with pytest.raises(ReproError, match="malformed report"):
            transport.report("w1", grant.lease_id, _keys(grant)[0], {})
        # A worker whose report is refused makes that one call and
        # abandons the shard: the second cell never runs.  The first
        # refusal ended the lease, so the shard is back on the queue.
        ran = []

        class Mislabelling:
            def run(self, request):
                ran.append(request)
                return _run("p:bitonic/gcn3")

        worker = Worker("w1", transport, Mislabelling(), co.cells,
                        sleep=lambda _s: None)
        worker._run_shard(grant)
        status = co.status()
        assert status["expiries"] == status["retries"] == 1   # requeued
        assert status["active_leases"] == 0
        regrant = transport.lease("w1")
        assert _keys(regrant) == _keys(grant) and not regrant.stolen
        key = _keys(regrant)[0]
        transport.report("w1", regrant.lease_id, key, _run(key))
        # One thread serves the frames in order, each span closing after
        # its reply: once the last has closed, every frame is recorded.
        wait_for_span(records, "dist.pipe", verb="report", ok=True)
    finally:
        unsubscribe()
    assert len(ran) == 1 and worker.cells_done == 0
    assert [r["attrs"] for r in records if r["name"] == "dist.pipe"] == [
        {"verb": "lease", "ok": True}, {"verb": "report", "ok": False},
        {"verb": "report", "ok": False}, {"verb": "report", "ok": False},
        {"verb": "lease", "ok": True}, {"verb": "report", "ok": True}]
    child_end.close()
    serving.join()
    assert co.status()["cells_accepted"] == 1


def test_eof_closes_the_pipe_and_the_worker_leaves(co):
    parent_end, child_end = socket.socketpair()
    parent_end.close()
    transport = PipeTransport(child_end)
    with pytest.raises(OSError):
        transport.lease("w1")
    assert child_end.fileno() == -1
    with pytest.raises(OSError):
        transport.lease("w1")
    slept = []
    worker = Worker("w1", transport, None, co.cells, sleep=slept.append)
    assert worker.run() == 0             # the unreachable path
    assert slept == []                   # left at once, no retry


def test_a_timeout_closes_the_pipe(co):
    parent_end, child_end = socket.socketpair()
    transport = PipeTransport(child_end, timeout=0.05)
    with parent_end:
        with pytest.raises(OSError):      # socket.timeout is an OSError
            transport.lease("w1")
        # The request was sent; an answer arriving late is never read.
        assert recv_frame(parent_end) == ("lease", ("w1",))
        with pytest.raises(OSError):
            transport.report("w1", "L00001", "p0:spmv/gcn3", None)
    assert child_end.fileno() == -1


def test_the_report_reply_waits_for_the_progress_callback(tmp_path):
    landed = threading.Event()

    def progress(_event):
        # The e2e benchmark takes its probe slice here while the
        # worker waits for this report's reply.
        time.sleep(0.2)
        landed.set()

    co = _coordinator(tmp_path, progress=progress)
    parent_end, child_end = socket.socketpair()
    serving = _Serving(parent_end, co)
    transport = PipeTransport(child_end)
    grant = transport.lease("w1")
    key = _keys(grant)[0]
    reply = transport.report("w1", grant.lease_id, key, _run(key))
    assert landed.is_set()
    assert reply["accepted"]
    child_end.close()
    serving.join()
    co.finish()
