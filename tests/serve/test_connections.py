"""Connection lifecycle between :class:`DaemonClient` and an in-process
:class:`Daemon`, over real sockets: one kept-alive connection per
client thread (counted where the daemon accepts), a new one after a
``Connection: close`` reply, a failed call, the daemon closing the idle
one, and in a forked child; ``TCP_NODELAY`` on the daemon's side; and no handler
thread left after ``Daemon.close()``."""

import select
import socket
import sys
import threading
import time

import pytest

from repro.harness.parallel import fork
from repro.serve import DaemonClient, DaemonError, Scheduler
from repro.serve.daemon import Daemon, _Server


def _daemon(tmp_path, port=0):
    daemon = Daemon(Scheduler(trace_dir=str(tmp_path / "traces")), port=port)
    daemon.start()
    return daemon


@pytest.fixture
def accepted(monkeypatch):
    """Every socket a daemon accepts, in order."""
    sockets = []
    get_request = _Server.get_request

    def counting(server):
        request = get_request(server)
        sockets.append(request[0])
        return request

    monkeypatch.setattr(_Server, "get_request", counting)
    return sockets


@pytest.fixture
def daemon(tmp_path):
    daemon = _daemon(tmp_path)
    try:
        yield daemon
    finally:
        daemon.close()
        daemon.scheduler.stop()


@pytest.fixture
def client(daemon):
    client = DaemonClient(daemon.host, daemon.port)
    try:
        yield client
    finally:
        client.close()


def _handler_threads(before):
    return [thread for thread in threading.enumerate()
            if thread not in before
            and "process_request_thread" in thread.name]


def test_one_thread_keeps_one_connection(client, accepted):
    for _ in range(20):
        assert client.healthz()["ok"]
    assert len(accepted) == 1
    answers = []

    def call():
        answers.append(client.healthz())
        client.close()

    other = threading.Thread(target=call)
    other.start()
    other.join(timeout=10)
    assert not other.is_alive() and answers[0]["ok"]
    assert len(accepted) == 2          # each thread has its own
    assert client.healthz()["ok"]
    assert len(accepted) == 2


def test_threads_sharing_a_client_never_share_a_connection(client,
                                                           accepted):
    """More threads than cores, switching often, on one client: every
    call answers, and each thread opened exactly one connection."""
    answers = []

    def calls():
        answers.extend(client.healthz()["ok"] for _ in range(25))
        client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=calls) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]
    assert answers == [True] * 200
    assert len(accepted) == 8


def test_an_error_reply_closes_and_the_next_call_reconnects(client,
                                                            accepted):
    assert client.healthz()["ok"]
    with pytest.raises(DaemonError) as excinfo:
        client.job("nope")
    assert excinfo.value.status == 404
    assert len(accepted) == 1
    assert client.healthz()["ok"]
    assert len(accepted) == 2


def test_a_failed_call_drops_its_connection(daemon, accepted, monkeypatch):
    """A call that times out raises, and is not retried; its late reply
    is never read as the next call's."""
    route = Daemon._route

    def slow(self, method, path, *args):
        if path == "/v1/jobs/slow":
            time.sleep(0.5)
        return route(self, method, path, *args)

    monkeypatch.setattr(Daemon, "_route", slow)
    client = DaemonClient(daemon.host, daemon.port, timeout=0.1)
    with pytest.raises(OSError):
        client.job("slow")
    assert len(accepted) == 1
    assert client.healthz()["ok"]
    assert len(accepted) == 2
    client.close()


def test_the_daemon_side_sets_tcp_nodelay(client, accepted):
    """A reply is two writes; with Nagle's algorithm the body would wait
    for the client's delayed ACK on every reused connection."""
    assert client.healthz()["ok"]
    [sock] = accepted                  # open: the client keeps it
    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_close_ends_idle_connections_and_their_handler_threads(tmp_path):
    daemon = _daemon(tmp_path)
    before = set(threading.enumerate())
    client = DaemonClient(daemon.host, daemon.port)
    try:
        assert client.healthz()["ok"]
        handlers = _handler_threads(before)
        assert len(handlers) == 1      # it waits on the idle connection
        # Run on a thread, so that a close() which waits on that handler
        # fails here instead of hanging the suite.
        closer = threading.Thread(target=daemon.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "Daemon.close() hangs on an idle client"
        assert not [thread for thread in handlers if thread.is_alive()]
    finally:
        client.close()
        daemon.scheduler.stop()


def test_a_connection_the_daemon_closed_is_not_reused(tmp_path):
    """The idle socket reads EOF, so the next call connects again —
    here to a daemon restarted on the same port — without a retry."""
    first = _daemon(tmp_path / "first")
    client = DaemonClient(first.host, first.port)
    assert client.healthz()["ok"]
    first.close()
    first.scheduler.stop()
    # The daemon's FIN has reached the client's idle socket.
    assert select.select([client._local.conn.sock], [], [], 10)[0]
    second = _daemon(tmp_path / "second", port=first.port)
    try:
        assert client.healthz()["ok"]
    finally:
        client.close()
        second.close()
        second.scheduler.stop()


def test_a_forked_child_opens_its_own_connection(client, accepted):
    assert client.healthz()["ok"]
    child = fork(client.healthz)       # exits 1 if the call raises
    assert child.poll(block=True) == 0
    assert len(accepted) == 2
    # The parent's connection was neither used nor closed by the child.
    assert client.healthz()["ok"]
    assert len(accepted) == 2


def test_client_close_ends_the_callers_connection(client, accepted):
    before = set(threading.enumerate())
    assert client.healthz()["ok"]
    [handler] = _handler_threads(before)
    client.close()
    handler.join(timeout=10)
    assert not handler.is_alive()
    assert client.healthz()["ok"]
    assert len(accepted) == 2
