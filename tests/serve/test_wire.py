"""The HTTP/1.1 framing of ``repro serve`` at its edges, over real
sockets to an in-process :class:`Daemon`: pipelined requests, bare-LF
heads, HTTP/1.0, refused ``Transfer-Encoding``, conflicting
``Content-Length``, too many headers, a 1 MiB binary body each way,
and a reply cut short.  Every malformed case fails closed (an ErrorInfo
reply, then EOF) and the daemon keeps serving; the framer's own limits
are checked without a socket.  The work counters at the end wrap both
ends' sockets: one ``sendall`` per request and per reply, and one
buffered reader per connection."""

import io
import json
import os
import socket
from collections import Counter

import pytest

from repro.obs import host
from repro.serve import DaemonClient, ErrorInfo, Scheduler
from repro.serve import wire
from repro.serve.daemon import Daemon, _Handler, _Server


@pytest.fixture
def daemon(tmp_path):
    daemon = Daemon(Scheduler(trace_dir=str(tmp_path / "traces")), port=0)
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.close()
        daemon.scheduler.stop()


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


def _replies(daemon, data, count, eof_within=10.0):
    """Send ``data`` on a fresh connection and read ``count`` replies
    (status, headers, body) through one reader; then whether the
    daemon closed the connection (EOF) within ``eof_within`` s."""
    with socket.create_connection((daemon.host, daemon.port),
                                  timeout=10) as sock:
        sock.sendall(data)
        rfile = sock.makefile("rb")
        replies = []
        for _ in range(count):
            start, headers = wire.read_head(rfile)
            body = wire.read_body(rfile, wire.content_length(headers))
            replies.append((int(start.split()[1]), headers, body))
        sock.settimeout(eof_within)
        try:
            closed = rfile.read(1) == b""
        except socket.timeout:
            closed = False
        return replies, closed


def _still_serving(daemon):
    client = DaemonClient(daemon.host, daemon.port)
    try:
        return client.healthz()["ok"] is True
    finally:
        client.close()


def _refused(daemon, data, status):
    """``data`` gets one ErrorInfo reply with ``status``, the connection
    closes, and the daemon answers the next client."""
    [(got, headers, body)], closed = _replies(daemon, data, 1)
    assert got == status, body
    info = ErrorInfo.from_payload(json.loads(body))
    assert info.status == status and info.message
    assert headers["connection"] == "close" and closed
    assert _still_serving(daemon)
    return info


def test_two_pipelined_requests_get_two_replies_in_order(daemon):
    replies, closed = _replies(
        daemon, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n", 2,
        eof_within=0.3)
    assert [status for status, _, _ in replies] == [200, 200]
    assert json.loads(replies[0][2])["role"] == "scheduler"
    assert json.loads(replies[1][2])["kind"] == "metrics"
    assert not closed                  # kept alive for a third


def test_bare_lf_line_endings_are_accepted(daemon):
    [(status, headers, body)], closed = _replies(
        daemon, b"GET /v1/healthz HTTP/1.1\nHost: x\n\n", 1, eof_within=0.3)
    assert status == 200 and json.loads(body)["ok"] is True
    assert not closed


def test_http_1_0_is_answered_then_closed(daemon):
    [(status, headers, body)], closed = _replies(
        daemon, b"GET /v1/healthz HTTP/1.0\r\n\r\n", 1)
    assert status == 200 and json.loads(body)["ok"] is True
    assert headers["connection"] == "close" and closed


def test_transfer_encoding_is_refused_and_closed(daemon):
    info = _refused(daemon, b"POST /v1/run HTTP/1.1\r\n"
                            b"Transfer-Encoding: chunked\r\n\r\n"
                            b"2\r\n{}\r\n0\r\n\r\n", 501)
    assert "Transfer-Encoding" in info.message


def test_conflicting_content_lengths_are_400(daemon):
    info = _refused(daemon, b"POST /v1/run HTTP/1.1\r\nContent-Length: 2\r\n"
                            b"Content-Length: 3\r\n\r\n{}}", 400)
    assert "conflicting" in info.message


def test_agreeing_content_lengths_are_one(daemon):
    [(status, _, body)], _ = _replies(
        daemon, b"POST /v1/run HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 2\r\n\r\n{}", 1)
    assert status == 400               # the envelope, not the framing
    assert "conflicting" not in json.loads(body)["message"]


def test_expect_100_continue_is_answered_before_the_body(daemon):
    with socket.create_connection((daemon.host, daemon.port),
                                  timeout=10) as sock:
        sock.sendall(b"PUT /v1/traces/abc HTTP/1.1\r\nContent-Length: 4\r\n"
                     b"Expect: 100-continue\r\n\r\n")
        rfile = sock.makefile("rb")
        assert wire.read_head(rfile) == ("HTTP/1.1 100 Continue", {})
        sock.sendall(b"junk")
        start, headers = wire.read_head(rfile)
        body = wire.read_body(rfile, wire.content_length(headers))
    assert start.split()[1] == "200"
    assert json.loads(body) == {"stored": False}    # not a trace


def test_101_headers_are_431_and_100_are_served(daemon):
    head = b"GET /v1/healthz HTTP/1.1\r\n"
    many = b"".join(b"X-H%d: v\r\n" % i for i in range(100))
    [(status, _, _)], _ = _replies(daemon, head + many + b"\r\n", 1,
                                   eof_within=0.3)
    assert status == 200
    _refused(daemon, head + many + b"X-Last: v\r\n\r\n", 431)


@pytest.mark.parametrize("data,status", [
    (b"GET /v1/healthz\r\n\r\n", 400),
    (b"GET /v1/healthz HTTP/2.0\r\n\r\n", 505),
    (b"GET /v1/healthz HTTP/1.1\r\nNo-Colon\r\n\r\n", 400),
    (b"GET /v1/healthz HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", 400),
    (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414),
], ids=["no_version", "http_2", "no_colon", "folded_line",
        "long_request_line"])
def test_malformed_heads_fail_closed(daemon, data, status):
    _refused(daemon, data, status)


def test_a_mebibyte_binary_trace_blob_each_way(daemon):
    """Every byte value, CRLFs included, through ``put_trace`` and back
    through ``get_trace`` (a dict stands in for the trace store, which
    would parse the blob)."""
    blobs = {}

    class Store:
        def write_blob(self, fingerprint, blob):
            blobs[fingerprint] = blob
            return True

        def read_blob(self, fingerprint):
            return blobs.get(fingerprint)

    daemon.scheduler.store = Store()
    blob = os.urandom(1 << 20) + b"\r\n\r\n" + bytes(range(256))
    client = DaemonClient(daemon.host, daemon.port)
    try:
        assert client.put_trace("f" * 16, blob) is True
        assert blobs["f" * 16] == blob
        assert client.get_trace("f" * 16) == blob
        assert client.healthz()["ok"]
    finally:
        client.close()


def test_a_reply_cut_short_raises_and_the_next_call_reconnects(
        daemon, accepted, monkeypatch):
    reply = _Handler._reply
    cut = []

    def cut_once(handler, status, payload, headers):
        if cut:
            return reply(handler, status, payload, headers)
        cut.append(True)
        handler.close_connection = True
        body = json.dumps(payload).encode()
        handler.request.sendall(wire.frame(
            wire.status_line(status),
            {"Content-Length": str(len(body))}, body)[:-3])

    monkeypatch.setattr(_Handler, "_reply", cut_once)
    client = DaemonClient(daemon.host, daemon.port)
    try:
        with pytest.raises(ConnectionError):
            client.healthz()
        assert getattr(client._local, "conn", None) is None
        assert client.healthz()["ok"]
        assert len(accepted) == 2
    finally:
        client.close()


# -- the framer without a socket ----------------------------------------------


def _head(data):
    return wire.read_head(io.BufferedReader(io.BytesIO(data)))


def test_read_head_limits():
    assert _head(b"") is None
    start, headers = _head(b"GET / HTTP/1.1\r\nA: 1\r\na:  2 \r\n\r\n")
    assert start == "GET / HTTP/1.1" and headers == {"a": "1, 2"}
    long_line = b"X: " + b"a" * wire.MAX_LINE + b"\r\n"
    for data, status in [
            (b"G" * (wire.MAX_LINE + 1), 414),
            (b"GET / HTTP/1.1\r\n" + long_line + b"\r\n", 431),
            (b"GET / HTTP/1.1\r\nA : 1\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nA: 1\r\n", 400)]:
        with pytest.raises(wire.WireError) as excinfo:
            _head(data)
        assert excinfo.value.status == status


@pytest.mark.parametrize("value", ["-1", "12abc", "", "1, 1", "+1"])
def test_content_length_must_be_decimal(value):
    with pytest.raises(wire.WireError) as excinfo:
        wire.content_length({"content-length": value})
    assert excinfo.value.status == 400


def test_frame_refuses_control_characters():
    assert (wire.frame("GET / HTTP/1.1", {"A": "1"}, b"xy")
            == b"GET / HTTP/1.1\r\nA: 1\r\n\r\nxy")
    with pytest.raises(ValueError):
        wire.frame("GET / HTTP/1.1", {"A": "1\r\nB: 2"})
    with pytest.raises(ValueError):
        wire.frame("GET /\r\n HTTP/1.1", {})


# -- work counters --------------------------------------------------------------


class _Counted:
    """A socket that counts its writes and the readers made over it."""

    def __init__(self, sock, counts, side):
        self._sock, self._counts, self._side = sock, counts, side

    def sendall(self, data, *args):
        self._counts[self._side, "sendall"] += 1
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._counts[self._side, "send"] += 1
        return self._sock.send(data, *args)

    def makefile(self, *args, **kwargs):
        self._counts[self._side, "makefile"] += 1
        return self._sock.makefile(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_one_write_each_way_and_one_reader_per_connection(daemon,
                                                          monkeypatch):
    from repro.common.config import small_config
    from repro.core import Session

    counts = Counter()
    get_request = _Server.get_request
    create_connection = socket.create_connection

    def daemon_side(server):
        sock, address = get_request(server)
        return _Counted(sock, counts, "daemon"), address

    def client_side(*args, **kwargs):
        return _Counted(create_connection(*args, **kwargs), counts,
                        "client")

    monkeypatch.setattr(_Server, "get_request", daemon_side)
    monkeypatch.setattr(socket, "create_connection", client_side)
    served = []
    unsubscribe = host.subscribe(
        lambda record: served.append(record)
        if record["name"] == "http.request" else None)
    client = DaemonClient(daemon.host, daemon.port)
    try:
        job = client.submit(Session(small_config(2)).build_run_request(
            "arraybw", "gcn3", scale=0.1, seed=7, execution="execute"))
        assert client.wait(job.job_id, timeout=120).state == "done"
        for _ in range(50):
            assert client.job(job.job_id).finished
        [handler] = daemon._server._connections.values()
        client.close()
        handler.join(timeout=10)       # it returns at the client's EOF
        assert not handler.is_alive()
    finally:
        unsubscribe()
        client.close()
    requests = len(served)             # submit, wait(s) and 50 polls
    assert requests >= 52
    assert counts == Counter({
        ("client", "makefile"): 1, ("daemon", "makefile"): 1,
        ("client", "sendall"): requests, ("daemon", "sendall"): requests})


def test_the_serve_layer_loads_no_stdlib_http_parser():
    import subprocess
    import sys
    from pathlib import Path

    import repro

    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve.daemon, repro.serve.client; "
         "print(sorted(m for m in sys.modules if m.startswith("
         "('http.', 'email'))))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ,
             "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
