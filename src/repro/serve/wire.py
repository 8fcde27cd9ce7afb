"""The HTTP/1.1 framing both ends of ``repro serve`` share.

Small on purpose: a message is a head (start line plus headers) and
exactly ``Content-Length`` bytes of body; chunked bodies, trailers and
header continuation lines are refused.  A head is read from one
buffered reader per connection, with the limits the stdlib parser
enforced (a start line over :data:`MAX_LINE` bytes is 414, a header line
over it or more than :data:`MAX_HEADERS` headers 431), and a message is
written as one buffer for one ``sendall``, so with ``TCP_NODELAY`` set a
reply leaves in one segment train and never waits on a delayed ACK.

Lines may end in CRLF or a bare LF.  Header names are matched
case-insensitively (the dict :func:`read_head` returns is keyed by the
lower-cased name); a repeated header's values are joined with ``", "``,
except ``Content-Length``, whose copies must agree.
"""

from __future__ import annotations

import re
import time
from http import HTTPStatus
from typing import BinaryIO, Dict, Optional, Tuple

#: bytes in the start line or in one header line, its line ending included.
MAX_LINE = 65536
#: headers in one head.
MAX_HEADERS = 100

_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


class WireError(Exception):
    """A message that breaks the framing; ``status`` is the reply a
    daemon gives it (after which the connection closes)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def read_head(rfile: BinaryIO) -> Optional[Tuple[str, Dict[str, str]]]:
    """The next head's start line and headers; None at EOF before its
    first byte."""
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise WireError(414, f"start line over {MAX_LINE} bytes")
    start = line.rstrip(b"\r\n").decode("latin-1")
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise WireError(431, f"header line over {MAX_LINE} bytes")
        if line in (b"\r\n", b"\n"):
            return start, headers
        if not line.endswith(b"\n"):
            raise WireError(400, "connection closed inside a head")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise WireError(400, f"malformed header line {line[:80]!r}")
        name, value = name.lower(), value.strip()
        if name not in headers:
            headers[name] = value
        elif name == "content-length":
            if headers[name] != value:
                raise WireError(400, "conflicting Content-Length headers")
        else:
            headers[name] = f"{headers[name]}, {value}"
    raise WireError(431, f"more than {MAX_HEADERS} headers")


def content_length(headers: Dict[str, str]) -> int:
    """The body length a head announces (0 when it announces none)."""
    if "transfer-encoding" in headers:
        raise WireError(501, "Transfer-Encoding is not supported; "
                             "send a Content-Length")
    length = headers.get("content-length", "0")
    if not length.isdecimal():
        raise WireError(400, f"bad Content-Length {length!r}")
    return int(length)


def read_body(rfile: BinaryIO, length: int) -> bytes:
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise WireError(400, "body shorter than its Content-Length")
    return body


def frame(start: str, headers: Dict[str, str], body: bytes = b"") -> bytes:
    """One message, head and body, as one buffer."""
    lines = [start, *(f"{name}: {value}" for name, value in headers.items())]
    for line in lines:
        if _CONTROL.search(line):
            raise ValueError(f"control character in HTTP head line {line!r}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1") + body


_PHRASES = {status.value: status.phrase for status in HTTPStatus}


def status_line(status: int) -> str:
    return f"HTTP/1.1 {status} {_PHRASES.get(status, '')}"


_date = (0, "")


def http_date() -> str:
    """The ``Date`` header's value, formatted once per second."""
    global _date
    now = int(time.time())
    if _date[0] != now:
        _date = (now, time.strftime("%a, %d %b %Y %H:%M:%S GMT",
                                    time.gmtime(now)))
    return _date[1]


__all__ = ["MAX_HEADERS", "MAX_LINE", "WireError", "content_length",
           "frame", "http_date", "read_body", "read_head", "status_line"]
