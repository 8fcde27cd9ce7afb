"""Where one cell of the (workload x ISA) simulation matrix runs.

A cell (:class:`Job`: a :class:`~repro.core.requests.RunRequest` plus
its sweep-point tag) runs through :func:`run_cell`, the one cell runner
of this host: the sweep ledger's serial loop and drift guard, the serve
scheduler and a dist worker all call it, against a shared trace store
where they hold one.  A cell that raises comes back as a marked-failed
:class:`~repro.harness.runner.WorkloadRun` carrying the exception
message, never as a raise.  With a wall-clock limit the cell runs in a
child :func:`fork` makes: the child sends the run back as one
:func:`send_frame` frame over a socketpair, an overrun child is
SIGKILLed and reaped, a child that dies leaves the cell marked failed
with an error saying so, and a child whose parent dies (its end of the
socketpair closes) exits at once.

``--jobs N`` is not fanned out here: the sweep ledger's dispatch loop
(:mod:`repro.explore.sweep`) forks N dist workers
(:class:`~repro.dist.DistSweep`, through :func:`fork` as well) that
lease the cells from an in-process coordinator and run each through
:func:`run_cell`.  Within the host a run crosses a process boundary as
itself, pickled into one frame; the JSON-friendly payload
(:meth:`WorkloadRun.to_payload`) is for bytes that leave the process:
the daemon's HTTP, the result cache and the sweep journal.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, TypeVar)

from ..common.config import GpuConfig
from ..core.requests import RunRequest
from .cache import job_fingerprint

T = TypeVar("T")


@dataclass(frozen=True)
class Job:
    """One cell of the simulation matrix.

    A job *is* a serializable :class:`~repro.core.requests.RunRequest`
    plus its sweep-point tag: the request is the exact same object the
    CLI, ``Session``, and the ``repro serve`` daemon execute — one
    schema, one code path.
    """

    request: RunRequest
    #: sweep-point tag (``base`` for a suite's one point), so cells of
    #: *different* configs for the same (workload, isa) never collide in
    #: the result mapping.  Empty for a lone cell.
    point: str = ""

    # -- request field views (the request is the source of truth) -------------

    @property
    def workload(self) -> str:
        return self.request.workload

    @property
    def isa(self) -> str:
        return self.request.isa

    @property
    def config(self) -> GpuConfig:
        return self.request.config

    @property
    def key(self) -> "Tuple[str, ...]":
        if self.point:
            return (self.point, self.workload, self.isa)
        return (self.workload, self.isa)

    @property
    def fingerprint(self) -> str:
        """This cell's key in the persistent result cache."""
        return job_fingerprint(self.config, self.workload, self.isa,
                               self.request.scale, self.request.seed)

    def describe(self) -> str:
        prefix = f"[{self.point}] " if self.point else ""
        return f"{prefix}{self.request.describe()}"


@dataclass(frozen=True)
class JobEvent:
    """One structured progress line for a finished (or skipped) job."""

    workload: str
    isa: str
    status: str          # "hit" | "ok" | "failed" | "journal"
    wall_seconds: float
    index: int           # 1-based position in the suite
    total: int
    #: sweep-point id (``base`` for a suite); empty for a lone cell.
    point: str = ""

    def format(self) -> str:
        where = (f"{self.point}:{self.workload}/{self.isa}" if self.point
                 else f"{self.workload}/{self.isa}")
        return (
            f"[{self.index}/{self.total}] {where} "
            f"{self.status} {self.wall_seconds:.2f}s"
        )


ProgressFn = Callable[[JobEvent], None]


def trace_key(request: RunRequest) -> str:
    """The functional-trace fingerprint of one cell: cells with equal
    keys share a dynamic instruction stream, so one capture serves them
    all.  Sweep phases, dist shards and the daemon's batches group on it."""
    from .cache import trace_fingerprint

    return trace_fingerprint(request.resolved_config(), request.workload,
                             request.isa, request.scale, request.seed)


def trace_groups(items: Sequence[T]) -> "Dict[str, List[T]]":
    """``items`` (anything with a ``.request`` cell: a :class:`Job`, a
    daemon's queued job) keyed by :func:`trace_key`, groups and members
    in first-seen order.  A group shares one dynamic instruction stream:
    sweep phases, dist shards and the daemon's batches are all cuts of
    this one grouping."""
    groups: "Dict[str, List[T]]" = {}
    for item in items:
        groups.setdefault(trace_key(item.request), []).append(item)
    return groups


def run_cell(request: RunRequest, trace_store: "Optional[object]" = None,
             timeout: Optional[float] = None) -> "object":
    """Run one cell against a resident caller's shared ``trace_store``;
    a cell that raises comes back marked failed with the exception's
    type and message.  With ``timeout`` set the cell runs in a forked
    child: past the limit the child is SIGKILLed and reaped and the cell
    comes back marked failed "timed out after ...s"; a child that dies
    comes back marked failed naming its exit status.  The child dies
    with this process: a thread of its own blocks on its end of the
    socketpair and exits the child at EOF, which only this process's
    end closing can bring."""
    from .runner import WorkloadRun, execute_run_request

    start = time.monotonic()
    if timeout is None:
        try:
            return execute_run_request(request, trace_store=trace_store)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            return WorkloadRun.failure(request.workload, request.isa,
                                       f"{type(exc).__name__}: {exc}",
                                       time.monotonic() - start)
    ours, theirs = socket.socketpair()
    with ours:
        def body():
            threading.Thread(target=_exit_at_eof, args=(theirs,),
                             daemon=True).start()
            send_frame(theirs, run_cell(request, trace_store))

        child = fork(body, close=(ours,))
        theirs.close()
        ours.settimeout(timeout)
        try:
            return recv_frame(ours)
        except TimeoutError:  # no frame within the limit
            os.kill(child.pid, signal.SIGKILL)
            error = f"timed out after {timeout:g}s"
        except OSError:       # EOF or a cut frame: the child died
            error = (f"cell process died (exit status "
                     f"{child.poll(block=True)})")
        finally:
            child.poll(block=True)
    return WorkloadRun.failure(request.workload, request.isa, error,
                               time.monotonic() - start)


def _exit_at_eof(sock: socket.socket) -> None:
    sock.recv(1)  # nothing is ever sent this way: returns only at EOF
    os._exit(1)


def send_frame(sock: socket.socket, obj: object) -> None:
    """One frame: the pickle's length (4 bytes, big-endian), the pickle."""
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    sock.sendall(len(body).to_bytes(4, "big") + body)


def _recv_exact(sock: socket.socket, size: int) -> bytearray:
    buf = bytearray()
    while len(buf) < size:
        chunk = sock.recv(min(size - len(buf), 1 << 20))
        if not chunk:
            raise ConnectionError(f"pipe closed {len(buf)}/{size} bytes in")
        buf += chunk
    return buf


def recv_frame(sock: socket.socket) -> object:
    """The next frame's object; ConnectionError (an OSError) on EOF, a
    frame shorter than its length, or a body that does not unpickle."""
    body = _recv_exact(sock, int.from_bytes(_recv_exact(sock, 4), "big"))
    try:
        return pickle.loads(body)
    except Exception as exc:  # noqa: BLE001 - any bad pickle fails closed
        raise ConnectionError(f"undecodable frame: {exc!r}") from exc


class ForkedProcess:
    """A child :func:`fork` made: ``pid`` and ``poll`` as on
    ``subprocess.Popen``; ``block`` reaps it."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self, block: bool = False) -> Optional[int]:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode


def fork(body: Callable[[], object],
         close: Iterable[socket.socket] = ()) -> ForkedProcess:
    """Run ``body`` in a forked child, which already holds every module
    a cell needs.  The child restores the default SIGTERM/SIGINT
    handlers, sends stdout/stderr to devnull, closes ``close`` (the pipe
    ends that are not its own) and leaves through ``os._exit`` on every
    path: 0 when ``body`` returns, 1 when it raises — it never runs on
    into its parent's code."""
    pid = os.fork()
    if pid:
        return ForkedProcess(pid)
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        for end in close:
            end.close()
        body()
        code = 0
    finally:
        os._exit(code)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a job-count request: None/0/negative mean 'all cores'.

    'All cores' respects CPU affinity (cgroup/taskset limits) where the
    platform exposes it, falling back to the raw core count.
    """
    if jobs is None or jobs <= 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # macOS/Windows
            return max(1, os.cpu_count() or 1)
    return jobs
