"""Traced pass: an in-memory span recorder and the table of patch points.

Nothing under ``src/`` records host-side spans yet, so the traced pass
wraps the calls *into* each layer from here: :data:`PATCH_POINTS` names
one function or method per layer boundary, :func:`install` replaces each
with a wrapper that records a span around the original.  Untraced runs
never import this module; they touch only the four public doors.

A span is ``{id, parent, name, request, pid, tid, start_ns, end_ns}``.
``parent`` is the span open on the same thread when this one started;
``request`` is shared by all spans of one cell.  Start and end come from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), which every process
of one run shares, so spans of the child, the daemon and the dist worker
line up in one file.
"""

import contextlib
import importlib
import json
import os
import threading
import time
import warnings

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "launcher.py")
#: The directory every traced process of one repetition dumps its
#: ``spans-<pid>.json`` into, and the request-id prefix
#: (``<workload>/<rep>``) it stamps on its spans.
SPANS_ENV = "E2E_SPANS_DIR"
PREFIX_ENV = "E2E_SPAN_PREFIX"


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, prefix=""):
        self.prefix = prefix
        self.spans = []
        self.missing = []          # patch points that no longer exist
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()

    @contextlib.contextmanager
    def span(self, name, request=None):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        outer_request = getattr(local, "request", "")
        if request is not None and not outer_request:
            local.request = f"{self.prefix}/{request}"
        record = {
            "id": 0, "parent": stack[-1] if stack else None, "name": name,
            "request": getattr(local, "request", ""), "pid": self._pid,
            "tid": threading.get_ident(), "start_ns": 0, "end_ns": 0,
        }
        with self._lock:
            self.spans.append(record)
            record["id"] = f"{self._pid}.{len(self.spans)}"
        stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            stack.pop()
            local.request = outer_request

    def dump(self, directory):
        path = os.path.join(directory, f"spans-{self._pid}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "missing": self.missing}, f)


def _gpu_span_name(gpu):
    if gpu.replay is not None:
        return f"timing.replay_{gpu.engine}"
    mode = "capture" if gpu.recorder is not None else "execute"
    return f"timing.{mode}_{gpu.process.isa}"


def _cell_request(request, *_args, **_kwargs):
    return (f"{request.workload}-{request.isa}-"
            f"{request.config.fingerprint()[:8]}")


#: (span name or fn(self) -> name, module, attribute path, fn(args) ->
#: request id or None).  One row per layer boundary the benchmark sees
#: from outside; see README.md for the layer each row stands for.
PATCH_POINTS = [
    ("hsail.codegen", "repro.core.api", "compile_hsail", None),
    ("finalizer.finalize", "repro.core.api", "finalize", None),
    (_gpu_span_name, "repro.timing.gpu", "Gpu.run_all", None),
    ("harness.trace_finish", "repro.timing.replay", "TraceRecorder.finish",
     None),
    ("harness.trace_get", "repro.harness.cache", "TraceStore.get", None),
    ("harness.trace_put", "repro.harness.cache", "TraceStore.put", None),
    ("harness.result_get", "repro.harness.cache", "ResultCache.get", None),
    ("harness.result_put", "repro.harness.cache", "ResultCache.put", None),
    ("common.merge", "repro.harness.runner", "merge_all", None),
    ("core.execute_run_request", "repro.harness.runner",
     "execute_run_request", _cell_request),
    ("serve.submit", "repro.serve.client", "DaemonClient.submit", None),
    ("serve.job", "repro.serve.client", "DaemonClient.job", None),
    ("dist.lease", "repro.dist.coordinator", "Coordinator.lease", None),
    ("dist.report", "repro.dist.coordinator", "Coordinator.report", None),
]

#: Per registered workload class: method -> span name.
WORKLOAD_METHODS = {"build_kernels": "kernels.build",
                    "stage": "runtime.stage", "verify": "workloads.verify"}


def _wrap(recorder, original, name, request_of):
    def wrapper(*args, **kwargs):
        span_name = name(args[0]) if callable(name) else name
        request = request_of(*args, **kwargs) if request_of else None
        with recorder.span(span_name, request=request):
            return original(*args, **kwargs)
    wrapper.__wrapped__ = original
    return wrapper


def _patch(recorder, module_name, path, name, request_of):
    where = f"{module_name}:{path}"
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        recorder.missing.append(where)
        warnings.warn(f"e2e patch point {where} no longer exists; its "
                      f"layer metrics read 0", stacklevel=3)
        return
    setattr(owner, attr, _wrap(recorder, original, name, request_of))


def install(recorder):
    """Wrap every patch point with a span recorded into ``recorder``."""
    for name, module_name, path, request_of in PATCH_POINTS:
        _patch(recorder, module_name, path, name, request_of)
    from repro.workloads import create, workload_names

    for workload in workload_names():
        cls = type(create(workload))
        for method, span_name in WORKLOAD_METHODS.items():
            _patch(recorder, cls.__module__, f"{cls.__name__}.{method}",
                   span_name, None)
    _launch_dist_workers_traced(recorder)


def _launch_dist_workers_traced(recorder):
    """Make ``DistSweep._spawn`` start its ``repro dist worker`` through
    launcher.py, so the worker's spans land beside the coordinator's.
    ``_spawn`` builds ``[python, -m, repro, dist, worker, ...]``; only
    the ``-m repro`` part is swapped, inside the coordinator module."""
    import subprocess

    try:
        coordinator = importlib.import_module("repro.dist.coordinator")
        coordinator.DistSweep._spawn
    except (ImportError, AttributeError):
        recorder.missing.append("repro.dist.coordinator:DistSweep._spawn")
        return

    class _Subprocess:
        def __getattr__(self, attr):
            return getattr(subprocess, attr)

        @staticmethod
        def Popen(cmd, **kwargs):
            if list(cmd[1:3]) == ["-m", "repro"]:
                cmd = [cmd[0], LAUNCHER] + list(cmd[3:])
            return subprocess.Popen(cmd, **kwargs)

    coordinator.subprocess = _Subprocess()


# -- analysis (driver side) -----------------------------------------------------


def load_spans(paths):
    """All spans (and missing patch points) of the given span files."""
    spans, missing = [], []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, ValueError):
            continue
        spans.extend(s for s in payload["spans"] if s["end_ns"])
        missing.extend(payload["missing"])
    return spans, sorted(set(missing))


def self_times(spans):
    """``{span id: self ns}``: duration minus what direct children cover.
    Children nest on one thread, so they never overlap each other."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end_ns"] - span["start_ns"]
    return own


def covered_ns(spans, start_ns, end_ns):
    """Length of [start, end] covered by at least one of ``spans``."""
    intervals = sorted((max(s["start_ns"], start_ns), min(s["end_ns"], end_ns))
                       for s in spans)
    total, cursor = 0, start_ns
    for lo, hi in intervals:
        if hi > cursor:
            total += hi - max(lo, cursor)
            cursor = hi
    return total


def chrome_trace(spans):
    """The spans as Chrome trace events (opens in Perfetto)."""
    return {"traceEvents": [
        {"name": s["name"], "ph": "X", "pid": s["pid"], "tid": s["tid"],
         "ts": s["start_ns"] / 1000.0,
         "dur": (s["end_ns"] - s["start_ns"]) / 1000.0,
         "args": {"id": s["id"], "parent": s["parent"],
                  "request": s["request"]}}
        for s in spans
    ]}
