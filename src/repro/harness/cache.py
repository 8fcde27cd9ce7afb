"""Persistent on-disk cache for simulation results.

Every (workload, ISA, scale, seed, config) job is identified by a content
fingerprint that also folds in a hash of the simulator's own source tree,
so results survive across processes and pytest sessions but are invalidated
automatically the moment any simulator code or configuration parameter
changes.  Entries are one JSON file each under the cache directory
(``.repro_cache/`` by default); a truncated or otherwise corrupt entry is
treated as a miss and silently rewritten.  Suites and sweeps share it
through the sweep ledger, which writes each cell as it lands (never a
failed one), so a killed run keeps every finished cell.  It is the only
result memo: no suite is kept in memory.

Knobs
-----

``REPRO_CACHE_DIR``
    Override the cache directory (same as ``Session.suite(cache_dir=...)`` or
    the ``--cache-dir`` CLI flag).
``REPRO_NO_CACHE``
    Any non-empty value disables reads *and* writes (same as the
    ``--no-cache`` CLI flag).  ``Session.suite(use_disk_cache=False)``
    does the same for one suite; a traced suite never touches it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING, Union

from ..common.config import GpuConfig
from ..obs.host import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import WorkloadRun

#: Bump when the serialized WorkloadRun payload shape changes; older
#: entries then read as misses instead of deserializing garbage.
CACHE_FORMAT_VERSION = 1

DEFAULT_CACHE_DIR = ".repro_cache"

_SRC_ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=1)
def source_tree_stamp() -> str:
    """A content hash over every ``.py`` file of the simulator itself.

    Editing any simulator source (timing model, finalizer, workloads, ...)
    changes the stamp and therefore every cache key, guaranteeing stale
    results are never served after a code change.  Computed once per
    process; ~150 small files hash in a few milliseconds.
    """
    digest = hashlib.sha256()
    for path in sorted(_SRC_ROOT.rglob("*.py")):
        digest.update(str(path.relative_to(_SRC_ROOT)).encode("utf-8"))
        digest.update(b"\0")
        try:
            digest.update(path.read_bytes())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def job_fingerprint(
    config: GpuConfig,
    workload: str,
    isa: str,
    scale: float,
    seed: int,
) -> str:
    """The cache key for one simulation job (hex digest)."""
    canonical = json.dumps(
        {
            "config": config.fingerprint(),
            "workload": workload,
            "isa": isa,
            "scale": scale,
            "seed": seed,
            "source": source_tree_stamp(),
            "format": CACHE_FORMAT_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def trace_fingerprint(
    config: GpuConfig,
    workload: str,
    isa: str,
    scale: float,
    seed: int,
) -> str:
    """The trace-store key for one workload's dynamic instruction stream.

    Unlike :func:`job_fingerprint` this folds in only the *functional*
    half of the configuration: every timing-only config (cache geometry,
    VRF banks, latencies, CU count) produces the same stream and therefore
    shares one captured trace — which is exactly what lets a timing sweep
    capture once and replay everywhere.
    """
    from ..timing.replay import TRACE_FORMAT_VERSION

    canonical = json.dumps(
        {
            "functional": config.functional_fingerprint(),
            "workload": workload,
            "isa": isa,
            "scale": scale,
            "seed": seed,
            "source": source_tree_stamp(),
            "format": TRACE_FORMAT_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cache_disabled_by_env() -> bool:
    return bool(os.environ.get("REPRO_NO_CACHE"))


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


class _FileStore:
    """One directory of ``<fingerprint><suffix>`` files: the paths,
    atomic writes and housekeeping :class:`ResultCache` and
    :class:`TraceStore` share (each keeps its own ``get``/``put``).

    Strictly best-effort: unreadable directories, corrupt entries, and
    write failures all degrade to misses rather than errors, so a broken
    store can never make a run fail — at worst it makes it slow.
    """

    suffix = ""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}{self.suffix}"

    def _entries(self) -> "List[Path]":
        try:
            return list(self.directory.glob(f"*{self.suffix}"))
        except OSError:
            return []

    def _write(self, fingerprint: str, data: bytes) -> bool:
        """Land ``data`` under the entry's final name; False (and silent)
        on failure.  Write-then-rename, so a crash mid-write leaves no
        truncated entry (readers see old-or-new, never half-written)."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=".tmp-", suffix=self.suffix, dir=self.directory
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(data)
                os.replace(tmp_name, self._path(fingerprint))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def _discard(self, path: Path, reason: str = "") -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        return sum(1 for path in self._entries() if self._discard(path))

    def prune_older_than(self, days: float) -> "Tuple[int, int]":
        """Delete entries whose mtime is older than ``days`` days.

        Returns ``(entries_removed, bytes_freed)``.  Sweeps multiply
        growth across config fingerprints; age-based pruning is always
        safe because every entry is a pure content-addressed memoization
        — at worst a pruned cell is re-simulated (or re-captured).
        A negative or non-finite ``days`` raises :class:`ValueError`
        (``nan`` or ``-1`` would otherwise put every entry past the
        cutoff).
        """
        if not (math.isfinite(days) and days >= 0):
            raise ValueError(f"days must be a finite number >= 0, "
                             f"not {days!r}")
        cutoff = time.time() - days * 86400.0
        removed = 0
        freed = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            if stat.st_mtime >= cutoff or not self._discard(path):
                continue
            removed += 1
            freed += stat.st_size
        return (removed, freed)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


class ResultCache(_FileStore):
    """One directory of ``<fingerprint>.json`` result files."""

    suffix = ".json"

    def __init__(self, directory: Optional[str] = None) -> None:
        super().__init__(Path(directory or default_cache_dir()))

    def get(self, fingerprint: str) -> "Optional[WorkloadRun]":
        """The cached run for ``fingerprint``, or ``None`` on any miss."""
        from .runner import WorkloadRun

        path = self._path(fingerprint)
        with span("result.get"):
            try:
                with open(path, "r", encoding="utf-8") as f:
                    entry = json.load(f)
                if entry.get("format") != CACHE_FORMAT_VERSION:
                    raise ValueError(f"format {entry.get('format')!r}")
                run = WorkloadRun.from_payload(entry["run"])
            except FileNotFoundError:
                self.misses += 1
                return None
            except (OSError, ValueError, KeyError, TypeError) as exc:
                # Truncated write, hand-edited garbage, stale format: drop the
                # entry so the fresh result can be rewritten in its place.
                self.misses += 1
                self._discard(path, reason=f"{type(exc).__name__}: {exc}")
                return None
            self.hits += 1
            return run

    def put(self, fingerprint: str, run: "Union[WorkloadRun, Dict]",
            config_fingerprint: Optional[str] = None) -> bool:
        """Persist ``run``, or its payload when the caller already encoded
        it (a sweep journals the same dict); returns False (and stays
        silent) on failure.

        ``config_fingerprint`` (the :meth:`GpuConfig.fingerprint` the run
        was simulated under) is stored alongside the payload so
        :meth:`breakdown` can attribute disk usage per configuration —
        sweeps multiply entries across many configs.
        """
        with span("result.put"):
            payload = run if isinstance(run, dict) else run.to_payload()
            entry = {
                "format": CACHE_FORMAT_VERSION,
                "fingerprint": fingerprint,
                "workload": payload["workload"],
                "isa": payload["isa"],
                "config": config_fingerprint,
                "run": payload,
            }
            return self._write(
                fingerprint, json.dumps(entry, sort_keys=True).encode("utf-8"))

    def breakdown(self) -> "Dict[str, Dict[str, int]]":
        """Per-config-fingerprint usage: ``{config: {entries, bytes}}``.

        Entries written before the config fingerprint was recorded (or
        unreadable ones) are grouped under ``"(unknown)"``.
        """
        out: Dict[str, Dict[str, int]] = {}
        for path in self._entries():
            config = "(unknown)"
            size = 0
            try:
                size = path.stat().st_size
                with open(path, "r", encoding="utf-8") as f:
                    config = json.load(f).get("config") or "(unknown)"
            except (OSError, ValueError):
                pass
            bucket = out.setdefault(str(config), {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return out


#: In-process memo of parsed traces keyed by file path, validated by
#: (mtime_ns, size).  Every sweep cell replaying the same capture then
#: shares one parsed :class:`ExecTrace` — and the vector engine's
#: per-wavefront decode memo attached to it — instead of re-reading and
#: re-parsing the blob per cell.  ``put`` goes through ``os.replace``,
#: which bumps the mtime, so a re-captured trace invalidates naturally.
#:
#: The memo is LRU-bounded: a long-lived ``repro serve`` daemon (or a
#: dist worker pulling shards from many suites) touches an unbounded set
#: of functional fingerprints over its lifetime, and parsed traces are
#: the largest in-process objects by far.  :func:`_trace_memo_cap`
#: reads ``REPRO_TRACE_MEMO`` fresh per insert so tests (and operators)
#: can retune a running process; 0 disables memoization entirely.
_LOADED_TRACES: "OrderedDict[str, Tuple[int, int, object]]" = OrderedDict()

#: Default bound on distinct parsed traces held in process.  A sweep
#: over one suite touches ~20 fingerprints; 64 leaves headroom for a
#: few concurrent suites without letting a daemon grow monotonically.
DEFAULT_TRACE_MEMO = 64


def _trace_memo_cap() -> int:
    raw = os.environ.get("REPRO_TRACE_MEMO", "")
    try:
        return int(raw) if raw else DEFAULT_TRACE_MEMO
    except ValueError:
        return DEFAULT_TRACE_MEMO


def clear_trace_memo() -> None:
    """Drop the in-process parsed-trace memo (test isolation helper)."""
    _LOADED_TRACES.clear()


class TraceStore(_FileStore):
    """One directory of ``<fingerprint>.trace`` execution-trace blobs.

    The store holds :class:`~repro.timing.replay.ExecTrace` captures keyed
    by :func:`trace_fingerprint` under :class:`ResultCache`'s best-effort
    contract: corrupt or truncated entries read as misses and
    are discarded so the next capture rewrites them, and write failures
    degrade to "re-capture next time", never to an error.  The local
    workers of a sweep all point at the same directory, so whichever worker
    captures first publishes the trace for every other point.
    """

    suffix = ".trace"

    def __init__(self, directory: Optional[str] = None) -> None:
        super().__init__(
            Path(directory) if directory else Path(default_cache_dir()) / "traces"
        )

    def has(self, fingerprint: str) -> bool:
        """Cheap existence probe (no parse) for sweep capture planning."""
        try:
            return self._path(fingerprint).is_file()
        except OSError:
            return False

    def get(self, fingerprint: str) -> "Optional[object]":
        """The stored trace, or ``None`` on any miss (corrupt → discard);
        its ``trace.get`` span's ``path`` says ``memo``, ``disk`` or
        ``miss``."""
        with span("trace.get") as attrs:
            trace, attrs["path"] = self._lookup(fingerprint)
            return trace

    def _lookup(self, fingerprint: str) -> "Tuple[Optional[object], str]":
        from ..timing.replay import ExecTrace, TraceError

        path = self._path(fingerprint)
        key = str(path)
        try:
            st = path.stat()
        except OSError:
            self.misses += 1
            _LOADED_TRACES.pop(key, None)
            return None, "miss"
        memo = _LOADED_TRACES.get(key)
        if (memo is not None and memo[0] == st.st_mtime_ns
                and memo[1] == st.st_size):
            _LOADED_TRACES.move_to_end(key)  # LRU touch
            self.hits += 1
            return memo[2], "memo"
        try:
            blob = path.read_bytes()
            trace = ExecTrace.from_bytes(blob)
        except FileNotFoundError:
            self.misses += 1
            return None, "miss"
        except (OSError, TraceError, ValueError) as exc:
            self.misses += 1
            self._discard(path, reason=f"{type(exc).__name__}: {exc}")
            return None, "miss"
        cap = _trace_memo_cap()
        if cap > 0:
            trace.witnesses = []  # memoized: replays may file witnesses
            _LOADED_TRACES[key] = (st.st_mtime_ns, st.st_size, trace)
            _LOADED_TRACES.move_to_end(key)
            while len(_LOADED_TRACES) > cap:
                _LOADED_TRACES.popitem(last=False)
        self.hits += 1
        return trace, "disk"

    def put(self, fingerprint: str, trace: "object") -> bool:
        """Persist ``trace``; returns False (and stays silent) on failure."""
        with span("trace.put"):
            return self._write(fingerprint, trace.to_bytes())  # type: ignore[attr-defined]

    def read_blob(self, fingerprint: str) -> Optional[bytes]:
        """The raw serialized trace bytes (no parse) — the unit workers
        of a distributed sweep sync between stores by fingerprint."""
        try:
            return self._path(fingerprint).read_bytes()
        except OSError:
            return None

    def write_blob(self, fingerprint: str, blob: bytes) -> bool:
        """Store raw trace bytes received from another store.

        The blob is parsed before it lands so a truncated or corrupt
        transfer can never poison the store: an unparseable blob is
        refused (returns False) instead of written.
        """
        from ..timing.replay import ExecTrace, TraceError

        try:
            ExecTrace.from_bytes(blob)
        except (TraceError, ValueError):
            return False
        return self._write(fingerprint, blob)

    def discard(self, fingerprint: str, reason: str = "") -> bool:
        """Drop a stored trace that parsed but failed its replay, so the
        next ``auto`` run captures it afresh."""
        return self._discard(self._path(fingerprint), reason)

    def _discard(self, path: Path, reason: str = "") -> bool:
        # A file that is gone must not be served from the parsed memo.
        _LOADED_TRACES.pop(str(path), None)
        return super()._discard(path, reason)

    def breakdown(self) -> "Dict[str, Dict[str, int]]":
        """Per-functional-fingerprint usage: ``{fingerprint: {entries,
        bytes}}`` (the file stem *is* the trace fingerprint)."""
        out: Dict[str, Dict[str, int]] = {}
        for path in self._entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            bucket = out.setdefault(path.stem, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return out


def resolve_trace_store(trace_dir: Optional[str],
                        cache_dir: Optional[str] = None
                        ) -> Optional[TraceStore]:
    """The trace store replay should use, honouring env overrides.

    An explicit ``trace_dir`` always wins; with none given the store lives
    under the result-cache directory (``<cache_dir>/traces``, with
    ``cache_dir`` defaulting as for :class:`ResultCache`) and is disabled
    together with it by ``REPRO_NO_CACHE`` — replay degrades to plain
    execution rather than failing.
    """
    if trace_dir is not None:
        return TraceStore(trace_dir)
    if cache_disabled_by_env():
        return None
    return TraceStore(os.path.join(cache_dir, "traces") if cache_dir
                      else None)


def resolve_cache(
    use_disk_cache: Optional[bool],
    cache_dir: Optional[str],
) -> Optional[ResultCache]:
    """The cache the harness should use, honouring env overrides.

    ``use_disk_cache=None`` means "on unless ``REPRO_NO_CACHE`` is set";
    explicit True/False wins over the environment.
    """
    if use_disk_cache is None:
        use_disk_cache = not cache_disabled_by_env()
    if not use_disk_cache:
        return None
    return ResultCache(cache_dir)
