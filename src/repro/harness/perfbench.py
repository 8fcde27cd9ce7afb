"""Perf-trajectory bench harness: time the tier-1 suite, emit JSON.

The cycle model is the repo's hot path: every figure, sweep cell, and
trace comes out of it, so simulator wall-clock *is* a first-class
deliverable.  This module measures it reproducibly:

* :func:`run_bench` times every (workload x ISA) cell of the tier-1
  suite in-process — wall seconds, simulated cycles, simulated cycles
  per wall second, dynamic instructions, and the process peak RSS —
  always bypassing every cache layer (a cached result would time JSON
  deserialization, not the simulator).
* :func:`write_report` emits a machine-readable ``BENCH_*.json``
  (schema ``repro-bench/1``, see below) at the repo root; each PR that
  touches the hot path records a new file, establishing a perf
  trajectory reviewers can diff.
* :func:`compare` folds a prior ``BENCH_*.json`` in as the baseline:
  per-cell and geomean speedups are embedded in the new report, and
  cells slower than ``baseline * (1 + threshold)`` are flagged as
  regressions.  A committed baseline was measured in a *different
  epoch* (another host, another day, another container placement) and
  its wall numbers drift double-digit percentages for reasons that
  have nothing to do with the code, so by default it is a correctness
  gate only: ``cycle_drift`` and schema violations fail, wall-clock
  regressions are warnings.  Pass ``wall_gate=True`` (CLI
  ``--wall-gate``) to restore hard wall gating for same-epoch
  baselines you trust.
* :func:`run_bench_against` is the honest way to get a wall-clock
  number: it checks the baseline tree out into a scratch worktree and
  alternates current/baseline bench runs in the *same* epoch
  (interleaved rounds, per-cell minima), so both sides see the same
  host weather.

Schema (``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "label": "PR4",                  # free-form trajectory label
      "created_unix": 1754000000,      # seconds since the epoch
      "host": {"python": "3.11.7", "platform": "linux", "machine": "x86_64"},
      "epoch": {                       # measurement-epoch identity
        "host": "buildbox-03",         # who measured (platform.node())
        "timestamp": 1754000000,       # when (== created_unix)
        "rounds": 3                    # interleaved A/B rounds (1 = plain run)
      },
      "scale": 0.5, "seed": 7, "repeats": 1,
      "config_fingerprint": "…",       # GpuConfig identity
      "cells": [                       # one per workload x ISA x engine
        {"workload": "fft", "isa": "gcn3", "engine": "scalar",
         "verified": true,
         "wall_seconds": 1.93,         # best of `repeats` runs
         "capture_wall_seconds": null, # vector rows: one-off capture cost
         "replay_wall_seconds": null,  # vector rows: best warm replay
         "cycles": 193121, "dynamic_instructions": 20256,
         "cycles_per_second": 100062.7, "peak_rss_kb": 123456}
      ],
      "totals": {"wall_seconds": 9.7, "geomean_wall_seconds": 0.41,
                 "cycles_per_second": …},
      "baseline": {                    # only when compared against one
        "path": "BENCH_BASELINE.json", "label": "pre-PR4",
        "created_unix": …, "config_fingerprint": "…",
        "cells": [{"workload": …, "isa": …, "wall_seconds": …,
                   "speedup": 1.8, "regression": false}],
        "geomean_speedup": 1.83, "regressions": []
      },
      "sweep": {                       # only with a trace-replay sweep bench
        "axis": "l1d.size_bytes=8k,…", "points": 16, "repeats": 2,
        "engine": "auto",              # replay-pass cycle-engine request
        "execute_wall_seconds": 120.0, "replay_wall_seconds": 45.0,
        "speedup": 2.67, "captures": 6, "replays": 90,
        "replay_drift": 0, "cells_identical": true
      }
    }

Geomeans are taken over per-cell wall seconds (resp. speedups), the
standard summary for a suite whose cells span two orders of magnitude.
The ``sweep`` section (:func:`bench_sweep`) times the *same* timing-only
sweep twice — ``execution="execute"`` vs trace replay — so the headline
perf-opt number of the replay subsystem is reproducible from one
command.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import GpuConfig, paper_config
from ..common.errors import ReproError

SCHEMA = "repro-bench/1"

#: Default trajectory label; ``repro bench`` writes ``BENCH_<label>.json``.
DEFAULT_LABEL = "dev"


class BenchError(ReproError):
    """A bench report could not be produced or compared."""


@dataclass
class BenchCell:
    """Timing of one (workload, isa, engine) simulation.

    ``engine`` records which cycle engine produced the number:
    ``"scalar"`` rows time ``execution="execute"`` cells under the scalar
    engine;
    ``"vector"`` rows time a warm-store trace replay under the batch
    engine (its operating regime — the one-off capture does not count
    toward ``wall_seconds``).  Reports written before the engine knob
    existed carry no ``engine`` key; readers default it to ``"scalar"``.

    ``capture_wall_seconds``/``replay_wall_seconds`` break a vector
    row's end-to-end cost apart: the one-off capture-mode run that
    seeds the trace store versus the best timed warm-store replay
    (which equals ``wall_seconds``).  Scalar rows never capture or
    replay, so both are ``None`` there; older reports lack the keys.
    """

    workload: str
    isa: str
    verified: bool
    wall_seconds: float
    cycles: int
    dynamic_instructions: int
    peak_rss_kb: int
    engine: str = "scalar"
    capture_wall_seconds: Optional[float] = None
    replay_wall_seconds: Optional[float] = None

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "isa": self.isa,
            "engine": self.engine,
            "verified": self.verified,
            "wall_seconds": round(self.wall_seconds, 4),
            "capture_wall_seconds": (
                round(self.capture_wall_seconds, 4)
                if self.capture_wall_seconds is not None else None),
            "replay_wall_seconds": (
                round(self.replay_wall_seconds, 4)
                if self.replay_wall_seconds is not None else None),
            "cycles": self.cycles,
            "dynamic_instructions": self.dynamic_instructions,
            "cycles_per_second": round(self.cycles_per_second, 1),
            "peak_rss_kb": self.peak_rss_kb,
        }


@dataclass
class BenchReport:
    """A full bench run plus (optionally) its baseline comparison."""

    label: str
    scale: float
    seed: int
    repeats: int
    config_fingerprint: str
    cells: List[BenchCell] = field(default_factory=list)
    baseline: Optional[Dict[str, object]] = None
    created_unix: int = 0
    #: optional trace-replay sweep comparison (see :func:`bench_sweep`).
    sweep: Optional[Dict[str, object]] = None
    #: interleaved A/B rounds behind each cell (1 = a plain single-epoch
    #: run; >1 only from :func:`run_bench_against`).
    rounds: int = 1

    @property
    def total_wall_seconds(self) -> float:
        return sum(c.wall_seconds for c in self.cells)

    @property
    def geomean_wall_seconds(self) -> float:
        return _geomean([c.wall_seconds for c in self.cells])

    def cell(self, workload: str, isa: str,
             engine: Optional[str] = None) -> Optional[BenchCell]:
        for c in self.cells:
            if (c.workload == workload and c.isa == isa
                    and (engine is None or c.engine == engine)):
                return c
        return None

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "schema": SCHEMA,
            "label": self.label,
            "created_unix": self.created_unix,
            "host": {
                "python": platform.python_version(),
                "platform": sys.platform,
                "machine": platform.machine(),
            },
            "epoch": {
                "host": platform.node(),
                "timestamp": self.created_unix,
                "rounds": self.rounds,
            },
            "scale": self.scale,
            "seed": self.seed,
            "repeats": self.repeats,
            "config_fingerprint": self.config_fingerprint,
            "cells": [c.to_dict() for c in self.cells],
            "totals": {
                "wall_seconds": round(self.total_wall_seconds, 4),
                "geomean_wall_seconds": round(self.geomean_wall_seconds, 4),
                "cycles_per_second": round(
                    sum(c.cycles for c in self.cells)
                    / max(self.total_wall_seconds, 1e-9), 1),
            },
        }
        if self.baseline is not None:
            doc["baseline"] = self.baseline
        if self.sweep is not None:
            doc["sweep"] = self.sweep
        return doc


def _geomean(values: Sequence[float]) -> float:
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def normalize_rss_kb(raw_maxrss: int, platform_name: str) -> int:
    """Normalize a raw ``ru_maxrss`` reading to KiB.

    POSIX leaves the unit unspecified and the big two disagree: Linux
    (and the BSDs other than macOS) report KiB, macOS reports *bytes*.
    Pure so both branches are testable off-platform.
    """
    if platform_name == "darwin":
        return int(raw_maxrss) // 1024
    return int(raw_maxrss)


def _peak_rss_kb() -> int:
    """This process's peak RSS in KiB, platform-normalized."""
    return normalize_rss_kb(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, sys.platform
    )


ProgressFn = Optional[object]  # Callable[[str], None], kept loose for the CLI


#: Engines :func:`run_bench` knows how to time.
BENCH_ENGINES = ("scalar", "vector")


def run_bench(
    workloads: Optional[Sequence[str]] = None,
    scale: float = 0.5,
    seed: int = 7,
    config: Optional[GpuConfig] = None,
    repeats: int = 1,
    label: str = DEFAULT_LABEL,
    progress=None,
    profile_dir: Optional[str] = None,
    engines: Sequence[str] = ("scalar",),
) -> BenchReport:
    """Time every (workload x ISA x engine) cell; best-of-``repeats``.

    Caches are bypassed unconditionally — the point is to time the
    simulator, and a warm disk cache would short-circuit it.

    ``engines`` selects which cycle engines get rows.  ``"scalar"``
    times ``execution="execute"`` under the scalar engine (the
    pre-engine-knob behaviour, and the default).  ``"vector"`` times the batch replay
    engine in its operating regime: each cell first captures a trace
    into a throwaway store (untimed — a sweep pays that cost once, not
    per cell), then times ``repeats`` warm-store replays with
    ``engine="vector"`` and reports the best.  Vector rows inherit
    ``verified`` from the capture run's functional check.

    With ``profile_dir`` set, every scalar repeat runs under
    :mod:`cProfile` and the last repeat's stats are dumped to
    ``<profile_dir>/<workload>_<isa>.prof`` (loadable with
    :mod:`pstats` or snakeviz).  Profiling adds interpreter overhead, so
    a profiled report's wall numbers are for relative reading only —
    never commit one as a trajectory point.  Vector rows are never
    profiled.
    """
    import shutil
    import tempfile

    from ..workloads import all_workloads
    from .cache import resolve_trace_store
    from .runner import ISAS, run_workload

    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    engines = tuple(engines)
    for eng in engines:
        if eng not in BENCH_ENGINES:
            raise BenchError(
                f"unknown bench engine {eng!r}; expected one of "
                f"{', '.join(BENCH_ENGINES)}")
    if not engines:
        raise BenchError("run_bench needs at least one engine")
    config = config or paper_config()
    names = list(workloads) if workloads else [w.name for w in all_workloads()]
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
    report = BenchReport(
        label=label, scale=scale, seed=seed, repeats=repeats,
        config_fingerprint=config.fingerprint(),
        created_unix=int(time.time()),
    )
    for engine in engines:
        if engine == "vector":
            tmp = tempfile.mkdtemp(prefix="repro-bench-vec-")
            store = resolve_trace_store(tmp)
            run_config = config.with_overrides({"engine": "vector"})
        else:
            tmp = store = None
            run_config = config
        try:
            for name in names:
                for isa in ISAS:
                    capture_wall = None
                    if store is not None:
                        # Seed the store.  The capture's wall time is
                        # recorded as the row's breakdown (a sweep pays
                        # it once per fingerprint) but never counts
                        # toward the headline wall_seconds.
                        seeded = run_workload(name, isa, scale=scale,
                                              config=config, seed=seed,
                                              execution="capture",
                                              trace_store=store)
                        capture_wall = seeded.wall_seconds
                    best = None
                    for _ in range(repeats):
                        if store is not None:
                            run = run_workload(
                                name, isa, scale=scale, config=run_config,
                                seed=seed, execution="replay",
                                trace_store=store)
                        elif profile_dir is not None:
                            import cProfile

                            profiler = cProfile.Profile()
                            profiler.enable()
                            try:
                                run = run_workload(name, isa, scale=scale,
                                                   config=run_config,
                                                   seed=seed)
                            finally:
                                profiler.disable()
                            profiler.dump_stats(
                                os.path.join(profile_dir,
                                             f"{name}_{isa}.prof"))
                        else:
                            run = run_workload(name, isa, scale=scale,
                                               config=run_config, seed=seed)
                        if best is None or run.wall_seconds < best.wall_seconds:
                            best = run
                    assert best is not None
                    cell = BenchCell(
                        workload=name,
                        isa=isa,
                        verified=best.verified,
                        wall_seconds=best.wall_seconds,
                        cycles=best.cycles,
                        dynamic_instructions=best.dynamic_instructions,
                        peak_rss_kb=_peak_rss_kb(),
                        engine=engine,
                        capture_wall_seconds=capture_wall,
                        replay_wall_seconds=(best.wall_seconds
                                             if store is not None else None),
                    )
                    report.cells.append(cell)
                    if progress is not None:
                        progress(
                            f"bench {name}/{isa}[{engine}]: "
                            f"{cell.wall_seconds:.2f}s "
                            f"({cell.cycles_per_second:,.0f} sim cycles/s)")
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
    return report


def _resolve_bench_tree(against: str, root: str):
    """Materialize ``against`` as a source tree; returns (path, cleanup).

    ``against`` is either a directory that already holds a repro
    checkout (used as-is, no cleanup) or a git tree-ish, checked out
    into a scratch ``git worktree`` under a temp dir (cleanup detaches
    the worktree and removes the dir).
    """
    import shutil
    import subprocess
    import tempfile

    if os.path.isdir(against):
        tree = os.path.abspath(against)
        if not os.path.isdir(os.path.join(tree, "src", "repro")):
            raise BenchError(
                f"--against directory {against} has no src/repro tree")
        return tree, None
    tmp = tempfile.mkdtemp(prefix="repro-bench-against-")
    tree = os.path.join(tmp, "tree")
    try:
        subprocess.run(
            ["git", "-C", root, "worktree", "add", "--detach", tree, against],
            check=True, capture_output=True, text=True)
    except (subprocess.CalledProcessError, OSError) as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        detail = getattr(exc, "stderr", "") or str(exc)
        raise BenchError(
            f"cannot check out --against tree {against!r}: "
            f"{detail.strip()}") from exc

    def cleanup() -> None:
        subprocess.run(
            ["git", "-C", root, "worktree", "remove", "--force", tree],
            capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    return tree, cleanup


def _bench_subprocess(
    tree: str,
    output: str,
    workloads: Optional[Sequence[str]],
    scale: float,
    seed: int,
    cus: Optional[int],
    engines: Sequence[str],
    label: str,
) -> Dict[str, object]:
    """Run ``python -m repro bench`` from ``tree`` and parse its JSON.

    A subprocess per side is the only way to time two *trees* in one
    epoch: each side imports its own checkout via ``PYTHONPATH``, pays
    its own interpreter startup outside the timed region, and leaves no
    module-cache residue for the other side.
    """
    import subprocess

    cmd = [
        sys.executable, "-m", "repro", "bench",
        "--repeats", "1",
        "--engines", ",".join(engines),
        "--label", label,
        "--scale", repr(scale),
        "--seed", str(seed),
        "--output", output,
        "--quiet",
    ]
    if workloads:
        cmd += ["--workloads", ",".join(workloads)]
    if cus is not None:
        cmd += ["--cus", str(cus)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    proc = subprocess.run(cmd, cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(
            f"bench subprocess in {tree} failed "
            f"(exit {proc.returncode}):\n{proc.stderr.strip()}")
    try:
        with open(output) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(
            f"bench subprocess in {tree} wrote no readable report: "
            f"{exc}") from exc


def run_bench_against(
    against: str,
    rounds: int = 3,
    workloads: Optional[Sequence[str]] = None,
    scale: float = 0.5,
    seed: int = 7,
    cus: Optional[int] = None,
    label: str = DEFAULT_LABEL,
    threshold: float = 0.25,
    engines: Sequence[str] = ("scalar",),
    progress=None,
) -> BenchReport:
    """Paired same-epoch bench: this tree vs ``against``, interleaved.

    Container and host wall-clock drifts by double-digit percentages
    over minutes, so comparing a fresh run against a *committed*
    ``BENCH_*.json`` measures the weather, not the code.  This runs
    both sides **now**: ``against`` (a git tree-ish or a checkout
    directory) is materialized as a scratch worktree, then each of
    ``rounds`` rounds benches *both* trees back to back — alternating
    which side goes first, so neither systematically enjoys the warmer
    half of the epoch.  Each side keeps its per-cell **minimum** across
    rounds, and the final report embeds the baseline comparison
    (``wall_gate=True`` — a same-epoch baseline is enforceable) with
    the usual per-cell speedups, geomean, and cycle-drift check.

    Every side runs in a subprocess with ``PYTHONPATH`` pinned to its
    own ``src`` so the two trees never share a module cache.
    """
    if rounds < 1:
        raise BenchError(f"rounds must be >= 1, got {rounds}")
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    tree, cleanup = _resolve_bench_tree(against, root)
    import tempfile

    current_doc: Optional[Dict[str, object]] = None
    baseline_doc: Optional[Dict[str, object]] = None
    min_wall: Dict[Tuple[str, Tuple[str, str, str]], float] = {}
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-pair-") as tmp:
            for rnd in range(rounds):
                sides = [("current", root), ("against", tree)]
                if rnd % 2:
                    sides.reverse()
                for side, side_tree in sides:
                    out = os.path.join(tmp, f"{side}_{rnd}.json")
                    doc = _bench_subprocess(
                        tree=side_tree, output=out, workloads=workloads,
                        scale=scale, seed=seed, cus=cus, engines=engines,
                        label=(label if side == "current"
                               else f"against:{against}"))
                    for cell in doc["cells"]:
                        key = (side, (cell["workload"], cell["isa"],
                                      cell.get("engine", "scalar")))
                        wall = float(cell["wall_seconds"])
                        if key not in min_wall or wall < min_wall[key]:
                            min_wall[key] = wall
                    if side == "current":
                        current_doc = doc
                    else:
                        baseline_doc = doc
                    if progress is not None:
                        total = sum(float(c["wall_seconds"])
                                    for c in doc["cells"])
                        progress(f"round {rnd + 1}/{rounds} {side}: "
                                 f"{total:.2f}s total wall")
    finally:
        if cleanup is not None:
            cleanup()
    assert current_doc is not None and baseline_doc is not None
    # Fold the per-cell minima back into the last round's documents.
    for side, doc in (("current", current_doc), ("against", baseline_doc)):
        for cell in doc["cells"]:
            key = (side, (cell["workload"], cell["isa"],
                          cell.get("engine", "scalar")))
            cell["wall_seconds"] = min_wall[key]
    report = BenchReport(
        label=label, scale=scale, seed=seed, repeats=1,
        config_fingerprint=str(current_doc["config_fingerprint"]),
        created_unix=int(time.time()),
        rounds=rounds,
    )
    for cell in current_doc["cells"]:
        report.cells.append(BenchCell(
            workload=str(cell["workload"]),
            isa=str(cell["isa"]),
            verified=bool(cell["verified"]),
            wall_seconds=float(cell["wall_seconds"]),
            cycles=int(cell["cycles"]),
            dynamic_instructions=int(cell["dynamic_instructions"]),
            peak_rss_kb=int(cell.get("peak_rss_kb", 0)),
            engine=str(cell.get("engine", "scalar")),
        ))
    compare(report, baseline_doc, f"against:{against}",
            threshold=threshold, wall_gate=True)
    assert report.baseline is not None
    report.baseline["against"] = against
    report.baseline["interleaved_rounds"] = rounds
    return report


def bench_sweep(
    axis_spec: str,
    workloads: Sequence[str],
    isas: Optional[Sequence[str]] = None,
    scale: float = 0.5,
    seed: int = 7,
    config: Optional[GpuConfig] = None,
    jobs: int = 1,
    repeats: int = 1,
    progress=None,
    engine: str = "auto",
) -> Dict[str, object]:
    """Time one timing-only sweep twice — ``execution="execute"`` versus
    trace replay — and return the comparison as a report ``"sweep"`` section.

    ``engine`` is the cycle-engine request for the *replay* pass
    (``"auto"`` — the default — picks the vector engine on replayed
    cells whenever numpy is importable; ``"scalar"`` pins the reference
    path, which times the pre-vector replay subsystem).  The execute
    pass always runs the scalar reference engine, whatever is requested
    — that is the baseline being beaten.

    Both passes run the identical sweep spec with the result disk cache
    off and throwaway journal directories, so each pass simulates every
    cell.  The replay pass starts from an *empty* trace store: its wall
    time includes the one functional execution per workload x ISA that
    seeds the store, which is the honest end-to-end cost a user pays on
    a cold sweep.  The replay pass keeps ``verify_replay`` on, so the
    reported speedup also pays for the drift guard's re-execution.

    With ``repeats`` > 1, the execute/replay pass pair runs that many
    times and each side reports its *minimum* wall time (the standard
    best-of noise discipline; every replay repeat starts from a fresh
    cold store, so no repeat gets a warm-store advantage).  The
    statistical guards — per-cell identity and the in-sweep drift
    check — must hold on every repeat, not just the fastest one.
    """
    import shutil
    import tempfile

    from ..core.requests import SweepRequest
    from ..explore.space import Axis
    from ..explore.sweep import execute_sweep_request
    from .runner import ISAS, clear_suite_cache

    if repeats < 1:
        raise BenchError(f"sweep repeats must be >= 1, got {repeats}")
    config = config or paper_config()
    axis = Axis.parse(axis_spec)
    isa_list = tuple(isas) if isas else ISAS
    names = list(workloads)
    execute_wall = replay_wall = float("inf")
    replayed = None
    drifted = False
    drift_count = 0
    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as tmp:
        for rep in range(repeats):
            common = dict(
                axes=(axis,), config=config, workloads=names, isas=isa_list,
                scale=scale, seed=seed, jobs=jobs, use_disk_cache=False,
                sweeps_dir=os.path.join(tmp, f"sweeps{rep}"),
            )
            trace_dir = os.path.join(tmp, f"traces{rep}")
            clear_suite_cache()
            start = time.monotonic()
            executed = execute_sweep_request(
                SweepRequest(execution="execute", **common), progress)
            execute_wall = min(execute_wall, time.monotonic() - start)
            clear_suite_cache()
            start = time.monotonic()
            rep_res = execute_sweep_request(
                SweepRequest(execution="auto", trace_dir=trace_dir,
                             engine=engine or "", verify_replay=True,
                             **common), progress)
            wall = time.monotonic() - start
            for label, res in (("execute", executed), ("replay", rep_res)):
                if res.failed_points:
                    first = res.failed_points[0]
                    raise BenchError(
                        f"sweep bench {label} pass failed at point "
                        f"{first.point.point_id}: {first.error}")
            drifted = drifted or _sweep_stats_differ(executed, rep_res)
            drift_count += rep_res.replay_drift
            if replayed is None or wall < replay_wall:
                replay_wall, replayed = wall, rep_res
            shutil.rmtree(trace_dir, ignore_errors=True)
    return {
        "axis": axis.describe(),
        "points": len(replayed.points),
        "workloads": names,
        "isas": list(isa_list),
        "scale": scale,
        "seed": seed,
        "jobs": jobs,
        "repeats": repeats,
        "engine": engine,
        "execute_wall_seconds": round(execute_wall, 4),
        "replay_wall_seconds": round(replay_wall, 4),
        "speedup": round(execute_wall / max(replay_wall, 1e-9), 3),
        "captures": replayed.captures,
        "replays": replayed.replays,
        "verified_cell": replayed.verified_cell,
        "replay_drift": drift_count,
        "cells_identical": not drifted,
    }


def _sweep_stats_differ(executed: object, replayed: object) -> bool:
    """True when the two passes' statistics differ anywhere.

    Belt and braces on top of the in-sweep drift guard: compares every
    cell of both sweeps, not one sampled cell.
    """
    exec_points = executed.points  # type: ignore[attr-defined]
    replay_points = replayed.points  # type: ignore[attr-defined]
    if len(exec_points) != len(replay_points):
        return True
    for ep, rp in zip(exec_points, replay_points):
        if set(ep.runs) != set(rp.runs):
            return True
        for key, erun in ep.runs.items():
            rrun = rp.runs[key]
            if (erun.verified != rrun.verified
                    or erun.total.to_payload() != rrun.total.to_payload()
                    or [s.to_payload() for s in erun.per_dispatch]
                    != [s.to_payload() for s in rrun.per_dispatch]):
                return True
    return False


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


def load_report(path: str) -> Dict[str, object]:
    """Load and schema-check a ``BENCH_*.json`` document."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read bench report {path}: {exc}") from exc
    validate_schema(doc, source=path)
    return doc


def validate_schema(doc: object, source: str = "<doc>") -> None:
    """Raise BenchError unless ``doc`` is a well-formed bench report."""
    if not isinstance(doc, dict):
        raise BenchError(f"{source}: bench report must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise BenchError(
            f"{source}: schema {doc.get('schema')!r} != {SCHEMA!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise BenchError(f"{source}: bench report has no cells")
    for cell in cells:
        for key in ("workload", "isa", "wall_seconds", "cycles"):
            if key not in cell:
                raise BenchError(f"{source}: cell missing {key!r}: {cell}")
        if cell["wall_seconds"] <= 0:
            raise BenchError(
                f"{source}: non-positive wall_seconds in "
                f"{cell['workload']}/{cell['isa']}")
    totals = doc.get("totals")
    if not isinstance(totals, dict) or "geomean_wall_seconds" not in totals:
        raise BenchError(f"{source}: bench report missing totals.geomean_wall_seconds")


def compare(
    report: BenchReport,
    baseline_doc: Dict[str, object],
    baseline_path: str,
    threshold: float = 0.25,
    wall_gate: bool = False,
) -> Tuple[float, List[str]]:
    """Fold a baseline into ``report``; returns (geomean_speedup, regressions).

    ``speedup`` per cell is ``baseline_wall / current_wall`` (>1 = this
    tree is faster).  A cell regresses when its wall exceeds the
    baseline's by more than ``threshold`` (fractional, e.g. 0.25 = 25%).
    Cells present on only one side are reported but never regress.
    Cells are matched on (workload, isa, engine); baselines written
    before the engine knob existed default to ``"scalar"``, so old
    reports keep comparing against the reference path and engine rows
    new in this run are reported as new cells.
    Simulated-cycle drift is flagged loudly: a "speedup" that changed
    the statistics is a broken model, not a faster one.

    ``wall_gate`` records the caller's gating intent in the embedded
    baseline block: ``False`` (the default) means the baseline comes
    from a different measurement epoch and its wall-clock deltas are
    advisory — only cycle drift should fail the run; ``True`` means
    the baseline is same-epoch (e.g. from :func:`run_bench_against`)
    and wall regressions are enforceable.  The return value is the
    same either way — callers decide what to do with ``regressions``.
    """
    base_cells = {
        (c["workload"], c["isa"], c.get("engine", "scalar")): c
        for c in baseline_doc["cells"]  # type: ignore[index,union-attr]
    }
    compared: List[Dict[str, object]] = []
    speedups: List[float] = []
    regressions: List[str] = []
    cycle_drift: List[str] = []
    for cell in report.cells:
        base = base_cells.pop((cell.workload, cell.isa, cell.engine), None)
        if base is None:
            compared.append({"workload": cell.workload, "isa": cell.isa,
                             "engine": cell.engine,
                             "wall_seconds": None, "speedup": None,
                             "regression": False, "note": "new cell"})
            continue
        speedup = float(base["wall_seconds"]) / cell.wall_seconds
        regressed = cell.wall_seconds > float(base["wall_seconds"]) * (1.0 + threshold)
        entry: Dict[str, object] = {
            "workload": cell.workload, "isa": cell.isa,
            "engine": cell.engine,
            "wall_seconds": base["wall_seconds"],
            "speedup": round(speedup, 3),
            "regression": regressed,
        }
        if int(base.get("cycles", cell.cycles)) != cell.cycles:
            entry["cycle_drift"] = {"baseline": base.get("cycles"),
                                    "current": cell.cycles}
            cycle_drift.append(f"{cell.workload}/{cell.isa}[{cell.engine}]")
        compared.append(entry)
        speedups.append(speedup)
        if regressed:
            regressions.append(
                f"{cell.workload}/{cell.isa}[{cell.engine}]: "
                f"{cell.wall_seconds:.3f}s vs "
                f"baseline {float(base['wall_seconds']):.3f}s "
                f"(> {threshold:.0%} slower)")
    for (workload, isa, engine) in sorted(base_cells):
        base = base_cells[(workload, isa, engine)]
        compared.append({"workload": workload, "isa": isa, "engine": engine,
                         "wall_seconds": base["wall_seconds"],
                         "speedup": None, "regression": False,
                         "note": "cell missing from current run"})
    geomean_speedup = _geomean(speedups)
    report.baseline = {
        "path": os.path.basename(baseline_path),
        "label": baseline_doc.get("label"),
        "created_unix": baseline_doc.get("created_unix"),
        "config_fingerprint": baseline_doc.get("config_fingerprint"),
        "threshold": threshold,
        "wall_gate": wall_gate,
        "cells": compared,
        "geomean_speedup": round(geomean_speedup, 3),
        "regressions": regressions,
        "cycle_drift": cycle_drift,
    }
    return geomean_speedup, regressions


def write_report(report: BenchReport, path: str) -> None:
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def render_text(report: BenchReport) -> str:
    """Human-readable summary table for the CLI."""
    from ..common.tables import render_table

    base_cells: Dict[Tuple[str, str, str], Dict[str, object]] = {}
    if report.baseline is not None:
        base_cells = {
            (c["workload"], c["isa"], c.get("engine", "scalar")): c
            for c in report.baseline["cells"]  # type: ignore[index,union-attr]
        }
    rows = []
    for cell in report.cells:
        base = base_cells.get((cell.workload, cell.isa, cell.engine), {})
        speedup = base.get("speedup")
        rows.append([
            cell.workload, cell.isa, cell.engine,
            f"{cell.wall_seconds:.3f}",
            (f"{cell.capture_wall_seconds:.3f}"
             if cell.capture_wall_seconds is not None else "-"),
            (f"{cell.replay_wall_seconds:.3f}"
             if cell.replay_wall_seconds is not None else "-"),
            f"{cell.cycles_per_second:,.0f}",
            cell.cycles,
            f"{speedup:.2f}x" if speedup else "-",
            "REGRESSED" if base.get("regression") else
            ("yes" if cell.verified else "NO"),
        ])
    text = render_table(
        ["Workload", "ISA", "engine", "wall s", "capture s", "replay s",
         "sim cyc/s", "cycles", "speedup", "ok"],
        rows,
        title=f"repro bench [{report.label}] scale={report.scale:g} "
              f"repeats={report.repeats}",
    )
    lines = [text,
             f"total wall: {report.total_wall_seconds:.2f}s | "
             f"geomean cell: {report.geomean_wall_seconds:.3f}s"]
    if report.baseline is not None:
        lines.append(
            f"vs {report.baseline['path']}: geomean speedup "
            f"{report.baseline['geomean_speedup']}x, "
            f"{len(report.baseline['regressions'])} regression(s)")  # type: ignore[arg-type]
    if report.sweep is not None:
        sw = report.sweep
        lines.append(
            f"sweep replay [{sw['axis']}]: {sw['points']} points, "
            f"execute {sw['execute_wall_seconds']}s vs replay "
            f"{sw['replay_wall_seconds']}s = {sw['speedup']}x "
            f"({sw['captures']} capture(s), {sw['replays']} replay(s), "
            f"drift={sw['replay_drift']})")
    return "\n".join(lines)
