"""Eviction-free cache equivalence: derive a replay from one already
simulated when a proof says the two cannot differ.

Once a cache has run a whole trace without evicting, an access hits iff
its line was filled earlier — a property of the access sequence, not of
the geometry.  A replay of the same trace under a configuration that
differs *only* in the ``size_bytes``/``associativity`` of such
eviction-free cache families, and whose new geometry still holds every
resident line set at once (:func:`repro.timing.caches.admits`, a per-set
check), therefore evolves the same hits, misses, latencies and cycles by
induction over the access sequence.  EXPERIMENTS.md ("Eviction-free
equivalence") has the statement, the proof sketch and the modulo-indexing
counterexample that makes "bigger" alone insufficient.

:func:`~repro.harness.runner.run_workload` is the only caller:
:func:`derive` is a pre-check in front of its one replay branch and
:func:`file_witness` runs after an untraced replay simulated.  Witnesses
hang off the trace store's memoized :class:`~repro.timing.replay.ExecTrace`
(``trace.witnesses``), so they are evicted, invalidated and cleared with
it and do not exist under ``REPRO_TRACE_MEMO=0``.  A witness keeps a
private copy of the run it simulated, and a derivation answers with a
copy of that (:meth:`~repro.harness.runner.WorkloadRun.copy`), so no
payload is encoded or decoded on either side.  Each lookup is a
``result.derive`` host span (:mod:`repro.obs.host`) carrying its outcome,
each filed witness a ``result.witness`` one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..common.config import CacheConfig, GpuConfig
from ..obs.host import span
from ..timing.caches import MemorySystem, admits
from ..timing.replay import ExecTrace

if TYPE_CHECKING:
    from .runner import WorkloadRun

#: Witnesses kept per trace, oldest dropped first.  A size sweep files
#: one per evicting point plus one for the whole eviction-free plateau;
#: a resident daemon sees an unbounded stream of configs.
MAX_WITNESSES = 8

_GEOMETRY = ("size_bytes", "associativity")

@dataclass(frozen=True)
class Witness:
    """One simulated replay: what it ran under, what it left resident in
    each eviction-free cache family, and what it reported."""

    config: GpuConfig
    #: GpuConfig cache field -> resident lines of each instance.
    resident: Dict[str, List[np.ndarray]]
    #: A copy of the simulated run, never handed out: every derivation
    #: answers with its own :meth:`~repro.harness.runner.WorkloadRun.copy`.
    run: "WorkloadRun"

    def free_families(self, config: GpuConfig) -> Optional[List[str]]:
        """The cache families whose geometry ``config`` changes, when
        those are eviction-free here and nothing else differs; else
        ``None`` (this witness says nothing about ``config``)."""
        changed = []
        for f in fields(GpuConfig):
            mine, theirs = getattr(self.config, f.name), getattr(config, f.name)
            if mine == theirs:
                continue
            if f.name not in self.resident or not _only_geometry(mine, theirs):
                return None
            changed.append(f.name)
        return changed


def _only_geometry(a: CacheConfig, b: CacheConfig) -> bool:
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in fields(CacheConfig) if f.name not in _GEOMETRY)


def derive(trace: ExecTrace, config: GpuConfig
           ) -> "Tuple[Optional[WorkloadRun], str]":
    """The witnessed run a replay of ``trace`` under ``config`` must
    equal, when a filed witness proves it (``None`` means simulate; the
    caller copies it, never hands it out), and the outcome: ``derived``,
    ``refused`` (a comparable witness did not admit the new geometry) or
    ``none``."""
    outcome = "none"
    for witness in tuple(trace.witnesses or ()):
        changed = witness.free_families(config)
        if changed is None:
            continue
        if all(admits(lines, getattr(config, family))
               for family in changed for lines in witness.resident[family]):
            return witness.run, "derived"
        outcome = "refused"
    return None, outcome


def file_witness(trace: ExecTrace, config: GpuConfig, memsys: MemorySystem,
                 run: "WorkloadRun") -> None:
    """Remember (a copy of) the ``run`` a replay just simulated from
    ``trace`` under ``config``, ``memsys`` being the hierarchy it left
    behind (no-op for a trace the store does not memoize)."""
    witnesses = trace.witnesses
    if witnesses is None:
        return
    with span("result.witness"):
        witnesses.append(Witness(config, memsys.witness(), run.copy()))
        del witnesses[:-MAX_WITNESSES]
