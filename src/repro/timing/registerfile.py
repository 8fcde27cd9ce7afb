"""Vector register file model: bank conflicts and value uniqueness
(paper Figures 6 and 10).

* **Bank conflicts** — operand slots map to ``slot % num_banks``; two
  operands of one instruction hitting the same bank serialize and count
  as conflicts.  HSAIL places every operand in the VRF (no SRF), so it
  suffers roughly 3x the conflicts of GCN3 (paper §V.B).  The one VRF
  statistic that depends on *when* instructions issue, so the one the
  CU accounts as it issues (:class:`VrfModel`).
* **Value uniqueness** — |unique lane values| / |active lanes| over all
  VRF reads and writes (paper §V.D).  It needs the wavefront's *actual*
  register values, so the functional pass samples it
  (:func:`unique_counts`) into the trace.

Uniqueness and reuse distance (Figure 7) are trace-determined: they
reach the statistics through the trace's fold
(:class:`repro.timing.vector.FoldArtifact`), not through this model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..common.stats import StatSet
from ..obs.metrics import VRF_BANK_CONFLICTS
from ..obs.trace import TraceBus


class VrfModel:
    """Per-CU VRF bank-conflict state."""

    __slots__ = ("num_banks", "stats", "trace", "cu_id", "_pending",
                 "_min_cycle", "emits_vrf", "_bank_end")

    def __init__(self, num_banks: int, stats: StatSet,
                 trace: Optional[TraceBus] = None, cu_id: int = -1) -> None:
        self.num_banks = num_banks
        self.stats = stats
        self.trace = trace
        self.cu_id = cu_id
        #: Not-yet-finalized operand gathers.  Traced runs key it
        #: cycle -> {bank -> reads}; the untraced fast path keys it flat
        #: (cycle * num_banks + bank) -> reads.
        self._pending: Dict[int, object] = {}
        #: earliest pending cycle, so :meth:`collect` (called every CU
        #: cycle when tracing) can early-out without walking the map.
        self._min_cycle = 1 << 62
        #: With per-cycle trace emission off, conflicts are counted
        #: incrementally in :meth:`note_access` (the total is a sum over
        #: cycles, so accumulation order cannot change it) and the CU
        #: skips the per-cycle :meth:`collect` sweep entirely.
        self.emits_vrf = trace is not None and trace.wants_vrf
        #: Untraced fast path: per-bank end of the covered gather window.
        #: Issue times are monotonic per CU, so the union of all gather
        #: windows at or beyond ``now`` is one contiguous interval per
        #: bank — a single integer replaces the per-cycle map.
        self._bank_end = [0] * num_banks

    # -- bank conflicts ----------------------------------------------------
    #
    # The VRF is banked, with one read port per bank per cycle.  An
    # instruction's operand reads are gathered over its occupancy window
    # (the operand-collector pipeline), so a single instruction does not
    # conflict with itself; conflicts arise between the *concurrently
    # executing* instructions of co-resident wavefronts.  HSAIL suffers
    # more because every operand (including the base addresses and
    # predicates GCN3 keeps in the SRF) reads the VRF.

    def note_access(self, banks: Sequence[int], now: int,
                    duration: int) -> None:
        """Record one instruction's operand gathers.

        ``banks`` are the distinct banks its source slots live in (slot
        ``s`` is in bank ``s % num_banks``; the CU reads them from the
        kernel's predecoded :func:`~repro.timing.predecode.read_banks`
        table).  A 64-lane operand is read 16 lanes per cycle, so each
        bank stays occupied for the instruction's full gather window.
        """
        if not banks:
            return
        counts = self._pending
        if duration < 1:
            duration = 1
        if self.emits_vrf:
            # Exact per-cycle bookkeeping; collect() emits trace events.
            if now < self._min_cycle:
                self._min_cycle = now
            for cycle in range(now, now + duration):
                per_cycle = counts.setdefault(cycle, {})
                for bank in banks:
                    per_cycle[bank] = per_cycle.get(bank, 0) + 1
            return
        # Fast path: issue times are monotonic per CU, so the union of
        # earlier gather windows restricted to ``[now, inf)`` is one
        # contiguous interval per bank (every earlier window starts at or
        # before ``now``).  A cycle conflicts exactly when it was already
        # covered before this gather — its per-cycle count goes from
        # ``n >= 1`` to ``n + 1``, adding one conflict, the same
        # (count-1)-per-cycle total collect() would produce — so the
        # overlap with ``[now, bank_end)`` IS the conflict count and one
        # end marker per bank replaces the whole per-cycle map.
        ends = self._bank_end
        end = now + duration
        conflicts = 0
        for bank in banks:
            covered = ends[bank]
            if covered > now:
                conflicts += (covered if covered < end else end) - now
            if end > covered:
                ends[bank] = end
        if conflicts:
            self.stats.counters[VRF_BANK_CONFLICTS.name] += conflicts

    def collect(self, now: int) -> None:
        """Fold finished cycles into the conflict counter (tracing path).

        With trace emission off the counting already happened in
        :meth:`note_access`, so this only prunes the finished cycles.
        """
        if self._min_cycle >= now:
            return
        pending = self._pending
        if not self.emits_vrf:
            return  # fast path keeps no per-cycle state to fold
        done = [c for c in pending if c < now]
        trace = self.trace
        for cycle in done:
            per_cycle = pending.pop(cycle)
            conflicts = sum(n - 1 for n in per_cycle.values() if n > 1)
            if conflicts:
                self.stats.bump(VRF_BANK_CONFLICTS, conflicts)
                if trace is not None and trace.wants_vrf:
                    trace.emit("vrf", "bank_conflict", cycle, cu=self.cu_id,
                               args={"conflicts": conflicts})
        self._min_cycle = min(pending) if pending else 1 << 62

    def flush(self) -> None:
        if self.emits_vrf:
            self.collect(1 << 62)
        else:
            self._bank_end = [0] * self.num_banks
            self._min_cycle = 1 << 62


def unique_counts(regs: np.ndarray, slots: Sequence[int], mask: np.ndarray,
                  active: int) -> List[int]:
    """|unique lane values| of each VRF slot in ``slots`` under ``mask``
    (whose popcount is ``active``); empty when no lane is active.

    The definition of one sampled probe, one slot at a time; the
    functional pass counts its probes in batches with
    :func:`unique_rows`, which must agree with this exactly.
    """
    if not active:
        return []
    # With every lane active the boolean gather is the identity; skip
    # the fancy-index copy and read the row directly.  len(set(...))
    # over the Python values matches np.unique's count (same ==-based
    # dedup) without the O(n log n) sort.
    full = active == mask.shape[0]
    return [len(set((regs[slot] if full else regs[slot][mask]).tolist()))
            for slot in slots]


def unique_rows(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """|unique values| of each row of ``rows`` over the lanes the same
    row of ``masks`` selects (every mask row selects at least one lane).

    Unselected lanes take the row's first selected value, so they add
    nothing; one row-wise sort then puts equal values side by side and
    the count is one plus the number of value changes.
    """
    first = masks.argmax(axis=1)
    filled = np.where(masks, rows, rows[np.arange(len(rows)), first][:, None])
    filled.sort(axis=1)
    return 1 + np.count_nonzero(filled[:, 1:] != filled[:, :-1], axis=1)
