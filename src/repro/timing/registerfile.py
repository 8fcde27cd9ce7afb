"""Vector register file model: bank conflicts and value uniqueness
(paper Figures 6 and 10).

* **Bank conflicts** — operand slots map to ``slot % num_banks``; the
  gathers of concurrently executing instructions that hit the same bank
  serialize and count as conflicts.  HSAIL places every operand in the
  VRF (no SRF), so it suffers roughly 3x the conflicts of GCN3 (paper
  §V.B).  The one VRF statistic that depends on *when* instructions
  issue (``timing``-class), so the one the CU accounts as it issues
  (:class:`VrfModel`), the same way in traced and untraced runs.
* **Value uniqueness** — |unique lane values| / |active lanes| over all
  VRF reads and writes (paper §V.D).  It needs the wavefront's *actual*
  register values, so the functional pass samples it
  (:func:`unique_counts`) into the trace.

Uniqueness and reuse distance (Figure 7) are trace-determined: they
reach the statistics through the trace's fold
(:class:`repro.timing.vector.FoldArtifact`), not through this model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..common.stats import StatSet
from ..obs.metrics import VRF_BANK_CONFLICTS
from ..obs.trace import TraceBus


class VrfModel:
    """Per-CU VRF bank-conflict state."""

    __slots__ = ("stats", "trace", "cu_id", "_bank_end")

    def __init__(self, num_banks: int, stats: StatSet,
                 trace: Optional[TraceBus] = None, cu_id: int = -1) -> None:
        self.stats = stats
        #: where ``bank_conflict`` events go; None unless ``trace`` wants
        #: ``vrf`` events.
        self.trace = trace if trace is not None and trace.wants_vrf else None
        self.cu_id = cu_id
        #: Per-bank end of the covered gather window.  Issue times are
        #: monotonic per CU, so the union of all gather windows at or
        #: beyond ``now`` is one contiguous interval per bank — a single
        #: integer replaces a per-cycle map.
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
        """Record one instruction's operand gathers and count the
        conflicts they cause.

        ``banks`` are the distinct banks its source slots live in (slot
        ``s`` is in bank ``s % num_banks``; the CU reads them from the
        kernel's predecoded :func:`~repro.timing.predecode.read_banks`
        table).  A 64-lane operand is read 16 lanes per cycle, so each
        bank stays occupied for the instruction's full gather window.

        Every earlier window starts at or before ``now``, so a cycle of
        this window conflicts exactly when it was already covered: the
        overlap with ``[now, bank_end)`` is the bank's conflict count,
        one per cycle per extra gather.  A traced run gets one
        ``bank_conflict`` event per conflicting gather: its count, over
        the span of cycles it conflicts in.
        """
        if duration < 1:
            duration = 1
        ends = self._bank_end
        end = now + duration
        conflicts = 0
        span = now
        for bank in banks:
            covered = ends[bank]
            if covered > now:
                stop = covered if covered < end else end
                conflicts += stop - now
                if stop > span:
                    span = stop
            if end > covered:
                ends[bank] = end
        if conflicts:
            self.stats.counters[VRF_BANK_CONFLICTS.name] += conflicts
            if self.trace is not None:
                self.trace.emit("vrf", "bank_conflict", now, dur=span - now,
                                cu=self.cu_id, args={"conflicts": conflicts})


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


def unique_rows(rows: np.ndarray, masks: Optional[np.ndarray],
                axis: int = -1) -> np.ndarray:
    """|unique values| of each row of ``rows`` -- the values along
    ``axis`` -- over the lanes the same row of ``masks`` selects (every
    mask row selects at least one lane; None selects every lane).

    Unselected lanes take the row's first selected value, so they add
    nothing; one row-wise sort (lanes made contiguous first) then puts
    equal values side by side and the count is one plus the number of
    value changes.
    """
    rows = rows.swapaxes(axis, -1)
    if masks is None or masks.all():
        filled = np.array(rows, order="C")
    else:
        masks = masks.swapaxes(axis, -1)
        first = masks.argmax(axis=-1)
        filled = np.ascontiguousarray(np.where(
            masks, rows, np.take_along_axis(rows, first[..., None], axis=-1)))
    filled.sort(axis=-1)
    return 1 + (filled[..., 1:] != filled[..., :-1]).sum(axis=-1)