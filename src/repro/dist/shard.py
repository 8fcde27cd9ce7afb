"""Shard planning: a :class:`SweepRequest` decomposed into
content-addressed units of distributable work.

A shard is one trace group of the sweep ledger's live cells
(:func:`~repro.harness.parallel.trace_groups` — the grouping the
single-host sweep phases on and the daemon's scheduler batches on),
so each shard keeps the capture-once-replay-everywhere economics of a
single-host sweep *within itself*: whichever worker leases it captures
the functional trace once and replays every other cell, and a stolen
or re-leased shard replays the stored trace instead of recapturing.

Shard ids are content hashes over (sweep id, trace fingerprint, cell
keys), so the same spec shards identically on every coordinator and a
shard split off by work-stealing gets its own honest identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from ..core.requests import ShardCell, ShardRequest
from ..explore.sweep import SweepLedger
from ..harness.parallel import Job, trace_groups


def shard_id_for(sweep_id: str, trace_fp: str,
                 cells: Sequence[ShardCell]) -> str:
    """Deterministic shard identity: same sweep + same cell set -> same id."""
    canonical = json.dumps(
        {
            "sweep": sweep_id,
            "trace": trace_fp,
            "cells": [cell.key for cell in cells],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass
class ShardState:
    """Coordinator-private mutable view of one shard: the frozen wire
    request plus which cells are still outstanding and how many leases
    have already died under it."""

    request: ShardRequest
    #: cell key -> cell, insertion-ordered; report/steal remove entries.
    remaining: "Dict[str, ShardCell]" = field(default_factory=dict)
    attempts: int = 0

    @classmethod
    def from_request(cls, request: ShardRequest) -> "ShardState":
        return cls(request=request,
                   remaining={cell.key: cell for cell in request.cells})

    @property
    def shard_id(self) -> str:
        return self.request.shard_id

    @property
    def trace_fp(self) -> str:
        return self.request.trace_fp

    def granted_request(self) -> ShardRequest:
        """The wire request covering only the outstanding cells (already
        completed cells are subtracted, so a re-lease after an expiry
        never resimulates journaled work)."""
        cells = tuple(self.remaining.values())
        if len(cells) == len(self.request.cells):
            return self.request
        return replace(self.request, cells=cells)


def group_shards(ledger: SweepLedger,
                 cells: Sequence[Job]) -> List[ShardRequest]:
    """The ledger's live ``cells``, one :class:`ShardRequest` per trace
    group (:func:`~repro.harness.parallel.trace_groups`), in the order
    the groups first appear.  A large shard is not cut here: an idle
    worker steals half of it once its capture is stored (see
    :meth:`~repro.dist.Coordinator.lease`)."""
    sweep = ledger.results
    shards: List[ShardRequest] = []
    for fp, jobs in trace_groups(cells).items():
        members = tuple(
            ShardCell(point=job.point, workload=job.workload, isa=job.isa,
                      overrides=ledger.point(job.point).overrides)
            for job in jobs)
        shards.append(ShardRequest(
            shard_id=shard_id_for(sweep.sweep_id, fp, members),
            sweep_id=sweep.sweep_id,
            trace_fp=fp,
            cells=members,
            scale=sweep.scale,
            seed=sweep.seed,
            config=sweep.base,
            execution=ledger.cell_mode,
        ))
    return shards


__all__ = [
    "ShardState",
    "group_shards",
    "shard_id_for",
]
