"""Cache and DRAM models.

The hierarchy matches the paper's Table 4: a private L1 data cache per
CU; an L1 instruction cache and a scalar data cache shared per 4-CU
cluster; a unified L2 per cluster; and a channel-parallel DDR3-style DRAM
behind everything.  Caches are write-through/no-write-allocate, LRU.

Latency is computed synchronously (hit/miss walk) and the caller turns it
into a completion event; bandwidth contention is modeled with per-resource
next-free cycles (one request per ``occupancy`` cycles).

Everything here is timing: which lines a request touches is recorded in
the trace and counted by its fold (``vmem_requests``, ``vmem_lines``,
``smem_requests``); this model decides only when they complete and what
the caches hold.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..common.config import CacheConfig, DramConfig
from ..common.stats import StatSet
from ..obs.metrics import DRAM_ACCESSES, IFETCH_MISSES, IFETCH_REQUESTS
from ..obs.trace import TraceBus


class Cache:
    """A set-associative (or fully-associative) LRU cache of line tags."""

    __slots__ = (
        "name", "num_sets", "assoc", "hit_latency", "_sets",
        "hits", "misses", "evictions", "next_free", "occupancy",
        "hits_counter", "misses_counter",
    )

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.associativity or config.num_lines
        self.hit_latency = config.hit_latency  # hoisted off the hot path
        # One OrderedDict per set: line -> True, in LRU order.
        self._sets: List["OrderedDict[int, bool]"] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        #: lines displaced since construction.  Unlike hits/misses this
        #: is never exported or reset per dispatch: a cache whose count
        #: is still 0 after a run behaved exactly as an infinite one
        #: (see MemorySystem.witness).
        self.evictions = 0
        self.next_free = 0  # cycle when the cache port is free
        self.occupancy = 1  # cycles a request holds the port
        # Instance counter names, validated by the registry's cache
        # families (repro.obs.metrics).
        self.hits_counter = f"{name}_hits"
        self.misses_counter = f"{name}_misses"

    def insert(self, lru: "OrderedDict[int, bool]", line: int) -> None:
        """Add ``line``, absent from its set ``lru``, evicting the set's
        least recently used line when it is full: the one place a cache
        displaces a line, and so the one place ``evictions`` counts."""
        if len(lru) >= self.assoc:
            lru.popitem(last=False)
            self.evictions += 1
        lru[line] = True

    def export_stats(self, stats: StatSet) -> None:
        stats.bump(self.hits_counter, self.hits)
        stats.bump(self.misses_counter, self.misses)

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0


def admits(resident: "Sequence[int]", geometry: CacheConfig) -> bool:
    """True when a cache of ``geometry`` holds every line of ``resident``
    at once: no set receives more lines than it has ways.

    Capacity alone does not decide this under modulo indexing — lines
    0, 18, 36, 54, 72 fit 14 sets x 4 ways but all land in set 0 of
    18 sets x 4 ways — so the count is per set.
    """
    lines = np.asarray(resident, dtype=np.int64)
    fullest = np.bincount(lines % geometry.num_sets, minlength=1).max()
    return int(fullest) <= (geometry.associativity or geometry.num_lines)


class Dram:
    """Channel-parallel fixed-latency DRAM."""

    __slots__ = ("channels", "cycles_per_burst", "base_latency",
                 "channel_next_free", "accesses")

    def __init__(self, config: DramConfig) -> None:
        self.channels = config.channels
        self.cycles_per_burst = config.cycles_per_burst
        self.base_latency = config.base_latency_cycles
        self.channel_next_free = [0] * config.channels
        self.accesses = 0

    def access(self, line: int, now: int) -> int:
        """Completion cycle for one line access."""
        channel = line % self.channels
        nf = self.channel_next_free[channel]
        start = nf if nf > now else now
        self.channel_next_free[channel] = start + self.cycles_per_burst
        self.accesses += 1
        return start + self.base_latency


class MemorySystem:
    """The full hierarchy: computes completion cycles for line requests.

    One path serves traced and untraced runs alike: an event-traced run
    (a ``trace`` that wants ``cache`` events) walks the same loops and
    only adds the emission.  The per-dispatch counters (cache hits and
    misses, instruction fetches, DRAM lines) are all timing-class; what
    the trace determines about memory requests comes from its fold.
    """

    def __init__(self, gpu_config, trace: Optional[TraceBus] = None) -> None:
        self.config = gpu_config
        #: where cache outcomes are published; None unless ``trace``
        #: wants ``cache`` events, so every emit site is one ``is not
        #: None`` check.
        self.trace = trace if trace is not None and trace.wants_cache else None
        self.l1d: List[Cache] = [
            Cache(f"l1d{cu}", gpu_config.l1d) for cu in range(gpu_config.num_cus)
        ]
        n_clusters = gpu_config.num_clusters
        self.l1i: List[Cache] = [Cache(f"l1i{c}", gpu_config.l1i) for c in range(n_clusters)]
        self.scalar: List[Cache] = [
            Cache(f"sc{c}", gpu_config.scalar_cache) for c in range(n_clusters)
        ]
        self.l2: List[Cache] = [Cache(f"l2_{c}", gpu_config.l2) for c in range(n_clusters)]
        for l2 in self.l2:
            l2.occupancy = 2
        self.dram = Dram(gpu_config.dram)
        # CU -> cluster is fixed at construction; every memory access
        # resolves it, so one list index replaces the div/min per call.
        self._cluster_of: List[int] = [
            min(cu // gpu_config.cus_per_cluster, n_clusters - 1)
            for cu in range(gpu_config.num_cus)
        ]

    def _note(self, cache: Cache, op: str, line: int, now: int, cu: int,
              is_write: bool = False) -> None:
        """Publish one cache outcome; callers pre-check ``self.trace``."""
        args: dict = {"line": line, "op": op}
        if is_write:
            args["write"] = True
        self.trace.emit("cache", cache.name, now, cu=cu, args=args)

    def _read(self, cache: Cache, cu_id: int, lines: "Sequence[int]",
              now: int) -> int:
        """Completion cycle of a read of ``lines`` through the first-level
        ``cache``: each line hits, or misses through the cluster's L2
        (itself filled from DRAM on a miss) and is filled.

        Line ``k`` takes the port slot ``max(next_free, now) +
        k * occupancy`` — every slot starts at or after ``now`` — so the
        max resolves once and the loop carries the slot locally.
        """
        l2 = self.l2[self._cluster_of[cu_id]]
        tracing = self.trace is not None
        sets = cache._sets
        num_sets = cache.num_sets
        hit_latency = cache.hit_latency
        occupancy = cache.occupancy
        nf = cache.next_free
        start = nf if nf > now else now
        worst = now + hit_latency
        hits = 0
        for line in lines:
            lru = sets[line % num_sets]
            if line in lru:
                lru.move_to_end(line)
                hits += 1
                if tracing:
                    self._note(cache, "hit", line, start, cu_id)
                done = start + hit_latency
            else:
                cache.misses += 1
                if tracing:
                    self._note(cache, "miss", line, start, cu_id)
                start2 = start + hit_latency
                if l2.next_free > start2:
                    start2 = l2.next_free
                l2.next_free = start2 + l2.occupancy
                lru2 = l2._sets[line % l2.num_sets]
                if line in lru2:
                    lru2.move_to_end(line)
                    l2.hits += 1
                    if tracing:
                        self._note(l2, "hit", line, start2, cu_id)
                    done = start2 + l2.hit_latency
                else:
                    l2.misses += 1
                    done = self.dram.access(line, start2 + l2.hit_latency)
                    l2.insert(lru2, line)
                    if tracing:
                        self._note(l2, "miss", line, start2, cu_id)
                        self._note(l2, "fill", line, done, cu_id)
                cache.insert(lru, line)
                if tracing:
                    self._note(cache, "fill", line, done, cu_id)
            if done > worst:
                worst = done
            start += occupancy
        cache.hits += hits
        if lines:
            cache.next_free = start
        return worst

    def vector_access(self, cu_id: int, lines: List[int], is_write: bool, now: int) -> int:
        """Completion cycle for a coalesced vector memory request."""
        l1 = self.l1d[cu_id]
        if not is_write:
            return self._read(l1, cu_id, lines, now)
        # Write-through, no-write-allocate: the L1 is updated on presence;
        # every line is written into the L2 (allocating) and charges its
        # DRAM channel for bandwidth accounting only, so the requester
        # waits for the L2 alone.  L1 port slots as in _read; the L2 port
        # is carried locally too (nothing else touches it while this
        # runs).  Every store line takes this loop, hence the hoisting.
        tracing = self.trace is not None
        sets = l1._sets
        num_sets = l1.num_sets
        occupancy = l1.occupancy
        l2 = self.l2[self._cluster_of[cu_id]]
        l2_sets = l2._sets
        l2_num_sets = l2.num_sets
        l2_occ = l2.occupancy
        l2_hl = l2.hit_latency
        l2_nf = l2.next_free
        dram = self.dram
        channels = dram.channels
        channel_nf = dram.channel_next_free
        burst = dram.cycles_per_burst
        nf = l1.next_free
        start = nf if nf > now else now
        worst = now + l1.hit_latency
        hits = 0
        for line in lines:
            lru = sets[line % num_sets]
            if line in lru:
                lru.move_to_end(line)
                hits += 1
                if tracing:
                    self._note(l1, "hit", line, start, cu_id, is_write=True)
            start2 = l2_nf if l2_nf > start else start
            l2_nf = start2 + l2_occ
            lru2 = l2_sets[line % l2_num_sets]
            if line in lru2:
                lru2.move_to_end(line)
            else:
                l2.insert(lru2, line)
            channel = line % channels
            cnf = channel_nf[channel]
            channel_nf[channel] = (cnf if cnf > start2 else start2) + burst
            if tracing:
                self._note(l2, "fill", line, start2, cu_id, is_write=True)
            done = start2 + l2_hl
            if done > worst:
                worst = done
            start += occupancy
        l2.next_free = l2_nf
        dram.accesses += len(lines)
        l1.hits += hits
        if lines:
            l1.next_free = start
        return worst

    def scalar_access(self, cu_id: int, lines: List[int], now: int) -> int:
        """Completion cycle for an s_load through the scalar cache."""
        return self._read(self.scalar[self._cluster_of[cu_id]], cu_id, lines,
                          now)

    def ifetch(self, cu_id: int, line: int, now: int) -> int:
        """Completion cycle for an instruction fetch."""
        return self._read(self.l1i[self._cluster_of[cu_id]], cu_id, (line,),
                          now)

    def export_stats(self, stats: StatSet) -> None:
        """Bump this dispatch's counters into ``stats`` and start the
        next dispatch's from zero.  The L1I serves instruction fetches
        only, so its hits and misses are the fetch counters."""
        fetches = sum(cache.hits + cache.misses for cache in self.l1i)
        fetch_misses = sum(cache.misses for cache in self.l1i)
        if fetches:
            stats.bump(IFETCH_REQUESTS, fetches)
        if fetch_misses:
            stats.bump(IFETCH_MISSES, fetch_misses)
        for group in (self.l1d, self.l1i, self.scalar, self.l2):
            for cache in group:
                cache.export_stats(stats)
                cache.reset_counters()
        stats.bump(DRAM_ACCESSES, self.dram.accesses)
        self.dram.accesses = 0

    def witness(self) -> "Dict[str, List[np.ndarray]]":
        """The resident lines of every instance of each cache family
        that has evicted nothing so far, keyed by the family's
        :class:`GpuConfig` field.

        In such a cache an access hits iff its line was filled earlier,
        whatever the geometry; so the run that produced this state
        repeats bit for bit under any geometry of that family that
        :func:`admits` each of these sets (EXPERIMENTS.md, "Eviction-free
        equivalence").  A family with one evicting instance is left out.
        """
        families = {"l1d": self.l1d, "l1i": self.l1i,
                    "scalar_cache": self.scalar, "l2": self.l2}
        return {
            field: [np.fromiter((line for lru in cache._sets for line in lru),
                                dtype=np.int64) for cache in caches]
            for field, caches in families.items()
            if not any(cache.evictions for cache in caches)
        }
