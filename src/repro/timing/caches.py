"""Cache and DRAM models.

The hierarchy matches the paper's Table 4: a private L1 data cache per
CU; an L1 instruction cache and a scalar data cache shared per 4-CU
cluster; a unified L2 per cluster; and a channel-parallel DDR3-style DRAM
behind everything.  Caches are write-through/no-write-allocate, LRU.

Latency is computed synchronously (hit/miss walk) and the caller turns it
into a completion event; bandwidth contention is modeled with per-resource
next-free cycles (one request per ``occupancy`` cycles).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..common.config import CacheConfig, DramConfig
from ..common.stats import StatSet
from ..obs.metrics import (
    DRAM_ACCESSES,
    IFETCH_MISSES,
    IFETCH_REQUESTS,
    SMEM_REQUESTS,
    VMEM_LINES,
    VMEM_REQUESTS,
)
from ..obs.trace import TraceBus


class Cache:
    """A set-associative (or fully-associative) LRU cache of line tags."""

    __slots__ = (
        "name", "config", "num_sets", "assoc", "hit_latency", "_sets",
        "hits", "misses", "evictions", "next_free", "occupancy",
        "hits_counter", "misses_counter",
    )

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
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

    def _set_of(self, line: int) -> "OrderedDict[int, bool]":
        return self._sets[line % self.num_sets]

    def lookup(self, line: int) -> bool:
        """True on hit; updates LRU."""
        s = self._set_of(line)
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line: int) -> None:
        s = self._set_of(line)
        if line in s:
            s.move_to_end(line)
            return
        if len(s) >= self.assoc:
            s.popitem(last=False)
            self.evictions += 1
        s[line] = True

    def contains(self, line: int) -> bool:
        return line in self._set_of(line)

    def port_delay(self, now: int) -> int:
        """Queueing delay for the cache port; advances the reservation."""
        start = max(now, self.next_free)
        self.next_free = start + self.occupancy
        return start - now

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

    __slots__ = ("config", "channels", "cycles_per_burst", "base_latency",
                 "channel_next_free", "accesses")

    def __init__(self, config: DramConfig) -> None:
        self.config = config
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
    """The full hierarchy: computes completion cycles for line requests."""

    def __init__(self, gpu_config, stats: Optional[StatSet] = None) -> None:
        self.config = gpu_config
        self.stats = stats if stats is not None else StatSet()
        #: trace bus installed by the owning Gpu; None = no tracing.
        self.trace: Optional[TraceBus] = None
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
        """Publish one cache outcome; callers pre-check ``wants_cache``."""
        args: dict = {"line": line, "op": op}
        if is_write:
            args["write"] = True
        self.trace.emit("cache", cache.name, now, cu=cu, args=args)

    def _through_l2(self, cluster: int, line: int, now: int, is_write: bool,
                    cu: int = -1) -> int:
        """Completion cycle of a request that reached the L2.

        The port/LRU/DRAM bookkeeping is inlined (rather than going through
        ``Cache.port_delay``/``lookup``/``fill``) because this runs once per
        line of every L1 miss and every write-through; the inlined form
        evolves exactly the same reservation and LRU state.
        """
        l2 = self.l2[cluster]
        nf = l2.next_free
        start = nf if nf > now else now
        l2.next_free = start + l2.occupancy
        tracing = self.trace is not None and self.trace.wants_cache
        lru = l2._sets[line % l2.num_sets]
        if is_write:
            # Write-through: latency hidden from the requester; charge DRAM
            # channel occupancy for bandwidth accounting only.
            if line in lru:
                lru.move_to_end(line)
            else:
                if len(lru) >= l2.assoc:
                    lru.popitem(last=False)
                    l2.evictions += 1
                lru[line] = True
            self.dram.access(line, start)
            if tracing:
                self._note(l2, "fill", line, start, cu, is_write=True)
            return start + l2.hit_latency
        if line in lru:
            lru.move_to_end(line)
            l2.hits += 1
            if tracing:
                self._note(l2, "hit", line, start, cu)
            return start + l2.hit_latency
        l2.misses += 1
        done = self.dram.access(line, start + l2.hit_latency)
        if len(lru) >= l2.assoc:
            lru.popitem(last=False)
            l2.evictions += 1
        lru[line] = True
        if tracing:
            self._note(l2, "miss", line, start, cu)
            self._note(l2, "fill", line, done, cu)
        return done

    def vector_access(self, cu_id: int, lines: List[int], is_write: bool, now: int) -> int:
        """Completion cycle for a coalesced vector memory request."""
        l1 = self.l1d[cu_id]
        cluster = self._cluster_of[cu_id]
        tracing = self.trace is not None and self.trace.wants_cache
        hit_latency = l1.hit_latency
        occupancy = l1.occupancy
        sets = l1._sets
        num_sets = l1.num_sets
        l2 = self.l2[cluster]
        dram = self.dram
        worst = now + hit_latency
        if not tracing:
            # Untraced fast path (every bench/suite run).  The per-line
            # port slot is ``start_k = max(next_free, now) + k*occupancy``
            # — each slot starts at or after ``now``, so the max with
            # ``now`` resolves once and the attribute round-trips hoist
            # out of the loop.  State evolution is identical to the
            # traced loop below.
            nf = l1.next_free
            start = nf if nf > now else now
            hits = 0
            if is_write:
                # Write-through, no-write-allocate; the L2/DRAM
                # bookkeeping of _through_l2(is_write=True) is inlined,
                # with l2.next_free carried locally (nothing else
                # touches it while this loop runs).
                l2_sets = l2._sets
                l2_num_sets = l2.num_sets
                l2_assoc = l2.assoc
                l2_occ = l2.occupancy
                l2_hl = l2.hit_latency
                l2_nf = l2.next_free
                channels = dram.channels
                channel_nf = dram.channel_next_free
                burst = dram.cycles_per_burst
                for line in lines:
                    lru = sets[line % num_sets]
                    if line in lru:
                        lru.move_to_end(line)
                        hits += 1
                    start2 = l2_nf if l2_nf > start else start
                    l2_nf = start2 + l2_occ
                    lru2 = l2_sets[line % l2_num_sets]
                    if line in lru2:
                        lru2.move_to_end(line)
                    else:
                        if len(lru2) >= l2_assoc:
                            lru2.popitem(last=False)
                            l2.evictions += 1
                        lru2[line] = True
                    channel = line % channels
                    cnf = channel_nf[channel]
                    channel_nf[channel] = (cnf if cnf > start2 else start2) + burst
                    done = start2 + l2_hl
                    if done > worst:
                        worst = done
                    start += occupancy
                l2.next_free = l2_nf
                dram.accesses += len(lines)
                l1.hits += hits
            else:
                assoc = l1.assoc
                misses = 0
                for line in lines:
                    lru = sets[line % num_sets]
                    if line in lru:
                        lru.move_to_end(line)
                        hits += 1
                        done = start + hit_latency
                    else:
                        misses += 1
                        done = self._through_l2(
                            cluster, line, start + hit_latency, False, cu_id)
                        if len(lru) >= assoc:
                            lru.popitem(last=False)
                            l1.evictions += 1
                        lru[line] = True
                    if done > worst:
                        worst = done
                    start += occupancy
                l1.hits += hits
                l1.misses += misses
            if lines:
                l1.next_free = start
            self.stats.bump(VMEM_REQUESTS)
            self.stats.bump(VMEM_LINES, len(lines))
            return worst
        for line in lines:
            nf = l1.next_free  # one line per port slot
            start = nf if nf > now else now
            l1.next_free = start + occupancy
            lru = sets[line % num_sets]
            if is_write:
                # Write-through, no-write-allocate (update on presence).
                if line in lru:
                    lru.move_to_end(line)
                    l1.hits += 1
                    if tracing:
                        self._note(l1, "hit", line, start, cu_id, is_write=True)
                # Inline of _through_l2(is_write=True) + Dram.access —
                # every store line takes this path, so the call overhead
                # is worth eliding; the state evolution is identical.
                nf2 = l2.next_free
                start2 = nf2 if nf2 > start else start
                l2.next_free = start2 + l2.occupancy
                lru2 = l2._sets[line % l2.num_sets]
                if line in lru2:
                    lru2.move_to_end(line)
                else:
                    if len(lru2) >= l2.assoc:
                        lru2.popitem(last=False)
                        l2.evictions += 1
                    lru2[line] = True
                channel = line % dram.channels
                cnf = dram.channel_next_free[channel]
                dstart = cnf if cnf > start2 else start2
                dram.channel_next_free[channel] = dstart + dram.cycles_per_burst
                dram.accesses += 1
                if tracing:
                    self._note(l2, "fill", line, start2, cu_id, is_write=True)
                done = start2 + l2.hit_latency
            elif line in lru:
                lru.move_to_end(line)
                l1.hits += 1
                if tracing:
                    self._note(l1, "hit", line, start, cu_id)
                done = start + hit_latency
            else:
                l1.misses += 1
                if tracing:
                    self._note(l1, "miss", line, start, cu_id)
                done = self._through_l2(cluster, line, start + hit_latency, False, cu_id)
                if line not in lru:
                    if len(lru) >= l1.assoc:
                        lru.popitem(last=False)
                        l1.evictions += 1
                    lru[line] = True
                if tracing:
                    self._note(l1, "fill", line, done, cu_id)
            if done > worst:
                worst = done
        self.stats.bump(VMEM_REQUESTS)
        self.stats.bump(VMEM_LINES, len(lines))
        return worst

    def scalar_access(self, cu_id: int, lines: List[int], now: int) -> int:
        """Completion cycle for an s_load through the scalar cache."""
        cluster = self._cluster_of[cu_id]
        cache = self.scalar[cluster]
        tracing = self.trace is not None and self.trace.wants_cache
        hit_latency = cache.hit_latency
        worst = now + hit_latency
        for line in lines:
            nf = cache.next_free
            start = nf if nf > now else now
            cache.next_free = start + cache.occupancy
            lru = cache._sets[line % cache.num_sets]
            if line in lru:
                lru.move_to_end(line)
                cache.hits += 1
                if tracing:
                    self._note(cache, "hit", line, start, cu_id)
                done = start + hit_latency
            else:
                cache.misses += 1
                if tracing:
                    self._note(cache, "miss", line, start, cu_id)
                done = self._through_l2(cluster, line, start + hit_latency, False, cu_id)
                if len(lru) >= cache.assoc:
                    lru.popitem(last=False)
                    cache.evictions += 1
                lru[line] = True
                if tracing:
                    self._note(cache, "fill", line, done, cu_id)
            if done > worst:
                worst = done
        self.stats.bump(SMEM_REQUESTS)
        return worst

    def ifetch(self, cu_id: int, line: int, now: int) -> int:
        """Completion cycle for an instruction fetch."""
        cluster = self._cluster_of[cu_id]
        cache = self.l1i[cluster]
        tracing = self.trace is not None and self.trace.wants_cache
        nf = cache.next_free
        start = nf if nf > now else now
        cache.next_free = start + cache.occupancy
        self.stats.bump(IFETCH_REQUESTS)
        lru = cache._sets[line % cache.num_sets]
        if line in lru:
            lru.move_to_end(line)
            cache.hits += 1
            if tracing:
                self._note(cache, "hit", line, start, cu_id)
            return start + cache.hit_latency
        cache.misses += 1
        self.stats.bump(IFETCH_MISSES)
        if tracing:
            self._note(cache, "miss", line, start, cu_id)
        done = self._through_l2(cluster, line, start + cache.hit_latency, False, cu_id)
        if len(lru) >= cache.assoc:
            lru.popitem(last=False)
            cache.evictions += 1
        lru[line] = True
        if tracing:
            self._note(cache, "fill", line, done, cu_id)
        return done

    def export_stats(self, stats: StatSet) -> None:
        for group in (self.l1d, self.l1i, self.scalar, self.l2):
            for cache in group:
                cache.export_stats(stats)
        stats.bump(DRAM_ACCESSES, self.dram.accesses)

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
