"""Cache hierarchy and DRAM model tests."""

import pytest

from repro.common.config import (CacheConfig, DramConfig, paper_config,
                                 small_config)
from repro.common.stats import StatSet
from repro.timing.caches import Dram, MemorySystem


class TestCache:
    """One cache's behaviour through the paths the timing model uses:
    ``MemorySystem.ifetch`` (one line through ``_read``) and ``_read``'s
    multi-line loop."""

    def make(self, assoc=2, lines=8):
        geometry = CacheConfig(size_bytes=64 * lines, associativity=assoc,
                               hit_latency=4)
        ms = MemorySystem(small_config(1).scaled(l1i=geometry))
        return ms, ms.l1i[0]

    def test_miss_then_hit(self):
        ms, c = self.make()
        miss = ms.ifetch(0, 5, now=0)
        assert (c.hits, c.misses) == (0, 1)
        assert ms.ifetch(0, 5, now=miss) == miss + 4   # the hit latency
        assert (c.hits, c.misses) == (1, 1)

    def test_lru_eviction(self):
        ms, c = self.make(assoc=2, lines=8)  # 4 sets
        # lines 0, 4, 8 map to set 0 (line % 4)
        for now, line in enumerate((0, 4, 0, 8)):   # 0 MRU; 8 evicts 4
            ms.ifetch(0, line, now * 1000)
        assert (c.hits, c.misses, c.evictions) == (1, 3, 1)
        ms.ifetch(0, 0, 5000)
        assert (c.hits, c.misses) == (2, 3)
        ms.ifetch(0, 4, 6000)
        assert (c.hits, c.misses) == (2, 4)

    def test_fully_associative(self):
        ms, c = self.make(assoc=0, lines=4)
        for now, line in enumerate((0, 1, 2, 3, 0, 1, 2, 3)):
            ms.ifetch(0, line, now * 1000)
        assert (c.hits, c.misses) == (4, 4)
        ms.ifetch(0, 99, 9000)  # evicts line 0, the least recently used
        assert list(c._sets[0]) == [1, 2, 3, 99]

    def test_port_serialization(self):
        ms, c = self.make()
        ms.ifetch(0, 1, 0)
        ms.ifetch(0, 2, 1000)
        # Resident lines: each request waits for the slot before it.
        assert [ms.ifetch(0, 1, 2000) for _ in range(3)] == [2004, 2005, 2006]
        assert c.next_free == 2003
        # One multi-line read takes one slot per line and completes with
        # its last; its hits are counted once per access.
        assert ms._read(c, 0, (1, 2), 3000) == 3005
        assert (c.hits, c.next_free) == (5, 3002)

    def test_stats_export_and_reset(self):
        ms, c = self.make()
        ms.ifetch(0, 1, 0)
        ms.ifetch(0, 1, 1000)
        stats = StatSet()
        ms.export_stats(stats)
        assert stats["l1i0_hits"] == 1 and stats["l1i0_misses"] == 1
        assert stats["ifetch_requests"] == 2
        assert c.hits == 0 and c.misses == 0


class TestDram:
    def test_base_latency(self):
        d = Dram(DramConfig(channels=4, base_latency_cycles=100,
                            cycles_per_burst=4))
        assert d.access(0, now=10) == 110

    def test_channel_occupancy_queues(self):
        d = Dram(DramConfig(channels=4, base_latency_cycles=100,
                            cycles_per_burst=4))
        first = d.access(0, now=0)
        second = d.access(4, now=0)  # same channel (4 % 4 == 0)
        assert second == first + 4

    def test_different_channels_parallel(self):
        d = Dram(DramConfig(channels=4, base_latency_cycles=100,
                            cycles_per_burst=4))
        assert d.access(0, now=0) == d.access(1, now=0)


class TestMemorySystem:
    def make(self):
        return MemorySystem(paper_config())

    def test_miss_slower_than_hit(self):
        ms = self.make()
        miss_done = ms.vector_access(0, [100], is_write=False, now=0)
        hit_done = ms.vector_access(0, [100], is_write=False, now=miss_done)
        assert (hit_done - miss_done) < miss_done

    def test_l2_shared_within_cluster(self):
        ms = self.make()
        ms.vector_access(0, [200], is_write=False, now=0)
        # CU 1 shares the cluster's L2: its L1 misses but the L2 hits.
        l2_hits_before = ms.l2[0].hits
        ms.vector_access(1, [200], is_write=False, now=1000)
        assert ms.l2[0].hits == l2_hits_before + 1

    def test_clusters_are_independent(self):
        ms = self.make()
        ms.vector_access(0, [300], is_write=False, now=0)
        # CU 4 is in the second cluster: fresh L2
        before = ms.l2[1].misses
        ms.vector_access(4, [300], is_write=False, now=1000)
        assert ms.l2[1].misses == before + 1

    def test_write_through_latency_hidden(self):
        ms = self.make()
        done = ms.vector_access(0, [400], is_write=True, now=0)
        # writes complete at L2 speed, not DRAM speed
        assert done < ms.config.dram.base_latency_cycles

    def test_scalar_cache_separate_from_l1d(self):
        ms = self.make()
        ms.scalar_access(0, [500], now=0)
        assert ms.scalar[0].misses == 1
        assert ms.l1d[0].misses == 0

    def test_ifetch_counts(self):
        ms = self.make()
        ms.ifetch(0, 600, now=0)
        ms.ifetch(0, 600, now=100)
        stats = StatSet()
        ms.export_stats(stats)
        assert stats["ifetch_requests"] == 2
        assert stats["ifetch_misses"] == 1

    def test_multi_line_request_completion_is_worst_case(self):
        ms = self.make()
        single = ms.vector_access(0, [700], is_write=False, now=0)
        ms2 = self.make()
        multi = ms2.vector_access(0, list(range(800, 816)), is_write=False, now=0)
        assert multi >= single
