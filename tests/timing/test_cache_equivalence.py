"""Eviction-free equivalence at the cache model: the soundness property
behind ``repro.harness.equivalence`` (EXPERIMENTS.md, "Eviction-free
equivalence").

Whenever geometry A ran a line stream without evicting and geometry B
``admits`` what A left resident, A and B must agree on every hit, miss
and completion cycle.  ``derandomize=True`` keeps CI deterministic.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, small_config
from repro.common.stats import StatSet
from repro.obs.trace import TraceBus
from repro.timing.caches import MemorySystem, admits

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

#: fully associative (1 set), power-of-two and non-power-of-two set counts
_SET_COUNTS = (1, 2, 4, 8, 16, 3, 5, 6, 7, 14, 18)


def _geometry(sets, ways):
    """``sets`` x ``ways`` lines; one set is spelled fully associative,
    as the paper's L1D is."""
    return CacheConfig(size_bytes=64 * sets * ways,
                       associativity=0 if sets == 1 else ways)


_geometries = st.builds(_geometry, st.sampled_from(_SET_COUNTS),
                        st.integers(1, 8))
# A narrow line range makes both outcomes common: streams that fit a
# geometry and streams that overflow one of its sets.
_lines = st.lists(st.integers(0, 95), min_size=1, max_size=60)


def _drive(geometry, stream):
    """Fetch ``stream`` through an L1I of ``geometry``, one line per
    fetch: (the cache, whether each fetch hit)."""
    ms = MemorySystem(small_config(1).scaled(l1i=geometry))
    cache = ms.l1i[0]
    hits = []
    for now, line in enumerate(stream):
        before = cache.hits
        ms.ifetch(0, line, now * 1000)
        hits.append(cache.hits > before)
    return cache, hits


def _resident(cache):
    return [line for lru in cache._sets for line in lru]


class TestEvictionCounter:
    def test_counts_only_displacements(self):
        cache, _ = _drive(_geometry(1, 2), [1, 2, 1, 2])
        assert cache.evictions == 0
        cache, _ = _drive(_geometry(1, 2), [1, 2, 1, 2, 3])
        assert cache.evictions == 1
        # already resident: an LRU touch, not an eviction
        cache, _ = _drive(_geometry(1, 2), [1, 2, 1, 2, 3, 3])
        assert cache.evictions == 1

    def test_survives_the_per_dispatch_reset(self):
        cache, _ = _drive(_geometry(1, 1), [1, 2])
        cache.reset_counters()
        assert cache.evictions == 1 and cache.misses == 0

    def test_memory_system_counts_every_inlined_site(self):
        tiny = CacheConfig(size_bytes=64, associativity=0)
        ms = MemorySystem(small_config(2).scaled(
            l1d=tiny, l1i=tiny, scalar_cache=tiny, l2=tiny))
        ms.vector_access(0, [1, 2], False, 0)    # untraced read path
        ms.vector_access(0, [3, 4], True, 10)    # write-through: L2 only
        ms.scalar_access(0, [5, 6], 20)
        ms.ifetch(0, 7, 30)
        ms.ifetch(0, 8, 40)
        assert ms.l1d[0].evictions == 1
        assert ms.scalar[0].evictions == 1
        assert ms.l1i[0].evictions == 1
        assert ms.l2[0].evictions == 7           # 8 distinct lines, 1 way
        assert ms.witness() == {}


class TestAdmits:
    def test_modulo_counterexample(self):
        """Bigger is not enough: five lines fit 14 sets x 4 ways but all
        land in set 0 of 18 sets x 4 ways."""
        stream = [0, 18, 36, 54, 72] * 2
        small, big = _geometry(14, 4), _geometry(18, 4)
        assert big.size_bytes > small.size_bytes
        a, hits_a = _drive(small, stream)
        assert a.evictions == 0
        assert not admits(_resident(a), big)
        b, hits_b = _drive(big, stream)
        assert b.evictions > 0 and hits_a != hits_b

    def test_fully_associative_is_a_capacity_check(self):
        assert admits(range(10), _geometry(1, 10))
        assert not admits(range(11), _geometry(1, 10))

    def test_empty_set_fits_anywhere(self):
        assert admits([], _geometry(3, 1))


@_SETTINGS
@given(a=_geometries, b=_geometries, stream=_lines)
def test_admitted_geometry_repeats_every_outcome(a, b, stream):
    cache_a, hits_a = _drive(a, stream)
    if cache_a.evictions or not admits(_resident(cache_a), b):
        return
    cache_b, hits_b = _drive(b, stream)
    assert hits_b == hits_a
    assert cache_b.evictions == 0
    assert sorted(_resident(cache_b)) == sorted(_resident(cache_a))


@_SETTINGS
@given(b=_geometries, stream=_lines)
def test_refusal_is_exact(b, stream):
    """``admits`` says no exactly when replaying the fills would evict."""
    cache_b, _ = _drive(b, stream)
    assert admits(sorted(set(stream)), b) == (cache_b.evictions == 0)


# -- the whole hierarchy ----------------------------------------------------

_FAMILIES = ("l1d", "l1i", "scalar_cache", "l2")
_requests = st.lists(
    st.tuples(st.sampled_from(("read", "write", "ifetch", "scalar")),
              st.integers(0, 1),                                  # CU
              st.lists(st.integers(0, 95), min_size=1, max_size=4),
              st.integers(0, 40)),                                # cycles later
    min_size=1, max_size=40)


def _run_hierarchy(config, requests, trace=None):
    """(completion cycle of every request, final per-cache hits/misses,
    the memory system)."""
    ms = MemorySystem(config, trace)
    now = 0
    done = []
    for kind, cu, lines, gap in requests:
        now += gap
        if kind == "ifetch":
            done.append(ms.ifetch(cu, lines[0], now))
        elif kind == "scalar":
            done.append(ms.scalar_access(cu, lines, now))
        else:
            done.append(ms.vector_access(cu, lines, kind == "write", now))
    stats = StatSet()
    ms.export_stats(stats)
    return done, dict(stats.counters), ms


@_SETTINGS
@given(a=st.tuples(*[_geometries] * 4), b=st.tuples(*[_geometries] * 4),
       requests=_requests)
def test_hierarchy_repeats_under_admitted_geometries(a, b, requests):
    base = small_config(2)
    config_a = base.scaled(**dict(zip(_FAMILIES, a)))
    done_a, counters_a, ms_a = _run_hierarchy(config_a, requests)
    witness = ms_a.witness()
    # Move every eviction-free family whose new geometry admits its
    # resident sets; families that evicted keep the geometry they had.
    moved = {family: geometry for family, geometry in zip(_FAMILIES, b)
             if family in witness
             and all(admits(lines, geometry) for lines in witness[family])}
    done_b, counters_b, _ = _run_hierarchy(config_a.scaled(**moved), requests)
    assert done_b == done_a
    assert counters_b == counters_a


def test_hierarchy_property_is_not_vacuous():
    """A directed instance of the property above in which every family
    moves, so a refactor cannot quietly reduce it to ``{} == {}``."""
    base = small_config(2)
    requests = [("read", 0, [1, 2, 3], 0), ("scalar", 1, [7], 3),
                ("ifetch", 0, [9], 1), ("write", 1, [2, 40], 5),
                ("read", 1, [1, 2, 3], 2), ("ifetch", 1, [9], 9)]
    done_a, counters_a, ms_a = _run_hierarchy(base, requests)
    assert sorted(ms_a.witness()) == sorted(_FAMILIES)
    # Only the geometry moves: hit latencies stay the paper's.
    config_b = base.with_overrides({
        "l1d.size_bytes": 64 * 3,
        "l1i.associativity": 1, "l1i.size_bytes": 64 * 3,
        "scalar_cache.associativity": 2, "scalar_cache.size_bytes": 64 * 10,
        "l2.associativity": 2, "l2.size_bytes": 64 * 14})
    for family in _FAMILIES:
        assert all(admits(lines, getattr(config_b, family))
                   for lines in ms_a.witness()[family])
    done_b, counters_b, _ = _run_hierarchy(config_b, requests)
    assert (done_b, counters_b) == (done_a, counters_a)


def _contents(ms):
    """Every cache's evictions and resident lines in LRU order."""
    return [(cache.name, cache.evictions, [list(lru) for lru in cache._sets])
            for group in (ms.l1d, ms.l1i, ms.scalar, ms.l2) for cache in group]


@_SETTINGS
@given(geometries=st.tuples(*[_geometries] * 4), requests=_requests)
def test_traced_and_untraced_hierarchies_agree(geometries, requests):
    """Tracing only observes: an event-traced memory system walks the
    same path and reaches the same completion cycles, hits, misses and
    evictions, and publishes one hit-or-miss event per line read and one
    L2 write fill per line written."""
    config = small_config(2).scaled(**dict(zip(_FAMILIES, geometries)))
    bus = TraceBus()
    plain = _run_hierarchy(config, requests)
    traced = _run_hierarchy(config, requests, trace=bus)
    assert traced[:2] == plain[:2]
    assert _contents(traced[2]) == _contents(plain[2])
    reads = sum(1 if kind == "ifetch" else len(lines)
                for kind, _, lines, _ in requests if kind != "write")
    writes = sum(len(lines) for kind, _, lines, _ in requests
                 if kind == "write")
    ops = Counter((e.name.startswith("l2_"), e.args["op"], "write" in e.args)
                  for e in bus.events)
    assert ops[False, "hit", False] + ops[False, "miss", False] == reads
    assert ops[True, "fill", True] == writes
