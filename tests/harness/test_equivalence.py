"""Eviction-free equivalence through ``run_workload``: every derived
result equals the simulated one, every case outside the proof
simulates, and neither filing a witness nor deriving from one encodes or
decodes a run payload (EXPERIMENTS.md, "Eviction-free equivalence").

``PYTHONPATH=src python tests/harness/test_equivalence.py`` prints the
StatSet payload codec calls of one filed witness and one derived cell.
"""

import os
import tempfile

import pytest

from repro.common.config import small_config
from repro.common.stats import StatSet
from repro.harness import equivalence
from repro.harness.cache import (
    TraceStore,
    clear_trace_memo,
    trace_fingerprint,
)
from repro.harness.equivalence import MAX_WITNESSES
from repro.harness.runner import ISAS, clear_suite_cache, run_workload
from repro.obs import host
from repro.obs.trace import TraceConfig
from repro.workloads import all_workloads

BASE = small_config(2)
SCALE = 0.1


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_suite_cache()
    yield
    clear_suite_cache()


@pytest.fixture()
def store(tmp_path):
    return TraceStore(tmp_path / "traces")


def _run(store, overrides=None, workload="spmv", isa="gcn3",
         execution="replay", **kw):
    return run_workload(workload, isa, scale=SCALE,
                        config=BASE.with_overrides(overrides or {}),
                        execution=execution, trace_store=store, **kw)


def _stable(run):
    """The payload minus what two correct runs of one cell may differ
    in: host wall time, and simulated ("replay") vs "derived"."""
    payload = run.to_payload()
    payload.pop("wall_seconds")
    payload.pop("execution")
    return payload


def _tally(call):
    """(result, what the call did about witnesses): filed (``witnessed``,
    one ``result.witness`` span each), answered from one (``derived``)
    or consulted one that did not admit the config (``refused``), as the
    call's ``result.derive`` spans say."""
    tally = {}

    def count(record):
        if record["name"] == "result.witness":
            key = "witnessed"
        elif record["name"] == "result.derive":
            key = record["attrs"]["outcome"]
        else:
            return
        if key != "none":
            tally[key] = tally.get(key, 0) + 1

    unsubscribe = host.subscribe(count)
    try:
        result = call()
    finally:
        unsubscribe()
    return result, tally


def _codec_calls(call):
    """(result, StatSet payload ``decodes``/``encodes`` made by ``call``),
    counted by wrapping ``StatSet.from_payload`` and ``.to_payload``."""
    calls = {"decodes": 0, "encodes": 0}
    decode = StatSet.__dict__["from_payload"]
    encode = StatSet.__dict__["to_payload"]

    def counted_decode(cls, payload):
        calls["decodes"] += 1
        return decode.__func__(cls, payload)

    def counted_encode(self):
        calls["encodes"] += 1
        return encode(self)

    StatSet.from_payload = classmethod(counted_decode)
    StatSet.to_payload = counted_encode
    try:
        result = call()
    finally:
        StatSet.from_payload = decode
        StatSet.to_payload = encode
    return result, calls


def _lulesh_point(store, size):
    """((run, tally), codec calls) of a lulesh replay at an L1D ``size``."""
    return _codec_calls(lambda: _tally(lambda: _run(
        store, {"l1d.size_bytes": size}, workload="lulesh")))


def _witnesses(store, workload="spmv", isa="gcn3"):
    return store.get(
        trace_fingerprint(BASE, workload, isa, SCALE, 7)).witnesses


@pytest.fixture()
def plateau(store):
    """spmv/gcn3 captured and replayed once at a 64 KiB L1D, which at
    this scale evicts nothing anywhere: the witness the cases below
    derive from (or must not)."""
    _run(store, execution="capture")
    run, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 65536}))
    assert tally == {"witnessed": 1}
    assert sorted(_witnesses(store)[0].resident) == [
        "l1d", "l1i", "l2", "scalar_cache"]
    return run


# Points that evict and points that do not, for every cell of the matrix.
_POINTS = [{"l1d.size_bytes": v} for v in (1024, 2048, 65536, 131072)] + [
    {"l1i.size_bytes": v} for v in (1024, 2048, 65536, 131072)]


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_derived_equals_simulated(workload, isa, store, monkeypatch):
    _run(store, workload=workload, isa=isa, execution="capture")
    derived = {}
    for index, overrides in enumerate(_POINTS):
        run, tally = _tally(
            lambda: _run(store, overrides, workload=workload, isa=isa))
        if tally == {"derived": 1}:
            assert run.execution == "derived"
            derived[index] = _stable(run)
        else:
            assert run.execution == "replay"
            assert tally in ({"witnessed": 1},
                             {"witnessed": 1, "refused": 1})
    # Both axes end in two sizes nothing at this scale fills.
    assert {3, 7} <= set(derived)

    monkeypatch.setenv("REPRO_TRACE_MEMO", "0")
    clear_trace_memo()
    for index, payload in derived.items():
        simulated, tally = _tally(
            lambda: _run(store, _POINTS[index], workload=workload, isa=isa))
        assert tally == {} and simulated.execution == "replay"
        assert _stable(simulated) == payload


class TestDerives:
    def test_result_is_a_replay_with_its_own_wall(self, store, plateau):
        run, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 131072}))
        assert tally == {"derived": 1}
        assert (run.execution, plateau.execution) == ("derived", "replay")
        assert 0 <= run.wall_seconds < plateau.wall_seconds
        assert _stable(run) == _stable(plateau)

    def test_same_config_again_derives(self, store, plateau):
        _, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 65536}))
        assert tally == {"derived": 1}

    def test_several_families_may_move_at_once(self, store, plateau):
        _, tally = _tally(lambda: _run(store, {
            "l1d.size_bytes": 32768, "l1i.size_bytes": 65536,
            "scalar_cache.size_bytes": 8192, "l2.size_bytes": 1 << 20}))
        assert tally == {"derived": 1}

    def test_too_small_a_geometry_is_refused_and_simulated(self, store,
                                                           plateau):
        run, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 1024}))
        assert tally == {"refused": 1, "witnessed": 1}
        assert _stable(run) != _stable(plateau)   # it really evicts

    def test_no_aliasing_with_the_witness(self, store, plateau):
        first = _run(store, {"l1d.size_bytes": 131072})
        reference = _stable(first)
        first.total.bump("cycles", 1)
        first.per_dispatch[0].bump("cycles", 1)
        first.kernel_code_bytes["bogus"] = 1
        plateau.total.bump("cycles", 1)           # the witnessed run itself
        again, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 131072}))
        assert tally == {"derived": 1}
        assert _stable(again) == reference
        assert _witnesses(store)[0].run.total.to_payload() == reference["total"]

    def test_witness_list_is_bounded(self, store):
        _run(store, execution="capture")
        for ways in range(1, MAX_WITNESSES + 4):     # each one evicts
            _run(store, {"l1d.size_bytes": 64 * ways})
        assert len(_witnesses(store)) == MAX_WITNESSES


class TestNoPayloadCodec:
    """A witness holds a copy of its run and a derivation copies that:
    lulesh (20 dispatches here) is where a payload round trip cost most."""

    @pytest.fixture()
    def captured(self, store):
        _run(store, workload="lulesh", execution="capture")

    def test_filing_a_witness_encodes_nothing(self, store, captured):
        (_, tally), calls = _lulesh_point(store, 65536)
        assert tally == {"witnessed": 1}
        assert calls == {"decodes": 0, "encodes": 0}

    def test_a_derived_cell_neither_decodes_nor_encodes(self, store,
                                                         captured):
        _lulesh_point(store, 65536)
        (run, tally), calls = _lulesh_point(store, 131072)
        assert tally == {"derived": 1} and len(run.per_dispatch) == 20
        assert calls == {"decodes": 0, "encodes": 0}

    def test_a_plateau_derives_without_decoding(self, store, captured):
        _lulesh_point(store, 65536)
        for size in (32768, 131072, 262144, 1 << 20):
            (_, tally), calls = _lulesh_point(store, size)
            assert tally == {"derived": 1}
            assert calls == {"decodes": 0, "encodes": 0}


class TestEvictingFamilyBlocksOnlyItself:
    @pytest.fixture()
    def evicting_l1d(self, store):
        _run(store, execution="capture")
        _run(store, {"l1d.size_bytes": 1024})
        assert sorted(_witnesses(store)[0].resident) == [
            "l1i", "l2", "scalar_cache"]

    def test_its_own_geometry_must_match(self, store, evicting_l1d):
        _, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 2048}))
        assert tally == {"witnessed": 1}

    def test_an_eviction_free_family_may_still_move(self, store,
                                                    evicting_l1d):
        _, tally = _tally(lambda: _run(store, {
            "l1d.size_bytes": 1024, "l1i.size_bytes": 65536}))
        assert tally == {"derived": 1}


class TestFailsClosed:
    @pytest.mark.parametrize("overrides", [
        {"l1d.hit_latency": 9},
        {"l1d.line_bytes": 128},
        {"l2.hit_latency": 40},
        {"num_cus": 1, "cus_per_cluster": 1},
        {"cu.vrf_banks": 8},
        {"dram.base_latency_cycles": 200},
        {"engine": "scalar"},
    ])
    def test_a_non_geometry_difference_simulates(self, store, plateau,
                                                 overrides):
        _, tally = _tally(lambda: _run(
            store, {"l1d.size_bytes": 65536, **overrides}))
        assert tally == {"witnessed": 1}

    def test_execute_neither_consults_nor_files(self, store, plateau):
        run, tally = _tally(lambda: run_workload(
            "spmv", "gcn3", scale=SCALE, execution="execute",
            config=BASE.with_overrides({"l1d.size_bytes": 65536})))
        assert tally == {} and run.execution == "execute"

    def test_capture_does_not_file(self, store):
        _, tally = _tally(lambda: _run(store, execution="capture"))
        assert tally == {}

    def test_event_traced_replay_neither_consults_nor_files(self, store,
                                                            plateau):
        run, tally = _tally(lambda: _run(
            store, {"l1d.size_bytes": 65536}, trace=TraceConfig()))
        assert tally == {} and run.trace.events

    def test_memo_off_never_derives(self, store, plateau, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_MEMO", "0")
        clear_trace_memo()
        for _ in range(2):
            _, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 65536}))
            assert tally == {}

    def test_recapture_drops_witnesses(self, store, plateau):
        path = store._path(trace_fingerprint(BASE, "spmv", "gcn3", SCALE, 7))
        before = path.stat()
        _run(store, execution="capture")
        # A coarse filesystem clock must not hide the rewrite.
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1))
        _, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 65536}))
        assert tally == {"witnessed": 1}

    def test_clear_suite_cache_drops_witnesses(self, store, plateau):
        clear_suite_cache()
        _, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 65536}))
        assert tally == {"witnessed": 1}

    def test_other_workloads_traces_are_separate(self, store, plateau):
        _run(store, workload="arraybw", execution="capture")
        _, tally = _tally(lambda: _run(
            store, {"l1d.size_bytes": 65536}, workload="arraybw"))
        assert tally == {"witnessed": 1}

    def test_unsound_admission_would_be_wrong(self, store, plateau,
                                              monkeypatch):
        """The per-set check is what keeps the derivation honest: with it
        forced open, an evicting geometry gets the plateau's numbers."""
        honest = _stable(_run(store, {"l1d.size_bytes": 1024}))
        clear_suite_cache()
        _run(store, {"l1d.size_bytes": 65536})
        monkeypatch.setattr(equivalence, "admits", lambda *_: True)
        forced, tally = _tally(lambda: _run(store, {"l1d.size_bytes": 1024}))
        assert tally == {"derived": 1}
        assert _stable(forced) != honest


if __name__ == "__main__":
    clear_suite_cache()
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        _run(store, workload="lulesh", execution="capture")
        lines = []
        for what, size in (("filed witness", 65536),
                           ("derived cell", 131072)):
            (_, tally), calls = _lulesh_point(store, size)
            lines.append(f"{what} {calls['decodes']} decodes "
                         f"{calls['encodes']} encodes {tally}")
    clear_suite_cache()
    print("StatSet payload codec calls, lulesh/gcn3 scale "
          f"{SCALE:g}: " + "; ".join(lines))
