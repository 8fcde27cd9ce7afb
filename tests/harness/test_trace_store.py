"""Trace store + capture/replay runner: fingerprints, recovery, identity."""

import json

import pytest

from repro.common.config import small_config
from repro.common.errors import ReproError
from repro.harness.cache import (
    TraceStore,
    resolve_trace_store,
    trace_fingerprint,
)
from repro.harness.runner import ISAS, clear_suite_cache, run_workload
from repro.timing.replay import _MAGIC, _STREAM_FIELDS, ExecTrace, TraceError
from repro.workloads import all_workloads


@pytest.fixture()
def store(tmp_path):
    return TraceStore(tmp_path / "traces")


def _capture(store, workload="arraybw", isa="gcn3", scale=0.1, config=None):
    return run_workload(workload, isa, scale=scale,
                        config=config or small_config(2),
                        execution="capture", trace_store=store)


def _strip(run):
    """A run's payload minus the fields allowed to differ across modes."""
    payload = run.to_payload()
    payload.pop("wall_seconds", None)
    payload.pop("execution", None)
    return payload


class TestTraceFingerprint:
    def test_timing_only_axes_share_a_fingerprint(self):
        base = small_config(2)
        # cache geometry and VRF banking never change the dynamic stream
        timing = base.with_overrides({"l1d.size_bytes": 1 << 17,
                                      "cu.vrf_banks": 8})
        a = trace_fingerprint(base, "arraybw", "gcn3", 0.1, 7)
        b = trace_fingerprint(timing, "arraybw", "gcn3", 0.1, 7)
        assert a == b

    def test_functional_axes_split_fingerprints(self):
        base = small_config(2)
        narrow = base.with_overrides({"cu.simd_width": 8})
        assert (trace_fingerprint(base, "arraybw", "gcn3", 0.1, 7)
                != trace_fingerprint(narrow, "arraybw", "gcn3", 0.1, 7))

    def test_workload_isa_scale_seed_all_matter(self):
        cfg = small_config(2)
        base = trace_fingerprint(cfg, "arraybw", "gcn3", 0.1, 7)
        assert base != trace_fingerprint(cfg, "comd", "gcn3", 0.1, 7)
        assert base != trace_fingerprint(cfg, "arraybw", "hsail", 0.1, 7)
        assert base != trace_fingerprint(cfg, "arraybw", "gcn3", 0.2, 7)
        assert base != trace_fingerprint(cfg, "arraybw", "gcn3", 0.1, 8)

    def test_functional_vs_timing_fingerprint_split(self):
        base = small_config(2)
        timing = base.with_overrides({"l1d.size_bytes": 1 << 17})
        assert base.functional_fingerprint() == timing.functional_fingerprint()
        assert base.timing_fingerprint() != timing.timing_fingerprint()
        assert base.fingerprint() != timing.fingerprint()

    def test_fingerprint_is_memoized(self):
        cfg = small_config(2)
        assert cfg.fingerprint() is cfg.fingerprint()


class TestTraceStore:
    def test_roundtrip(self, store):
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        assert not store.has(fp)
        assert store.get(fp) is None
        _capture(store)
        assert store.has(fp)
        trace = store.get(fp)
        assert isinstance(trace, ExecTrace)
        assert trace.verified
        assert trace.meta["workload"] == "arraybw"
        assert store.stats()["hits"] == 1

    def test_corrupt_trace_discarded_and_recaptured(self, store):
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        _capture(store)
        path = store._path(fp)
        path.write_bytes(b"not a trace at all")
        assert store.get(fp) is None          # corrupt -> miss
        assert not path.exists()              # and discarded
        _capture(store)                       # self-heals
        assert store.get(fp) is not None

    def test_truncated_trace_is_a_miss(self, store):
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        _capture(store)
        path = store._path(fp)
        path.write_bytes(path.read_bytes()[:-16])   # torn write
        assert store.get(fp) is None
        assert not path.exists()

    def test_clear(self, store):
        _capture(store)
        assert store.clear() == 1
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        assert not store.has(fp)

    def test_unwritable_directory_degrades(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        broken = TraceStore(blocker / "traces")
        run = _capture(broken)               # capture still succeeds
        assert run.error is None and run.verified

    def test_resolve_env_disable(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert resolve_trace_store(None) is None
        # an explicit directory always wins over the env kill-switch
        explicit = resolve_trace_store(str(tmp_path / "traces"))
        assert isinstance(explicit, TraceStore)


def _move_count(path, src, dst):
    """Move one count from field ``src`` to ``dst`` (both one byte per
    entry) in stream 0's length table of the trace stored at ``path``:
    every byte count still adds up, only the stream's laws break."""
    blob = path.read_bytes()
    start = len(_MAGIC) + 4
    end = start + int.from_bytes(blob[len(_MAGIC):start], "little")
    header = json.loads(blob[start:end])
    names = [name for name, _typecode in _STREAM_FIELDS]
    lengths = header["streams"][0]
    lengths[names.index(src)] -= 1
    lengths[names.index(dst)] += 1
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:len(_MAGIC)] + len(encoded).to_bytes(4, "little")
                     + encoded + blob[end:])


class TestStreamLaws:
    """A stored trace whose fields disagree with each other fails closed
    instead of replaying wrong statistics or crashing every later run."""

    def _stored(self, store):
        run = _capture(store, workload="md")
        fp = trace_fingerprint(small_config(2), "md", "gcn3", 0.1, 7)
        return run, store._path(fp)

    def test_edited_instruction_counts_are_recaptured(self, store):
        captured, path = self._stored(store)
        _move_count(path, "flags", "active")
        clear_suite_cache()
        run = run_workload("md", "gcn3", scale=0.1, config=small_config(2),
                           execution="auto", trace_store=store)
        assert run.execution == "capture" and run.error is None
        assert _strip(run) == _strip(captured)
        assert store.get(trace_fingerprint(small_config(2), "md", "gcn3",
                                           0.1, 7)) is not None

    def test_edited_probe_counts_are_recaptured(self, store):
        """The probe law is checked by the fold, not by from_bytes: the
        replay fails there, and ``auto`` discards the entry and
        captures, so later runs of the cell replay a good trace."""
        captured, path = self._stored(store)
        _move_count(path, "probe_read", "probe_write")
        clear_suite_cache()
        fp = trace_fingerprint(small_config(2), "md", "gcn3", 0.1, 7)
        with pytest.raises(TraceError, match="wavefront 0: the probe counts"):
            run_workload("md", "gcn3", scale=0.1, config=small_config(2),
                         execution="replay", trace_store=store)
        assert store.get(fp) is not None   # strict replay keeps the entry
        run = run_workload("md", "gcn3", scale=0.1, config=small_config(2),
                           execution="auto", trace_store=store)
        assert run.execution == "capture" and run.error is None
        assert _strip(run) == _strip(captured)
        again = run_workload("md", "gcn3", scale=0.1, config=small_config(2),
                             execution="auto", trace_store=store)
        assert again.execution == "replay"
        assert _strip(again) == _strip(captured)


class TestBlobSyncAndMaintenance:
    """The raw-bytes surface distributed workers sync over, plus the
    ``repro cache`` maintenance entry points."""

    def test_blob_round_trip_between_stores(self, store, tmp_path):
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        _capture(store)
        blob = store.read_blob(fp)
        assert blob is not None and blob.startswith(b"RPROTRC1")
        other = TraceStore(tmp_path / "other")
        assert other.write_blob(fp, blob) is True
        assert other.has(fp)
        assert isinstance(other.get(fp), ExecTrace)

    def test_read_blob_miss_is_none(self, store):
        assert store.read_blob("0" * 16) is None

    def test_corrupt_blob_refused_never_poisons(self, store):
        assert store.write_blob("deadbeef", b"not a trace") is False
        assert not store.has("deadbeef")

    def test_truncated_blob_refused(self, store):
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        _capture(store)
        blob = store.read_blob(fp)
        assert store.write_blob("feedface", blob[:-16]) is False
        assert not store.has("feedface")

    def test_prune_older_than_removes_stale_traces(self, store):
        import os
        import time

        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        _capture(store)
        path = store._path(fp)
        stale = time.time() - 10 * 86400
        os.utime(path, (stale, stale))
        removed, freed = store.prune_older_than(5.0)
        assert removed == 1 and freed > 0
        assert not store.has(fp)

    def test_prune_keeps_young_traces(self, store):
        _capture(store)
        assert store.prune_older_than(1.0) == (0, 0)
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        assert store.has(fp)

    @pytest.mark.parametrize("days", [float("nan"), -1.0, float("inf")])
    def test_prune_rejects_bad_days_and_keeps_traces(self, store, days):
        _capture(store)
        with pytest.raises(ValueError, match="days"):
            store.prune_older_than(days)
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        assert store.has(fp)

    def test_breakdown_keys_by_fingerprint(self, store):
        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        _capture(store)
        usage = store.breakdown()
        assert fp in usage
        assert usage[fp]["entries"] == 1
        assert usage[fp]["bytes"] > 0


class TestTraceMemoLRU:
    """The in-process parsed-trace memo is LRU-bounded so a long-lived
    daemon crossing many fingerprints cannot grow without limit."""

    def _seed(self, store, count):
        from repro.harness import cache as cache_mod

        fp = trace_fingerprint(small_config(2), "arraybw", "gcn3", 0.1, 7)
        _capture(store)
        blob = store.read_blob(fp)
        fps = [f"f{i:015x}" for i in range(count)]
        for fake in fps:
            assert store.write_blob(fake, blob)
        cache_mod.clear_trace_memo()
        return fps

    def test_memo_never_exceeds_the_bound(self, store, monkeypatch):
        from repro.harness.cache import _LOADED_TRACES

        monkeypatch.setenv("REPRO_TRACE_MEMO", "3")
        fps = self._seed(store, 5)
        for fp in fps:
            assert isinstance(store.get(fp), ExecTrace)
            assert len(_LOADED_TRACES) <= 3
        # oldest entries were evicted, newest retained
        kept = {key.rsplit("/", 1)[-1] for key in _LOADED_TRACES}
        assert kept == {f"{fp}.trace" for fp in fps[-3:]}

    def test_hit_refreshes_lru_position(self, store, monkeypatch):
        from repro.harness.cache import _LOADED_TRACES

        monkeypatch.setenv("REPRO_TRACE_MEMO", "2")
        fps = self._seed(store, 3)
        store.get(fps[0])
        store.get(fps[1])
        store.get(fps[0])            # refresh: fps[0] is now the newest
        store.get(fps[2])            # evicts fps[1], not fps[0]
        kept = {key.rsplit("/", 1)[-1] for key in _LOADED_TRACES}
        assert kept == {f"{fps[0]}.trace", f"{fps[2]}.trace"}

    def test_zero_cap_disables_memoization(self, store, monkeypatch):
        from repro.harness.cache import _LOADED_TRACES

        monkeypatch.setenv("REPRO_TRACE_MEMO", "0")
        fps = self._seed(store, 1)
        assert isinstance(store.get(fps[0]), ExecTrace)
        assert not _LOADED_TRACES

    def test_clear_suite_cache_evicts_the_memo(self, store):
        from repro.harness.cache import _LOADED_TRACES

        fps = self._seed(store, 1)
        store.get(fps[0])
        assert _LOADED_TRACES
        clear_suite_cache()
        assert not _LOADED_TRACES


class TestReplayStagingBound:
    def test_staged_processes_are_bounded_by_the_trace_memo(
            self, store, monkeypatch):
        """A resident process keeps the staged process of a replay with
        the memoized trace it replays, so the memo's LRU bound is theirs
        too: three replayed seeds under a bound of two leave two."""
        import gc

        from repro.runtime.process import GpuProcess

        def live_processes():
            gc.collect()
            return sum(isinstance(obj, GpuProcess)
                       for obj in gc.get_objects())

        monkeypatch.setenv("REPRO_TRACE_MEMO", "2")
        clear_suite_cache()
        before = live_processes()
        for seed in (1, 2, 3):
            for execution in ("capture", "replay"):
                run = run_workload("arraybw", "gcn3", scale=0.1,
                                   config=small_config(2), seed=seed,
                                   execution=execution, trace_store=store)
                assert run.execution == execution
        assert live_processes() - before <= 2
        clear_suite_cache()
        assert live_processes() == before


class TestCaptureReplayIdentity:
    def test_full_matrix_bit_identity(self, store):
        """Replay must be bit-identical to execute-at-issue on every
        workload x ISA cell — every counter, ratio, and distribution."""
        cfg = small_config(2)
        clear_suite_cache()
        for wl in all_workloads():
            for isa in ISAS:
                cap = run_workload(wl.name, isa, scale=0.1, config=cfg,
                                   execution="capture", trace_store=store)
                rep = run_workload(wl.name, isa, scale=0.1, config=cfg,
                                   execution="replay", trace_store=store)
                assert cap.execution == "capture"
                assert rep.execution == "replay"
                assert _strip(cap) == _strip(rep), f"{wl.name}/{isa}"

    def test_distributions_survive_replay(self, store):
        cap = _capture(store, workload="fft")
        rep = run_workload("fft", "gcn3", scale=0.1, config=small_config(2),
                           execution="replay", trace_store=store)
        snap_c, snap_r = cap.total.snapshot(), rep.total.snapshot()
        assert snap_c == snap_r
        # the sampled VRF probes are replayed, not recomputed
        assert (rep.total.read_uniqueness.numerator
                == cap.total.read_uniqueness.numerator)

    def test_replay_preserves_run_metadata(self, store):
        cap = _capture(store)
        rep = run_workload("arraybw", "gcn3", scale=0.1,
                           config=small_config(2),
                           execution="replay", trace_store=store)
        assert rep.data_footprint_bytes == cap.data_footprint_bytes
        assert rep.static_instructions == cap.static_instructions
        assert rep.kernel_code_bytes == cap.kernel_code_bytes
        assert rep.verified == cap.verified

    def test_replay_across_timing_config(self, store):
        """A trace captured under one timing config replays under another
        (same functional fingerprint) and matches that config's own
        execute-at-issue statistics."""
        base = small_config(2)
        timing = base.with_overrides({"l1d.size_bytes": 1 << 17})
        _capture(store, config=base)
        rep = run_workload("arraybw", "gcn3", scale=0.1, config=timing,
                           execution="replay", trace_store=store)
        ref = run_workload("arraybw", "gcn3", scale=0.1, config=timing)
        assert _strip(rep) == _strip(ref)

    def test_replay_twice_hits_the_staging_memo(self, store):
        _capture(store)
        first = run_workload("arraybw", "gcn3", scale=0.1,
                             config=small_config(2),
                             execution="replay", trace_store=store)
        second = run_workload("arraybw", "gcn3", scale=0.1,
                              config=small_config(2),
                              execution="replay", trace_store=store)
        assert _strip(first) == _strip(second)


class TestExecutionModes:
    def test_strict_replay_missing_trace_raises(self, store):
        with pytest.raises(ReproError, match="no captured trace"):
            run_workload("arraybw", "gcn3", scale=0.1,
                         config=small_config(2),
                         execution="replay", trace_store=store)

    def test_auto_captures_then_replays(self, store):
        first = run_workload("arraybw", "gcn3", scale=0.1,
                             config=small_config(2),
                             execution="auto", trace_store=store)
        second = run_workload("arraybw", "gcn3", scale=0.1,
                              config=small_config(2),
                              execution="auto", trace_store=store)
        assert first.execution == "capture"
        assert second.execution == "replay"
        assert _strip(first) == _strip(second)

    def test_auto_without_store_degrades_to_execute(self):
        run = run_workload("arraybw", "gcn3", scale=0.1,
                           config=small_config(2), execution="auto",
                           trace_store=None)
        assert run.execution == "execute"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError, match="execution mode"):
            run_workload("arraybw", "gcn3", scale=0.1,
                         config=small_config(2), execution="warp")

    def test_payload_byte_compat(self, store):
        """Executed runs serialize exactly as before the replay subsystem
        (golden files and the disk cache depend on it)."""
        run = run_workload("arraybw", "gcn3", scale=0.1,
                           config=small_config(2))
        assert "execution" not in run.to_payload()
        assert "execution" not in run.to_dict()
        rep_payload = _capture(store).to_payload()
        assert rep_payload["execution"] == "capture"
