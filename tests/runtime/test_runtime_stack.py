"""AQL packets, queues, signals, loader, and process tests."""

import numpy as np
import pytest

from repro.common.errors import RuntimeStackError
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.core import Session
from repro.runtime.loader import CodeObjectLoader
from repro.runtime.memory import Segment, SegmentAllocator, SimulatedMemory
from repro.runtime.packets import PACKET_BYTES, AqlDispatchPacket
from repro.runtime.process import GpuProcess
from repro.runtime.queues import AqlQueue
from repro.runtime.signals import Signal


def make_packet(**overrides):
    fields = dict(
        workgroup_size=(256, 1, 1),
        grid_size=(1024, 1, 1),
        private_segment_size=64,
        group_segment_size=512,
        kernel_object=0x20000,
        kernarg_address=0x30000,
        completion_signal=0x40000,
    )
    fields.update(overrides)
    return AqlDispatchPacket(**fields)


class TestPackets:
    def test_pack_is_64_bytes(self):
        assert len(make_packet().pack()) == PACKET_BYTES

    def test_roundtrip(self):
        p = make_packet()
        q = AqlDispatchPacket.unpack(p.pack())
        assert q == p

    def test_workgroup_size_dword_layout(self):
        """The GCN3 ABI s_loads the dword at offset 4 and bfe's the low 16
        bits (paper Table 1): it must contain wg_x | wg_y << 16."""
        raw = make_packet(workgroup_size=(192, 3, 1)).pack()
        dword = int.from_bytes(raw[4:8], "little")
        assert dword & 0xFFFF == 192
        assert (dword >> 16) & 0xFFFF == 3

    def test_grid_size_at_offset_12(self):
        raw = make_packet(grid_size=(5000, 1, 1)).pack()
        assert int.from_bytes(raw[12:16], "little") == 5000

    def test_memory_roundtrip(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 256)
        p = make_packet()
        p.write_to(mem, 0x10000)
        assert AqlDispatchPacket.read_from(mem, 0x10000) == p

    def test_invalid_sizes_rejected(self):
        with pytest.raises(RuntimeStackError):
            make_packet(workgroup_size=(0, 1, 1))
        with pytest.raises(RuntimeStackError):
            make_packet(grid_size=(0, 1, 1))

    def test_bad_unpack_length(self):
        with pytest.raises(RuntimeStackError):
            AqlDispatchPacket.unpack(b"\x00" * 10)


class TestQueues:
    def make_queue(self, capacity=4):
        mem = SimulatedMemory()
        alloc = SegmentAllocator(mem)
        base = alloc.alloc(64 * capacity)
        return AqlQueue(mem, base, capacity=capacity)

    def test_fifo_order(self):
        q = self.make_queue()
        for wg in (64, 128, 256):
            q.enqueue(make_packet(workgroup_size=(wg, 1, 1)))
        sizes = [q.dequeue().workgroup_size[0] for _ in range(3)]
        assert sizes == [64, 128, 256]

    def test_doorbell_tracks_last_index(self):
        q = self.make_queue()
        q.enqueue(make_packet())
        assert q.doorbell == 0
        q.enqueue(make_packet())
        assert q.doorbell == 1

    def test_overflow_rejected(self):
        q = self.make_queue(capacity=2)
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        with pytest.raises(RuntimeStackError):
            q.enqueue(make_packet())

    def test_wraparound(self):
        q = self.make_queue(capacity=2)
        for i in range(5):
            q.enqueue(make_packet(grid_size=(i + 1, 1, 1)))
            assert q.dequeue().grid_size[0] == i + 1

    def test_empty_dequeue(self):
        assert self.make_queue().dequeue() is None

    def test_capacity_must_be_power_of_two(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 4096)
        with pytest.raises(RuntimeStackError):
            AqlQueue(mem, 0x10000, capacity=3)


class TestSignals:
    def test_decrement_to_zero(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 8)
        sig = Signal(mem, 0x10000, initial=1)
        assert sig.value == 1
        sig.decrement()
        sig.wait_zero()  # must not raise

    def test_wait_nonzero_raises(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 8)
        sig = Signal(mem, 0x10000, initial=2)
        sig.decrement()
        with pytest.raises(RuntimeStackError):
            sig.wait_zero()

    def test_callbacks(self):
        mem = SimulatedMemory()
        mem.map_range(0x10000, 8)
        sig = Signal(mem, 0x10000)
        seen = []
        sig.on_change(seen.append)
        sig.decrement()
        assert seen == [0]


def build_trivial():
    kb = KernelBuilder("triv", [("p", DType.U64)])
    tid = kb.wi_abs_id()
    kb.store(Segment.GLOBAL, kb.kernarg("p") + kb.cvt(tid, DType.U64) * 4, tid)
    return Session().compile(kb.finish())


class TestLoader:
    def test_gcn3_code_image_written(self):
        dual = build_trivial()
        mem = SimulatedMemory()
        loader = CodeObjectLoader(SegmentAllocator(mem))
        loaded = loader.load(dual.gcn3)
        assert loaded.code_bytes == dual.gcn3.code_bytes
        image = bytes(mem.read_block(loaded.code_base, loaded.code_bytes))
        from repro.gcn3.encoding import decode_kernel

        decoded = decode_kernel(image)
        assert [d.opcode for d in decoded] == [i.opcode for i in dual.gcn3.instrs]

    def test_hsail_footprint_is_8_bytes_per_instr(self):
        dual = build_trivial()
        loader = CodeObjectLoader(SegmentAllocator(SimulatedMemory()))
        loaded = loader.load(dual.hsail)
        assert loaded.code_bytes == 8 * len(dual.hsail.instrs)

    def test_kernels_loaded_once(self):
        dual = build_trivial()
        loader = CodeObjectLoader(SegmentAllocator(SimulatedMemory()))
        a = loader.load(dual.gcn3)
        b = loader.load(dual.gcn3)
        assert a is b


class TestProcess:
    def test_dispatch_stages_everything(self):
        dual = build_trivial()
        proc = GpuProcess("gcn3")
        buf = proc.alloc_buffer(4 * 64)
        d = proc.dispatch(dual.gcn3, grid=64, wg=64, kernargs=[buf])
        # kernarg staged
        assert proc.memory.load_scalar(d.kernarg_addr, 8, track=False) == buf
        # packet readable and consistent
        pkt = AqlDispatchPacket.read_from(proc.memory, d.packet_addr)
        assert pkt.grid_size == (64, 1, 1)
        assert pkt.kernarg_address == d.kernarg_addr
        assert proc.queue.size == 1

    def test_wrong_kernarg_count_rejected(self):
        dual = build_trivial()
        proc = GpuProcess("gcn3")
        with pytest.raises(RuntimeStackError):
            proc.dispatch(dual.gcn3, grid=64, wg=64, kernargs=[])

    def test_isa_sets_allocation_policy(self):
        assert GpuProcess("hsail").allocator.policy == "per_launch"
        assert GpuProcess("gcn3").allocator.policy == "per_process"
        with pytest.raises(RuntimeStackError):
            GpuProcess("ptx")

    def test_upload_download_roundtrip(self):
        proc = GpuProcess("gcn3")
        data = np.arange(100, dtype=np.float32)
        addr = proc.upload(data)
        assert np.array_equal(proc.download(addr, np.float32, 100), data)

    def test_wavefront_accounting(self):
        dual = build_trivial()
        proc = GpuProcess("gcn3")
        buf = proc.alloc_buffer(4 * 300)
        d = proc.dispatch(dual.gcn3, grid=300, wg=128, kernargs=[buf])
        assert d.num_workgroups == 3  # ceil(300/128)
        assert d.wavefronts_per_wg == 2


def build_counter():
    """out[global id] += 1, with the id computed from the dispatch packet's
    workgroup size on GCN3 (paper Table 1)."""
    kb = KernelBuilder("count", [("p", DType.U64)])
    slot = kb.kernarg("p") + kb.cvt(kb.wi_abs_id(), DType.U64) * 4
    kb.store(Segment.GLOBAL, slot, kb.load(Segment.GLOBAL, slot, DType.U32) + 1)
    return Session().compile(kb.finish())


class TestStagingBacklog:
    """More dispatches than the 256-slot AQL ring: staging holds the
    overflow and the packet processor takes it in order."""

    DISPATCHES = 300

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_every_dispatch_runs_in_order_with_its_own_packet(self, isa):
        from repro.common.config import small_config
        from repro.timing.gpu import Gpu

        kernel = build_counter().for_isa(isa)
        proc = GpuProcess(isa)
        buf = proc.upload(np.zeros(64, dtype=np.uint32))
        # Alternate the workgroup size: a kernel reading another
        # dispatch's packet would compute the wrong ids.
        staged = [proc.dispatch(kernel, grid=64 if i % 3 else 32,
                                wg=32 if i % 2 else 64, kernargs=[buf])
                  for i in range(self.DISPATCHES)]
        assert proc.queue.size == proc.queue.capacity
        stats = Gpu(small_config(1), proc).run_all()
        assert len(stats) == self.DISPATCHES
        assert all(d.signal.value == 0 for d in staged)
        expected = np.zeros(64, dtype=np.uint32)
        for i in range(self.DISPATCHES):
            expected[:64 if i % 3 else 32] += 1
        assert np.array_equal(proc.download(buf, np.uint32, 64), expected)

    def test_packet_slots_wrap_in_dispatch_order(self):
        proc = GpuProcess("gcn3")
        kernel = build_trivial().gcn3
        buf = proc.alloc_buffer(4 * 64)
        staged = [proc.dispatch(kernel, grid=64, wg=64, kernargs=[buf])
                  for _ in range(proc.queue.capacity + 3)]
        assert staged[-1].packet_addr == staged[2].packet_addr
        for dispatch in staged:
            packet = proc.next_packet()
            assert packet == AqlDispatchPacket.read_from(proc.memory,
                                                         dispatch.packet_addr)
        assert proc.next_packet() is None

    def test_lulesh_at_scale_2_runs(self):
        """320 dispatches: staging used to raise "AQL queue overflow"."""
        run = Session().run("lulesh", "gcn3", scale=2)
        assert not run.failed and run.verified
        assert len(run.per_dispatch) > 256

    def test_a_staging_error_is_a_failed_run(self, monkeypatch):
        from repro.workloads import create

        def overflow(self, process, isa):
            raise RuntimeStackError("AQL queue overflow")

        monkeypatch.setattr(type(create("arraybw")), "stage", overflow)
        run = Session().run("arraybw", "gcn3", scale=0.1)
        assert run.failed and not run.verified
        assert run.error == "RuntimeStackError: AQL queue overflow"
