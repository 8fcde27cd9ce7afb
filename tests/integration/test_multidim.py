"""Multi-dimensional (2-D/3-D) dispatch tests."""

import numpy as np
import pytest

from repro.common.config import small_config
from repro.common.errors import FinalizerError
from repro.common.exec_types import DispatchContext
from repro.common.lanes import Wavefronts
from repro.core import Session, run_dispatch_functional
from repro.kernels.dsl import KernelBuilder
from repro.kernels.types import DType
from repro.runtime.memory import Segment
from repro.runtime.process import GpuProcess
from repro.timing.gpu import Gpu


def build_coords_kernel():
    """out[y*W + x] = x * 1000 + y, addressed from 2-D ids."""
    kb = KernelBuilder("coords", [("out", DType.U64), ("width", DType.U32)])
    x = kb.wi_abs_id(0)
    y = kb.wi_abs_id(1)
    flat = kb.mad(y, kb.kernarg("width"), 0) + x
    value = kb.mad(x, 1000, 0) + y
    kb.store(Segment.GLOBAL,
             kb.kernarg("out") + kb.cvt(flat, DType.U64) * 4, value)
    return Session().compile(kb.finish())


class TestDispatchContext:
    """The launch geometry of a set of wavefronts, computed once per
    state (``Wavefronts``): per-lane ids and the initial EXEC, one row
    per context."""

    def make(self, grid, wg, *wavefronts):
        """One state over the ``(wg_id, wf_index)`` wavefronts."""
        return Wavefronts(None, [
            DispatchContext(grid_size=grid, wg_size=wg, wg_id=wg_id,
                            wf_index_in_wg=wf_index)
            for wg_id, wf_index in wavefronts], 2)

    def test_local_ids_x_fastest(self):
        state = self.make((32, 8, 1), (16, 4, 1), ((0, 0, 0), 0),
                          ((1, 1, 0), 0))
        lx, ly, _lz = state.local_ids
        assert lx.shape == ly.shape == (2, 64)
        for row in range(2):
            assert lx[row, 0] == 0 and lx[row, 15] == 15
            assert lx[row, 16] == 0 and ly[row, 16] == 1
            assert ly[row, 63] == 3 and lx[row, 63] == 15

    def test_absolute_ids_offset_by_workgroup(self):
        state = self.make((32, 8, 1), (16, 4, 1), ((0, 0, 0), 0),
                          ((1, 1, 0), 0))
        ax, ay, _az = state.absolute_ids
        assert ax[0, 0] == 0 and ay[0, 0] == 0
        assert ax[1, 0] == 16 and ay[1, 0] == 4
        assert ax[1, 63] == 31 and ay[1, 63] == 7

    def test_ragged_edge_mask_interleaved(self):
        # grid 10x6, wg 16x4: lanes with x >= 10 are dead in every
        # workgroup, and so are the rows with y >= 6 of workgroup (0,1)
        state = self.make((10, 6, 1), (16, 4, 1), ((0, 0, 0), 0),
                          ((0, 1, 0), 0))
        mask = state.exec
        assert mask[0, 9] and not mask[0, 10]     # first row cut at x=10
        assert mask[0, 16] and not mask[0, 26]    # second row likewise
        assert mask[1, 25] and not mask[1, 32]    # y=6 is off the grid
        assert mask.sum(axis=1).tolist() == [40, 20]  # 10 x 4, 10 x 2

    def test_second_wavefront_of_3d_wg(self):
        # 128 work-items: 64 lanes per z=16-item layer pair, so wf 1
        # starts at z=4; both wavefronts of the workgroup in one state
        state = self.make((4, 4, 8), (4, 4, 8), ((0, 0, 0), 0),
                          ((0, 0, 0), 1))
        lx, ly, lz = state.local_ids
        assert lz[0, 0] == 0 and lz[1, 0] == 4 and lz[1, 63] == 7
        flat = lx + 4 * ly + 16 * lz
        assert flat.ravel().tolist() == list(range(128))
        assert state.exec.all()

    def test_workgroup_decomposition(self):
        from repro.runtime.process import Dispatch

        # use the pure function via a staged dispatch
        dual = build_coords_kernel()
        proc = GpuProcess("gcn3")
        out = proc.alloc_buffer(4 * 32 * 8)
        d = proc.dispatch(dual.gcn3, grid=(32, 8, 1), wg=(16, 4, 1),
                          kernargs=[out, 32])
        assert d.num_workgroups == 4
        assert d.workgroup_id(0) == (0, 0, 0)
        assert d.workgroup_id(1) == (1, 0, 0)
        assert d.workgroup_id(2) == (0, 1, 0)
        assert d.workgroup_id(3) == (1, 1, 0)


class TestAbi2D:
    def test_gcn3_kernel_declares_dims(self):
        dual = build_coords_kernel()
        assert dual.gcn3.abi_dims == 2

    def test_y_sequence_in_preamble(self):
        """The Table-1 sequence repeats for Y: bfe of the high half of the
        packed sizes dword, s_mul by s9, v_add with v1."""
        from repro.gcn3.isa import SImm, SReg, VReg

        dual = build_coords_kernel()
        instrs = dual.gcn3.instrs
        bfes = [i for i in instrs if i.opcode == "s_bfe_u32"]
        patterns = {i.srcs[1].pattern for i in bfes if isinstance(i.srcs[1], SImm)}
        assert 0x100000 in patterns          # offset 0, width 16 (X)
        assert 0x100010 in patterns          # offset 16, width 16 (Y)
        muls = [i for i in instrs if i.opcode == "s_mul_i32"]
        assert any(SReg(9) in m.srcs for m in muls)   # workgroup id Y
        adds = [i for i in instrs if i.opcode == "v_add_u32"]
        assert any(VReg(1) in a.srcs for a in adds)   # local id Y

    def test_packed_dword_loaded_once(self):
        dual = build_coords_kernel()
        loads = [i for i in dual.gcn3.instrs if i.opcode == "s_load_dword"]
        wg_size_loads = [i for i in loads if i.attrs.get("offset") == 4]
        assert len(wg_size_loads) == 1  # shared by the X and Y extracts

    def test_private_with_2d_rejected(self):
        kb = KernelBuilder("bad", [("out", DType.U64)])
        s = kb.private_scratch(8)
        kb.store(Segment.PRIVATE, s, kb.wi_abs_id(1))
        with pytest.raises(FinalizerError):
            Session().compile(kb.finish())


class TestExecution2D:
    GRID = (48, 24, 1)
    WG = (16, 8, 1)

    def expected(self):
        w, h = self.GRID[0], self.GRID[1]
        xs, ys = np.meshgrid(np.arange(w), np.arange(h))
        return (xs * 1000 + ys).astype(np.uint32).reshape(-1)

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_functional(self, isa):
        dual = build_coords_kernel()
        proc = GpuProcess(isa)
        n = self.GRID[0] * self.GRID[1]
        out = proc.alloc_buffer(4 * n)
        proc.dispatch(dual.for_isa(isa), grid=self.GRID, wg=self.WG,
                      kernargs=[out, self.GRID[0]])
        run_dispatch_functional(proc, proc.dispatches[0])
        assert np.array_equal(proc.download(out, np.uint32, n), self.expected())

    @pytest.mark.parametrize("isa", ["hsail", "gcn3"])
    def test_timing(self, isa):
        dual = build_coords_kernel()
        proc = GpuProcess(isa)
        n = self.GRID[0] * self.GRID[1]
        out = proc.alloc_buffer(4 * n)
        proc.dispatch(dual.for_isa(isa), grid=self.GRID, wg=self.WG,
                      kernargs=[out, self.GRID[0]])
        stats = Gpu(small_config(2), proc).run_all()[0]
        assert np.array_equal(proc.download(out, np.uint32, n), self.expected())
        assert stats.simd_utilization.value == 1.0  # aligned 2-D grid

    def test_ragged_2d_grid(self):
        dual = build_coords_kernel()
        grid = (30, 10, 1)  # not a multiple of the 16x8 workgroup
        proc = GpuProcess("gcn3")
        n = grid[0] * grid[1]
        out = proc.alloc_buffer(4 * n)
        proc.dispatch(dual.gcn3, grid=grid, wg=self.WG, kernargs=[out, grid[0]])
        run_dispatch_functional(proc, proc.dispatches[0])
        xs, ys = np.meshgrid(np.arange(grid[0]), np.arange(grid[1]))
        expected = (xs * 1000 + ys).astype(np.uint32).reshape(-1)
        assert np.array_equal(proc.download(out, np.uint32, n), expected)


class TestExecution3D:
    def test_3d_ids(self):
        kb = KernelBuilder("vox", [("out", DType.U64), ("w", DType.U32),
                                   ("h", DType.U32)])
        x, y, z = kb.wi_abs_id(0), kb.wi_abs_id(1), kb.wi_abs_id(2)
        flat = kb.mad(z, kb.kernarg("h"), y)
        flat = kb.mad(flat, kb.kernarg("w"), x)
        value = ((z << 16) | (y << 8)) | x
        kb.store(Segment.GLOBAL,
                 kb.kernarg("out") + kb.cvt(flat, DType.U64) * 4, value)
        dual = Session().compile(kb.finish())
        assert dual.gcn3.abi_dims == 3

        grid = (8, 4, 4)
        n = 8 * 4 * 4
        outs = {}
        for isa in ("hsail", "gcn3"):
            proc = GpuProcess(isa)
            out = proc.alloc_buffer(4 * n)
            proc.dispatch(dual.for_isa(isa), grid=grid, wg=(8, 4, 2),
                          kernargs=[out, 8, 4])
            run_dispatch_functional(proc, proc.dispatches[0])
            outs[isa] = proc.download(out, np.uint32, n)
        zs, ys, xs = np.meshgrid(np.arange(4), np.arange(4), np.arange(8),
                                 indexing="ij")
        expected = ((zs << 16) | (ys << 8) | xs).astype(np.uint32).reshape(-1)
        assert np.array_equal(outs["gcn3"], expected)
        assert np.array_equal(outs["hsail"], outs["gcn3"])
