"""Tests for the scf, memref, vector and gpu dialects."""

import numpy as np
import pytest

from repro.dialects import gpu, memref, scf, vector
from repro.dialects.arith import ConstantOp
from repro.ir import (
    Block,
    Builder,
    IRError,
    MemRefType,
    ModuleOp,
    VectorType,
    f32,
    f64,
    index,
    verify,
)
from repro.ir.types import i64


@pytest.fixture
def index_args():
    return Block([index, index]).arguments


class TestSCF:
    def test_for_structure(self, index_args):
        c0 = ConstantOp.build(0, index)
        loop = scf.ForOp.build(c0.result, index_args[0], index_args[1], [])
        assert loop.induction_var.type == index
        assert loop.iter_args == []
        assert loop.lower is c0.result

    def test_for_iter_args(self, index_args):
        c0 = ConstantOp.build(0, index)
        init = ConstantOp.build(1.0, f32)
        loop = scf.ForOp.build(c0.result, index_args[0], index_args[1], [init.result])
        assert len(loop.results) == 1
        assert loop.results[0].type == f32
        assert loop.iter_args[0].type == f32
        assert loop.init_args == [init.result]

    def test_for_verify_checks_yield(self, index_args):
        c0 = ConstantOp.build(0, index)
        init = ConstantOp.build(1.0, f32)
        loop = scf.ForOp.build(c0.result, index_args[0], index_args[1], [init.result])
        Builder.at_end(loop.body_block).create(scf.YieldOp, [])
        with pytest.raises(IRError):
            loop.verify_op()

    def test_if_regions(self, index_args):
        from repro.dialects.arith import CmpIOp

        cond = CmpIOp.build("slt", index_args[0], index_args[1])
        op = scf.IfOp.build(cond.result, [f32])
        tb = Builder.at_end(op.then_block)
        tv = tb.create(ConstantOp, 1.0, f32)
        tb.create(scf.YieldOp, [tv.result])
        eb = Builder.at_end(op.else_block)
        ev = eb.create(ConstantOp, 2.0, f32)
        eb.create(scf.YieldOp, [ev.result])
        op.verify_op()

    def test_if_yield_type_checked(self, index_args):
        from repro.dialects.arith import CmpIOp

        cond = CmpIOp.build("slt", index_args[0], index_args[1])
        op = scf.IfOp.build(cond.result, [f32])
        tb = Builder.at_end(op.then_block)
        tv = tb.create(ConstantOp, 1.0, f64)
        tb.create(scf.YieldOp, [tv.result])
        Builder.at_end(op.else_block).create(scf.YieldOp, [])
        with pytest.raises(IRError):
            op.verify_op()


class TestMemRef:
    def test_alloc_dynamic_dims(self, index_args):
        ty = MemRefType((None, 4), f32)
        alloc = memref.AllocOp.build(ty, [index_args[0]])
        assert alloc.result.type == ty

    def test_alloc_dim_count_checked(self, index_args):
        with pytest.raises(IRError):
            memref.AllocOp.build(MemRefType((None, None), f32), [index_args[0]])

    def test_load_rank_checked(self, index_args):
        buf = memref.AllocOp.build(MemRefType((4, 4), f32), [])
        with pytest.raises(IRError):
            memref.LoadOp.build(buf.result, [index_args[0]])

    def test_load_result_type(self, index_args):
        buf = memref.AllocOp.build(MemRefType((4,), f64), [])
        load = memref.LoadOp.build(buf.result, [index_args[0]])
        assert load.result.type == f64
        assert load.buffer is buf.result

    def test_store_element_type_checked(self, index_args):
        buf = memref.AllocOp.build(MemRefType((4,), f64), [])
        value = ConstantOp.build(1.0, f32)
        with pytest.raises(IRError):
            memref.StoreOp.build(value.result, buf.result, [index_args[0]])

    def test_copy_accessors(self):
        a = memref.AllocOp.build(MemRefType((4,), f32), [])
        b = memref.AllocOp.build(MemRefType((4,), f32), [])
        cp = memref.CopyOp.build(a.result, b.result)
        assert cp.source is a.result
        assert cp.target is b.result

    def test_dim(self):
        a = memref.AllocOp.build(MemRefType((4, 8), f32), [])
        d = memref.DimOp.build(a.result, 1)
        assert d.dim == 1
        assert d.result.type == index

    def test_constant_buffer(self):
        data = np.array([0.25, 0.75])
        op = memref.ConstantBufferOp.build(data, f64)
        assert op.result.type == MemRefType((2,), f64)
        np.testing.assert_array_equal(op.data, data)


class TestVector:
    vec8 = VectorType((8,), f32)

    def test_broadcast_type_checked(self):
        s = ConstantOp.build(1.0, f64)
        with pytest.raises(IRError):
            vector.BroadcastOp.build(s.result, self.vec8)

    def test_load_store(self, index_args):
        buf = memref.AllocOp.build(MemRefType((2, None), f32), [index_args[0]])
        load = vector.LoadOp.build(buf.result, [index_args[0], index_args[1]], self.vec8)
        assert load.result.type == self.vec8
        vector.StoreOp.build(load.result, buf.result, [index_args[0], index_args[1]])

    def test_store_requires_vector(self, index_args):
        buf = memref.AllocOp.build(MemRefType((None,), f32), [index_args[0]])
        s = ConstantOp.build(1.0, f32)
        with pytest.raises(IRError):
            vector.StoreOp.build(s.result, buf.result, [index_args[0]])

    def test_gather_requires_rank2(self, index_args):
        buf = memref.AllocOp.build(MemRefType((None,), f32), [index_args[0]])
        with pytest.raises(IRError):
            vector.GatherOp.build(buf.result, index_args[0], 0, self.vec8)

    def test_load_tile_and_extract_column(self, index_args):
        buf = memref.AllocOp.build(MemRefType((None, 26), f32), [index_args[0]])
        tile = vector.LoadTileOp.build(buf.result, index_args[0], 8)
        assert tile.result.type == VectorType((8, 26), f32)
        col = vector.ExtractColumnOp.build(tile.result, 3)
        assert col.result.type == self.vec8
        assert col.column == 3

    def test_load_tile_requires_static_columns(self, index_args):
        buf = memref.AllocOp.build(
            MemRefType((None, None), f32), [index_args[0], index_args[1]]
        )
        with pytest.raises(IRError):
            vector.LoadTileOp.build(buf.result, index_args[0], 8)

    def test_extract_insert(self):
        from repro.ir import Block

        vec = Block([self.vec8]).arguments[0]
        e = vector.ExtractOp.build(vec, 2)
        assert e.result.type == f32
        s = ConstantOp.build(1.0, f32)
        ins = vector.InsertOp.build(s.result, vec, 2)
        assert ins.result.type == self.vec8

    def test_gather_table(self, index_args):
        table = memref.AllocOp.build(MemRefType((16,), f32), [])
        idx = vector.BroadcastOp.build(
            ConstantOp.build(3, i64).result, VectorType((8,), i64)
        )
        g = vector.GatherTableOp.build(table.result, idx.result)
        assert g.result.type == self.vec8

    def test_scalarized_call(self):
        from repro.ir import Block

        vec = Block([self.vec8]).arguments[0]
        call = vector.ScalarizedCallOp.build("log", vec)
        assert call.fn == "log"
        with pytest.raises(IRError):
            vector.ScalarizedCallOp.build("tanh", vec)

    def test_scalarized_call_requires_vector(self):
        s = ConstantOp.build(1.0, f32)
        with pytest.raises(IRError):
            vector.ScalarizedCallOp.build("log", s.result)


class TestRank2Vectors:
    """The sum-layer ops on ``[rows, runtime width]`` vectors."""

    row = VectorType((None,), f32)
    rows3 = VectorType((3, None), f32)

    def values(self, count, ty=None):
        return Block([ty or self.row] * count).arguments

    def test_stack_builds_rows(self):
        op = vector.StackOp.build(self.values(3))
        assert op.result.type == self.rows3
        op.verify_op()

    def test_stack_rows_must_share_a_rank1_type(self):
        mixed = list(self.values(1)) + list(self.values(1, VectorType((None,), f64)))
        with pytest.raises(IRError, match="share one type"):
            vector.StackOp.build(mixed)
        with pytest.raises(IRError, match="rank-1"):
            vector.StackOp.build(self.values(2, self.rows3))
        with pytest.raises(IRError):
            vector.StackOp.build([])

    def test_row_max_drops_the_row_axis(self):
        (rows,) = self.values(1, self.rows3)
        op = vector.RowMaxOp.build(rows)
        assert op.result.type == self.row
        assert not op.attributes
        with pytest.raises(IRError, match="rank-2"):
            vector.RowMaxOp.build(self.values(1)[0])

    def test_contract_applies_a_dense_matrix_to_the_rows(self):
        (rows,) = self.values(1, self.rows3)
        op = vector.ContractOp.build(np.ones((2, 3), np.float32), rows)
        assert op.result.type == VectorType((2, None), f32)
        assert op.weights.shape == (2, 3)

    def test_contract_weights_must_match_the_rows(self):
        (rows,) = self.values(1, self.rows3)
        with pytest.raises(IRError, match="do not match"):
            vector.ContractOp.build(np.ones((2, 4), np.float32), rows)
        with pytest.raises(IRError, match="dense"):
            vector.ContractOp.build(np.ones(3, np.float32), rows)

    def test_broadcast_repeats_a_vector_along_new_rows(self):
        (vec,) = self.values(1)
        op = vector.BroadcastOp.build(vec, self.rows3)
        assert op.result.type == self.rows3
        with pytest.raises(IRError, match="cannot repeat"):
            vector.BroadcastOp.build(vec, VectorType((3, None), f64))
        with pytest.raises(IRError, match="cannot repeat"):
            vector.BroadcastOp.build(vec, VectorType((3, 8), f32))

    def test_extract_takes_a_row_of_a_rank2_vector(self):
        (rows,) = self.values(1, self.rows3)
        op = vector.ExtractOp.build(rows, 2)
        assert op.result.type == self.row
        with pytest.raises(IRError, match="outside"):
            vector.ExtractOp.build(rows, 3)

    def test_ops_verify_inside_a_module(self):
        module = ModuleOp.build()
        from repro.dialects import func

        fn = Builder.at_end(module.body).create(
            func.FuncOp, "f", [self.row, self.row], [self.row]
        )
        b = Builder.at_end(fn.body)
        rows = b.create(vector.StackOp, list(fn.body.arguments)).result
        peak = b.create(vector.RowMaxOp, rows).result
        wide = b.create(vector.BroadcastOp, peak, rows.type).result
        sums = b.create(vector.ContractOp, np.eye(2, dtype=np.float32), wide).result
        b.create(func.ReturnOp, [b.create(vector.ExtractOp, sums, 0).result])
        verify(module)


class TestGPU:
    def test_module_and_kernels(self):
        gm = gpu.GPUModuleOp.build("kernels")
        fb = Builder.at_end(gm.body_block)
        k = fb.create(gpu.GPUFuncOp, "task_0", [MemRefType((None, 2), f32)])
        Builder.at_end(k.body).create(gpu.ReturnOp)
        assert gm.kernels() == [k]
        assert k.sym_name == "task_0"

    def test_id_ops(self):
        tid = gpu.ThreadIdOp.build("x")
        assert tid.result.type == index
        assert tid.dimension == "x"
        with pytest.raises(IRError):
            gpu.BlockIdOp.build("w")

    def test_memcpy_direction_checked(self, index_args):
        host = memref.AllocOp.build(MemRefType((4,), f32), [])
        dev = gpu.AllocOp.build(MemRefType((4,), f32), [])
        gpu.MemcpyOp.build(dev.result, host.result, gpu.H2D)
        with pytest.raises(IRError):
            gpu.MemcpyOp.build(dev.result, host.result, "sideways")

    def test_launch_accessors(self, index_args):
        dev = gpu.AllocOp.build(MemRefType((4,), f32), [])
        c = ConstantOp.build(64, index)
        launch = gpu.LaunchFuncOp.build(
            "kernels", "task_0", index_args[0], c.result, index_args[1], [dev.result]
        )
        assert launch.module_name == "kernels"
        assert launch.kernel_name == "task_0"
        assert launch.grid_size is index_args[0]
        assert launch.block_size is c.result
        assert launch.valid_count is index_args[1]
        assert launch.kernel_args == [dev.result]
