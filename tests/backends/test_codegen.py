"""Tests for the CPU Python-codegen backend."""

import numpy as np
import pytest

from repro.backends.cpu.codegen import (
    CodeGenerator,
    CodegenError,
    generate_cpu_module,
    numpy_dtype,
)
from repro.dialects.arith import AddFOp, ConstantOp, MulFOp, SubFOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.dialects.math_dialect import ExpOp, LogOp
from repro.dialects.memref import AllocOp, ConstantBufferOp, DimOp, LoadOp, StoreOp
from repro.dialects.scf import ForOp, YieldOp
from repro.ir import Builder, MemRefType, ModuleOp, VectorType, f32, f64, index
from repro.ir.types import i1, i64


def make_module():
    module = ModuleOp.build()
    return module, Builder.at_end(module.body)


class TestDtypeMapping:
    def test_float_types(self):
        assert numpy_dtype(f32) == np.float32
        assert numpy_dtype(f64) == np.float64

    def test_int_and_index(self):
        assert numpy_dtype(i64) == np.int64
        assert numpy_dtype(index) == np.int64
        assert numpy_dtype(i1) == np.bool_

    def test_log_type_uses_storage(self):
        from repro.dialects.lospn import LogType

        assert numpy_dtype(LogType(f32)) == np.float32


class TestGeneratedExecution:
    def test_scalar_arithmetic_function(self):
        module, b = make_module()
        in_t, out_t = MemRefType((1,), f64), MemRefType((1,), f64)
        fn = b.create(FuncOp, "f", [in_t, out_t], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        x = fb.create(LoadOp, fn.body.arguments[0], [c0.result])
        two = fb.create(ConstantOp, 2.0, f64)
        doubled = fb.create(MulFOp, x.result, two.result)
        fb.create(StoreOp, doubled.result, fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        gen = generate_cpu_module(module)
        out = np.zeros(1)
        gen.get("f")(np.array([21.0]), out)
        assert out[0] == 42.0

    def test_loop_with_accumulator(self):
        module, b = make_module()
        in_t, out_t = MemRefType((None,), f64), MemRefType((1,), f64)
        fn = b.create(FuncOp, "total", [in_t, out_t], [])
        fb = Builder.at_end(fn.body)
        n = fb.create(DimOp, fn.body.arguments[0], 0)
        c0 = fb.create(ConstantOp, 0, index)
        c1 = fb.create(ConstantOp, 1, index)
        zero = fb.create(ConstantOp, 0.0, f64)
        loop = fb.create(ForOp, c0.result, n.result, c1.result, [zero.result])
        lb = Builder.at_end(loop.body_block)
        value = lb.create(LoadOp, fn.body.arguments[0], [loop.induction_var])
        acc = lb.create(AddFOp, loop.iter_args[0], value.result)
        lb.create(YieldOp, [acc.result])
        fb.create(StoreOp, loop.results[0], fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        gen = generate_cpu_module(module)
        out = np.zeros(1)
        gen.get("total")(np.array([1.0, 2.0, 3.5]), out)
        assert out[0] == 6.5

    def test_guarded_scalar_log(self):
        module, b = make_module()
        in_t, out_t = MemRefType((1,), f64), MemRefType((1,), f64)
        fn = b.create(FuncOp, "g", [in_t, out_t], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        x = fb.create(LoadOp, fn.body.arguments[0], [c0.result])
        log = fb.create(LogOp, x.result)
        fb.create(StoreOp, log.result, fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        gen = generate_cpu_module(module)
        out = np.zeros(1)
        gen.get("g")(np.array([0.0]), out)
        assert out[0] == -np.inf  # libm semantics, no exception

    def test_constant_tables_are_globals(self):
        module, b = make_module()
        fn = b.create(FuncOp, "t", [MemRefType((1,), f64), MemRefType((1,), f64)], [])
        fb = Builder.at_end(fn.body)
        table = fb.create(ConstantBufferOp, np.array([10.0, 20.0, 30.0]), f64)
        c0 = fb.create(ConstantOp, 0, index)
        c2 = fb.create(ConstantOp, 2, index)
        v = fb.create(LoadOp, table.result, [c2.result])
        fb.create(StoreOp, v.result, fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        gen = generate_cpu_module(module)
        assert any(name.startswith("_tbl") for name in gen.namespace)
        out = np.zeros(1)
        gen.get("t")(np.zeros(1), out)
        assert out[0] == 30.0

    def test_unknown_op_rejected(self):
        from repro.ir import Operation

        module, b = make_module()
        fn = b.create(FuncOp, "bad", [], [])
        fb = Builder.at_end(fn.body)
        fb.insert(Operation(name="mystery.op"))
        fb.create(ReturnOp, [])
        with pytest.raises(CodegenError):
            generate_cpu_module(module)


class TestRegisterAllocation:
    def _chain_module(self, length=40):
        module, b = make_module()
        in_t, out_t = MemRefType((1,), f64), MemRefType((1,), f64)
        fn = b.create(FuncOp, "chain", [in_t, out_t], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        value = fb.create(LoadOp, fn.body.arguments[0], [c0.result]).result
        one = fb.create(ConstantOp, 1.0, f64).result
        for _ in range(length):
            value = fb.create(AddFOp, value, one).result
        fb.create(StoreOp, value, fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        return module

    def test_linear_chain_reuses_registers(self):
        module = self._chain_module(40)
        gen = generate_cpu_module(module)
        # A 40-op chain where each value dies immediately needs only a
        # handful of names, not 40.
        assert gen.stats.registers_allocated < 10
        out = np.zeros(1)
        gen.get("chain")(np.array([2.0]), out)
        assert out[0] == 42.0

    def test_stats_populated(self):
        gen = generate_cpu_module(self._chain_module(10))
        assert gen.stats.functions == 1
        assert gen.stats.ir_operations > 10
        assert gen.stats.source_lines > 10
        assert gen.stats.values_assigned > 10

    def test_deterministic_output(self):
        a = generate_cpu_module(self._chain_module(20)).source
        b = generate_cpu_module(self._chain_module(20)).source
        assert a == b

    def test_live_across_loop_not_clobbered(self):
        """A value defined before a loop and used inside must keep its
        register for the whole loop, even if the loop body churns names."""
        module, b = make_module()
        in_t, out_t = MemRefType((None,), f64), MemRefType((1,), f64)
        fn = b.create(FuncOp, "f", [in_t, out_t], [])
        fb = Builder.at_end(fn.body)
        n = fb.create(DimOp, fn.body.arguments[0], 0)
        c0 = fb.create(ConstantOp, 0, index)
        c1 = fb.create(ConstantOp, 1, index)
        bias = fb.create(ConstantOp, 100.0, f64)  # live across the loop
        zero = fb.create(ConstantOp, 0.0, f64)
        loop = fb.create(ForOp, c0.result, n.result, c1.result, [zero.result])
        lb = Builder.at_end(loop.body_block)
        x = lb.create(LoadOp, fn.body.arguments[0], [loop.induction_var])
        t1 = lb.create(AddFOp, x.result, bias.result)
        t2 = lb.create(SubFOp, t1.result, x.result)  # t1 dies here
        acc = lb.create(AddFOp, loop.iter_args[0], t2.result)
        lb.create(YieldOp, [acc.result])
        fb.create(StoreOp, loop.results[0], fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        gen = generate_cpu_module(module)
        out = np.zeros(1)
        gen.get("f")(np.array([1.0, 2.0, 3.0]), out)
        assert out[0] == 300.0


class TestVectorRegisterReuse:
    def _vector_module(self):
        from repro.dialects.vector import LoadOp as VLoadOp, StoreOp as VStoreOp

        module, b = make_module()
        vec = VectorType((4,), f64)
        in_t, out_t = MemRefType((None,), f64), MemRefType((None,), f64)
        fn = b.create(FuncOp, "vf", [in_t, out_t], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        x = fb.create(VLoadOp, fn.body.arguments[0], [c0.result], vec)
        doubled = fb.create(AddFOp, x.result, x.result)
        squared = fb.create(MulFOp, doubled.result, doubled.result)
        logged = fb.create(LogOp, squared.result)
        fb.create(VStoreOp, logged.result, fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        return module

    def test_out_parameter_used_at_reuse_mode(self):
        gen = generate_cpu_module(self._vector_module(), reuse_vector_registers=True)
        assert "out=" in gen.source
        assert "np.empty(4" in gen.source  # preallocated scratch

    def test_no_out_parameter_by_default(self):
        gen = generate_cpu_module(self._vector_module())
        assert "out=" not in gen.source

    def test_reuse_mode_matches_plain_mode(self):
        plain = generate_cpu_module(self._vector_module())
        reuse = generate_cpu_module(self._vector_module(), reuse_vector_registers=True)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out_a, out_b = np.zeros(4), np.zeros(4)
        plain.get("vf")(x, out_a)
        reuse.get("vf")(x, out_b)
        np.testing.assert_allclose(out_a, np.log((2 * x) ** 2))
        np.testing.assert_allclose(out_a, out_b)

    def test_views_never_used_as_out_targets(self):
        gen = generate_cpu_module(self._vector_module(), reuse_vector_registers=True)
        # vector.load produces a view; it must get an 'r' name, not 'v'.
        load_lines = [l for l in gen.source.splitlines() if "a0[" in l and "=" in l]
        assert load_lines
        assert all(l.strip().startswith("r") for l in load_lines)


class TestImmediates:
    """Constants and splats of constants are operand text, not statements."""

    def _module(self):
        from repro.dialects.vector import BroadcastOp, LoadOp as VLoadOp, StoreOp as VStoreOp

        module, b = make_module()
        vec = VectorType((None,), f32)
        buf = MemRefType((None,), f32)
        fn = b.create(FuncOp, "vf", [buf, buf], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        x = fb.create(VLoadOp, fn.body.arguments[0], [c0.result], vec)
        weight = fb.create(ConstantOp, -0.25, f32)
        splat = fb.create(BroadcastOp, weight.result, vec)
        shifted = fb.create(AddFOp, x.result, splat.result)
        ninf = fb.create(BroadcastOp, fb.create(ConstantOp, -np.inf, f32).result, vec)
        total = fb.create(AddFOp, shifted.result, ninf.result)
        fb.create(VStoreOp, total.result, fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        return module

    def test_constants_cost_no_statement(self):
        source = generate_cpu_module(self._module()).source
        body = [line.strip() for line in source.splitlines()[1:] if line.strip()]
        # load, add, add, store, return: nothing for 4 constants + 2 splats.
        assert len(body) == 5
        assert "(r0 + -0.25)" in source and "_NINF" in source
        assert "= -0.25" not in source and "= 0" not in source

    def test_values_are_unchanged(self):
        for reuse in (False, True):
            gen = generate_cpu_module(self._module(), reuse_vector_registers=reuse)
            x = np.array([1.0, 2.5], np.float32)
            out = np.zeros(2, np.float32)
            gen.get("vf")(x, out)
            assert np.isneginf(out).all()

    def test_a_broadcast_scalar_register_still_gets_its_own_name(self):
        """Only immediates are borrowed: a loaded scalar that is splat
        keeps a register of its own (its source's may be reused)."""
        from repro.dialects.vector import BroadcastOp, LoadOp as VLoadOp, StoreOp as VStoreOp

        module, b = make_module()
        vec = VectorType((None,), f64)
        buf = MemRefType((None,), f64)
        fn = b.create(FuncOp, "vf", [buf, buf], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        scalar = fb.create(LoadOp, fn.body.arguments[0], [c0.result])
        splat = fb.create(BroadcastOp, scalar.result, vec)
        x = fb.create(VLoadOp, fn.body.arguments[0], [c0.result], vec)
        total = fb.create(AddFOp, x.result, splat.result)
        fb.create(VStoreOp, total.result, fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])
        gen = generate_cpu_module(module)
        out = np.zeros(3)
        gen.get("vf")(np.array([10.0, 1.0, 2.0]), out)
        assert out.tolist() == [20.0, 11.0, 12.0]


class TestMinMax:
    def _module(self, ty):
        from repro.dialects.arith import MaxFOp, MinFOp
        from repro.dialects.vector import LoadOp as VLoadOp, StoreOp as VStoreOp

        module, b = make_module()
        buf = MemRefType((None,), f64)
        fn = b.create(FuncOp, "mm", [buf, buf, buf], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        c1 = fb.create(ConstantOp, 1, index)
        args = fn.body.arguments
        if isinstance(ty, VectorType):
            a = fb.create(VLoadOp, args[0], [c0.result], ty).result
            b_ = fb.create(VLoadOp, args[1], [c0.result], ty).result
        else:
            a = fb.create(LoadOp, args[0], [c0.result]).result
            b_ = fb.create(LoadOp, args[1], [c0.result]).result
        hi = fb.create(MaxFOp, a, b_).result
        lo = fb.create(MinFOp, a, b_).result
        if isinstance(ty, VectorType):
            fb.create(VStoreOp, fb.create(SubFOp, hi, lo).result, args[2], [c0.result])
        else:
            fb.create(StoreOp, hi, args[2], [c0.result])
            fb.create(StoreOp, lo, args[2], [c1.result])
        fb.create(ReturnOp, [])
        return module

    def test_vector_min_max_write_into_scratch(self):
        module = self._module(VectorType((None,), f64))
        gen = generate_cpu_module(module, reuse_vector_registers=True)
        assert "np.maximum(r0, r1, out=v0)" in gen.source
        assert "np.minimum(r0, r1, out=v1)" in gen.source
        pool = gen.buffer_pool
        a, b = np.array([1.0, 5.0, -2.0]), np.array([3.0, 4.0, -2.0])
        out = np.zeros(3)
        gen.get("mm")(a, b, out)
        warm = pool.allocations
        gen.get("mm")(a, b, out)
        assert out.tolist() == [2.0, 1.0, 0.0]
        assert pool.allocations == warm  # steady state: no fresh arrays

    def test_scalar_min_max_propagate_nan_like_the_ufuncs(self):
        from repro.ir.interpreter import Interpreter

        module = self._module(f64)
        kernel = generate_cpu_module(module).get("mm")
        for a, b in ((1.0, 2.0), (2.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (-np.inf, -np.inf)):
            out, expected = np.zeros(2), np.zeros(2)
            kernel(np.array([a]), np.array([b]), out)
            Interpreter(module).call("mm", np.array([a]), np.array([b]), expected)
            reference = [np.maximum(a, b), np.minimum(a, b)]
            np.testing.assert_array_equal(out, reference)
            np.testing.assert_array_equal(expected, reference)


class TestViewsKeepTheirSourceLive:
    def test_rows_of_a_rank2_register_survive_register_pressure(self):
        """``vector.extract`` rows are views of a scratch register: it
        must not be recycled while any row is still to be read."""
        from repro.dialects.vector import (
            ContractOp,
            ExtractOp,
            LoadOp as VLoadOp,
            StackOp,
            StoreOp as VStoreOp,
        )

        module, b = make_module()
        vec = VectorType((None,), f64)
        buf = MemRefType((None,), f64)
        fn = b.create(FuncOp, "rows", [buf, buf], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        x = fb.create(VLoadOp, fn.body.arguments[0], [c0.result], vec).result
        doubled = fb.create(AddFOp, x, x).result
        rows = fb.create(StackOp, [x, doubled]).result
        sums = fb.create(ContractOp, np.array([[1.0, 1.0], [1.0, -1.0]]), rows).result
        first = fb.create(ExtractOp, sums, 0).result   # 3x
        second = fb.create(ExtractOp, sums, 1).result  # -x
        # Churn rank-2 registers of the same shape between the views'
        # definition and their use.
        churn = fb.create(StackOp, [doubled, doubled]).result
        churn = fb.create(MulFOp, churn, churn).result
        churned = fb.create(ExtractOp, fb.create(ExpOp, churn).result, 0).result
        total = fb.create(AddFOp, fb.create(AddFOp, first, second).result, churned)
        fb.create(VStoreOp, total.result, fn.body.arguments[1], [c0.result])
        fb.create(ReturnOp, [])

        x_in = np.array([0.5, 1.0, -1.0])
        expected = 2 * x_in + np.exp((2 * x_in) ** 2)
        for reuse in (False, True):
            gen = generate_cpu_module(module, reuse_vector_registers=reuse)
            out = np.zeros(3)
            gen.get("rows")(x_in, out)
            np.testing.assert_allclose(out, expected)


def test_region_of_immediates_only_still_has_a_body():
    """A loop whose ops all became immediates needs a ``pass``."""
    module, b = make_module()
    fn = b.create(FuncOp, "f", [MemRefType((1,), f64)], [])
    fb = Builder.at_end(fn.body)
    c0 = fb.create(ConstantOp, 0, index)
    c3 = fb.create(ConstantOp, 3, index)
    c1 = fb.create(ConstantOp, 1, index)
    loop = fb.create(ForOp, c0.result, c3.result, c1.result, [])
    lb = Builder.at_end(loop.body_block)
    lb.create(ConstantOp, 2.5, f64)
    lb.create(YieldOp, [])
    fb.create(StoreOp, fb.create(ConstantOp, 7.0, f64).result, fn.body.arguments[0], [c0.result])
    fb.create(ReturnOp, [])
    out = np.zeros(1)
    generate_cpu_module(module).get("f")(out)
    assert out[0] == 7.0
