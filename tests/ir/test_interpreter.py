"""Tests for the IR interpreter, including differential tests vs codegen."""

import numpy as np
import pytest

from repro.backends.cpu.codegen import generate_cpu_module
from repro.compiler.bufferization import bufferize, insert_deallocations, remove_result_copies
from repro.compiler.cpu.lowering import CPULoweringOptions, lower_kernel_to_cpu
from repro.compiler.frontend import build_hispn_module
from repro.compiler.lower_to_lospn import lower_to_lospn
from repro.compiler.partitioning import PartitioningOptions, partition_kernel
from repro.dialects.arith import AddFOp, ConstantOp, MulFOp
from repro.dialects.func import CallOp, FuncOp, ReturnOp
from repro.dialects.math_dialect import LogOp
from repro.dialects.memref import DimOp, LoadOp, StoreOp
from repro.dialects.scf import ForOp, YieldOp
from repro.ir import Builder, MemRefType, ModuleOp, f64, index
from repro.ir.interpreter import Interpreter, InterpreterError
from repro.spn import JointProbability, log_likelihood

from ..conftest import make_discrete_spn, make_gaussian_spn


def make_module():
    module = ModuleOp.build()
    return module, Builder.at_end(module.body)


class TestBasics:
    def test_scalar_return(self):
        module, b = make_module()
        fn = b.create(FuncOp, "f", [], [f64])
        fb = Builder.at_end(fn.body)
        c = fb.create(ConstantOp, 3.5, f64)
        fb.create(ReturnOp, [c.result])
        assert Interpreter(module).call("f") == 3.5

    def test_arguments_and_arith(self):
        module, b = make_module()
        fn = b.create(FuncOp, "axpy", [f64, f64], [f64])
        fb = Builder.at_end(fn.body)
        mul = fb.create(MulFOp, fn.body.arguments[0], fn.body.arguments[1])
        log = fb.create(LogOp, mul.result)
        fb.create(ReturnOp, [log.result])
        assert Interpreter(module).call("axpy", 2.0, 4.0) == pytest.approx(np.log(8))

    def test_loop_with_carried_value(self):
        module, b = make_module()
        in_t = MemRefType((None,), f64)
        fn = b.create(FuncOp, "total", [in_t], [f64])
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
        fb.create(ReturnOp, [loop.results[0]])
        result = Interpreter(module).call("total", np.array([1.0, 2.5, 3.0]))
        assert result == 6.5

    def test_cross_function_calls(self):
        module, b = make_module()
        helper = b.create(FuncOp, "double", [f64], [f64])
        hb = Builder.at_end(helper.body)
        two = hb.create(ConstantOp, 2.0, f64)
        mul = hb.create(MulFOp, helper.body.arguments[0], two.result)
        hb.create(ReturnOp, [mul.result])
        main = b.create(FuncOp, "main", [f64], [f64])
        mb = Builder.at_end(main.body)
        call = mb.create(CallOp, "double", [main.body.arguments[0]], [f64])
        mb.create(ReturnOp, [call.results[0]])
        assert Interpreter(module).call("main", 21.0) == 42.0

    def test_unknown_function(self):
        module, _ = make_module()
        with pytest.raises(InterpreterError):
            Interpreter(module).call("missing")

    def test_argument_count_checked(self):
        module, b = make_module()
        fn = b.create(FuncOp, "f", [f64], [f64])
        Builder.at_end(fn.body).create(ReturnOp, [fn.body.arguments[0]])
        with pytest.raises(InterpreterError):
            Interpreter(module).call("f")

    def test_memref_store(self):
        module, b = make_module()
        mem = MemRefType((2,), f64)
        fn = b.create(FuncOp, "w", [mem], [])
        fb = Builder.at_end(fn.body)
        c0 = fb.create(ConstantOp, 0, index)
        v = fb.create(ConstantOp, 7.0, f64)
        fb.create(StoreOp, v.result, fn.body.arguments[0], [c0.result])
        fb.create(ReturnOp, [])
        out = np.zeros(2)
        Interpreter(module).call("w", out)
        assert out[0] == 7.0


class TestDifferentialAgainstCodegen:
    """The generated Python code and the interpreter must agree exactly
    on fully lowered SPN kernels — they implement the same semantics by
    independent mechanisms."""

    def _lowered(self, spn, options=None, partition=None):
        module = lower_to_lospn(
            build_hispn_module(spn, JointProbability(batch_size=8))
        )
        if partition:
            module, _ = partition_kernel(
                module, PartitioningOptions(max_partition_size=partition)
            )
        module = bufferize(module)
        remove_result_copies(module)
        insert_deallocations(module)
        return lower_kernel_to_cpu(module, options)

    @pytest.mark.parametrize(
        "factory,options,partition",
        [
            (make_gaussian_spn, None, None),
            (make_discrete_spn, None, None),
            (make_gaussian_spn, CPULoweringOptions(vectorize="lanes", superword_factor=1), None),
            (
                make_discrete_spn,
                CPULoweringOptions(vectorize="lanes", superword_factor=1, use_shuffle=False),
                None,
            ),
            (
                make_gaussian_spn,
                CPULoweringOptions(
                    vectorize="lanes", superword_factor=1, use_vector_library=False
                ),
                None,
            ),
            (make_gaussian_spn, None, 3),
        ],
        ids=["scalar", "discrete", "vector", "gather", "no-veclib", "partitioned"],
    )
    def test_interpreter_equals_generated_code(self, factory, options, partition, rng):
        spn = factory()
        lowered = self._lowered(spn, options, partition)
        generated = generate_cpu_module(lowered)
        interp = Interpreter(lowered)

        if factory is make_discrete_spn:
            x = np.column_stack(
                [rng.integers(0, 3, size=21), rng.uniform(-0.5, 4.5, size=21)]
            ).astype(np.float32)
        else:
            x = rng.normal(size=(21, 2)).astype(np.float32)
        out_gen = np.empty((1, 21), dtype=np.float32)
        out_int = np.empty((1, 21), dtype=np.float32)
        with np.errstate(all="ignore"):
            generated.get("spn_kernel")(x, out_gen)
        interp.call("spn_kernel", x, out_int)
        np.testing.assert_allclose(out_gen, out_int, rtol=1e-6)
        # And both match the reference oracle.
        ref = log_likelihood(spn, x.astype(np.float64))
        np.testing.assert_allclose(out_int[0], ref, rtol=2e-3, atol=1e-5)
