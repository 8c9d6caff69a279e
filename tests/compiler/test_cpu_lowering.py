"""Tests for the CPU target lowering (scalar + vectorized)."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.compiler.bufferization import bufferize, remove_result_copies
from repro.compiler.cpu.lowering import (
    AVX2,
    AVX512,
    NEON,
    CPULoweringOptions,
    lower_kernel_to_cpu,
    scalarize_vector_math,
)
from repro.compiler.frontend import build_hispn_module
from repro.compiler.lower_to_lospn import lower_to_lospn
from repro.dialects.func import lookup_function, module_functions
from repro.ir import MemRefType, VectorType, f32, f64, verify
from repro.spn import JointProbability, log_likelihood


def ops_named(module, name):
    return [op for op in module.walk() if op.op_name == name]


@pytest.fixture
def buffered(gaussian_spn, query):
    module = lower_to_lospn(build_hispn_module(gaussian_spn, query))
    module = bufferize(module)
    remove_result_copies(module)
    return module


class TestScalarLowering:
    def test_verifies(self, buffered):
        lowered = lower_kernel_to_cpu(buffered)
        verify(lowered)

    def test_kernel_and_task_functions(self, buffered):
        lowered = lower_kernel_to_cpu(buffered)
        names = {fn.sym_name for fn in module_functions(lowered)}
        assert names == {"spn_kernel", "spn_kernel_task_0"}

    def test_kernel_calls_tasks_in_order(self, buffered):
        lowered = lower_kernel_to_cpu(buffered)
        kernel = lookup_function(lowered, "spn_kernel")
        calls = [op for op in kernel.body.ops if op.op_name == "func.call"]
        assert [c.callee for c in calls] == ["spn_kernel_task_0"]

    def test_no_spn_dialect_ops_remain(self, buffered):
        lowered = lower_kernel_to_cpu(buffered)
        for op in lowered.walk():
            assert not op.op_name.startswith("lo_spn")
            assert not op.op_name.startswith("hi_spn")

    def test_log_types_erased(self, buffered):
        lowered = lower_kernel_to_cpu(buffered)
        from repro.dialects.lospn import LogType

        for op in lowered.walk():
            for value in list(op.operands) + list(op.results):
                ty = value.type
                if isinstance(ty, MemRefType):
                    assert not isinstance(ty.element_type, LogType)
                assert not isinstance(ty, LogType)

    def test_single_batch_loop(self, buffered):
        lowered = lower_kernel_to_cpu(buffered)
        task = lookup_function(lowered, "spn_kernel_task_0")
        loops = [op for op in task.body.ops if op.op_name == "scf.for"]
        assert len(loops) == 1

    def test_gaussian_lowered_to_fused_log_pdf(self, buffered):
        """Log-space Gaussians need no exp/log: c1 - (x-m)^2 * c2."""
        lowered = lower_kernel_to_cpu(buffered)
        task = lookup_function(lowered, "spn_kernel_task_0")
        names = [op.op_name for op in task.walk()]
        assert "arith.subf" in names and "arith.mulf" in names
        # log-add-exp for the mixture: exp + log1p present.
        assert "math.exp" in names and "math.log1p" in names


class TestVectorizedLowering:
    def options(self, **kw):
        kw.setdefault("vectorize", "lanes")
        kw.setdefault("superword_factor", 4)
        return CPULoweringOptions(**kw)

    def test_vector_loop_plus_epilogue(self, buffered):
        lowered = lower_kernel_to_cpu(buffered, self.options())
        task = lookup_function(lowered, "spn_kernel_task_0")
        loops = [op for op in task.body.ops if op.op_name == "scf.for"]
        assert len(loops) == 2
        vector_loop, epilogue = loops
        assert any(
            isinstance(r.type, VectorType)
            for op in vector_loop.walk()
            for r in op.results
        )
        assert not any(
            isinstance(r.type, VectorType)
            for op in epilogue.walk()
            for r in op.results
        )

    def test_isa_lane_counts(self):
        assert AVX2.lanes(f32) == 8
        assert AVX2.lanes(f64) == 4
        assert AVX512.lanes(f32) == 16
        assert NEON.lanes(f32) == 4

    def test_vector_width_is_lanes_times_superword(self, buffered):
        lowered = lower_kernel_to_cpu(
            buffered, self.options(isa=AVX512, superword_factor=4)
        )
        widths = {
            r.type.shape[0]
            for op in lowered.walk()
            for r in op.results
            if isinstance(r.type, VectorType) and r.type.rank == 1
        }
        assert widths == {16 * 4}

    def test_shuffle_mode_uses_tiles(self, buffered):
        lowered = lower_kernel_to_cpu(buffered, self.options(use_shuffle=True))
        assert ops_named(lowered, "vector.load_tile")
        assert ops_named(lowered, "vector.extract_column")
        assert not ops_named(lowered, "vector.gather")

    def test_gather_mode(self, buffered):
        lowered = lower_kernel_to_cpu(buffered, self.options(use_shuffle=False))
        assert ops_named(lowered, "vector.gather")
        assert not ops_named(lowered, "vector.load_tile")

    def test_one_tile_load_per_input_buffer(self, buffered):
        lowered = lower_kernel_to_cpu(buffered, self.options())
        assert len(ops_named(lowered, "vector.load_tile")) == 1
        # But one column extract per used feature.
        assert len(ops_named(lowered, "vector.extract_column")) == 2

    def test_veclib_keeps_vector_math(self, buffered):
        lowered = lower_kernel_to_cpu(buffered, self.options(use_vector_library=True))
        vector_math = [
            op
            for op in lowered.walk()
            if op.op_name in ("math.exp", "math.log1p")
            and isinstance(op.results[0].type, VectorType)
        ]
        assert vector_math
        assert not ops_named(lowered, "vector.scalarized_call")

    def test_no_veclib_scalarizes(self, buffered):
        lowered = lower_kernel_to_cpu(
            buffered, self.options(use_vector_library=False)
        )
        calls = ops_named(lowered, "vector.scalarized_call")
        assert calls
        # No vector-typed transcendentals remain.
        for op in lowered.walk():
            if op.op_name in ("math.exp", "math.log", "math.log1p"):
                assert not isinstance(op.results[0].type, VectorType)

    def test_scalarize_pass_counts(self, buffered):
        lowered = lower_kernel_to_cpu(buffered, self.options())
        rewritten = scalarize_vector_math(lowered)
        assert rewritten > 0
        verify(lowered)


class TestNumericalEquivalence:
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"vectorize": "lanes", "superword_factor": 4},
            {"vectorize": "lanes", "vector_isa": "avx512", "superword_factor": 2},
            {"vectorize": "lanes", "vector_isa": "neon", "superword_factor": 2},
            {"vectorize": "lanes", "use_shuffle": False, "superword_factor": 4},
            {"vectorize": "lanes", "use_vector_library": False, "superword_factor": 2},
            {"vectorize": "lanes", "opt_level": 2, "superword_factor": 4},
            {"opt_level": 0},
            {"opt_level": 3},
        ],
    )
    def test_all_configurations_match_reference(
        self, gaussian_spn, gaussian_inputs, options
    ):
        ref = log_likelihood(gaussian_spn, gaussian_inputs.astype(np.float64))
        result = compile_spn(
            gaussian_spn, JointProbability(batch_size=16), CompilerOptions(**options)
        )
        np.testing.assert_allclose(
            result.executable(gaussian_inputs), ref, rtol=2e-3, atol=1e-5
        )

    def test_vectorized_discrete_spn(self, discrete_spn, discrete_inputs):
        ref = log_likelihood(discrete_spn, discrete_inputs.astype(np.float64))
        result = compile_spn(
            discrete_spn,
            JointProbability(batch_size=16),
            CompilerOptions(vectorize="lanes", superword_factor=4),
        )
        np.testing.assert_allclose(
            result.executable(discrete_inputs), ref, rtol=2e-3, atol=1e-5
        )

    def test_odd_batch_exercises_epilogue(self, gaussian_spn, rng):
        # batch of 13 with W = 8: 8 vector + 5 scalar epilogue samples.
        x = rng.normal(size=(13, 2)).astype(np.float32)
        ref = log_likelihood(gaussian_spn, x.astype(np.float64))
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=8),
            CompilerOptions(vectorize="lanes", superword_factor=1),
        )
        np.testing.assert_allclose(result.executable(x), ref, rtol=2e-3, atol=1e-5)

    def test_tiny_batch_smaller_than_vector(self, gaussian_spn, rng):
        x = rng.normal(size=(3, 2)).astype(np.float32)
        ref = log_likelihood(gaussian_spn, x.astype(np.float64))
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=8),
            CompilerOptions(vectorize="lanes", superword_factor=4),
        )
        np.testing.assert_allclose(result.executable(x), ref, rtol=2e-3, atol=1e-5)
