"""Tests for the end-to-end pipeline driver and the public API."""

import numpy as np
import pytest

from repro import CPUCompiler, GPUCompiler
from repro.compiler import CompilerOptions, compile_spn
from repro.spn import JointProbability, log_likelihood


class TestOptionsValidation:
    def test_unknown_target(self):
        with pytest.raises(ValueError):
            CompilerOptions(target="fpga")

    def test_opt_level_range(self):
        with pytest.raises(ValueError):
            CompilerOptions(opt_level=4)
        with pytest.raises(ValueError):
            CompilerOptions(opt_level=-1)

    def test_unknown_isa(self):
        with pytest.raises(ValueError):
            CompilerOptions(vector_isa="avx1024")


class TestStageTiming:
    def test_cpu_stage_names(self, gaussian_spn, query):
        result = compile_spn(gaussian_spn, query, CompilerOptions(opt_level=1))
        stages = list(result.stage_seconds)
        for expected in (
            "frontend",
            "hispn-simplify",
            "lower-to-lospn",
            "bufferize",
            "buffer-optimization",
            "buffer-deallocation",
            "cpu-lowering",
            "canonicalize",
            "cse",
            "licm",
            "codegen",
        ):
            assert expected in stages
        assert result.compile_time > 0

    def test_opt0_skips_optimizations(self, gaussian_spn, query):
        result = compile_spn(gaussian_spn, query, CompilerOptions(opt_level=0))
        stages = set(result.stage_seconds)
        assert "cse" not in stages
        assert "canonicalize" not in stages
        assert "buffer-optimization" not in stages

    def test_opt3_adds_extra_rounds(self, gaussian_spn, query):
        result = compile_spn(gaussian_spn, query, CompilerOptions(opt_level=3))
        stages = set(result.stage_seconds)
        assert "lospn-cse" in stages
        assert "canonicalize-3" in stages

    def test_partitioning_stage_recorded(self, gaussian_spn, query):
        result = compile_spn(
            gaussian_spn, query, CompilerOptions(max_partition_size=3)
        )
        assert "graph-partitioning" in result.stage_seconds
        assert result.partitioning is not None
        assert result.partitioning.num_partitions == result.num_tasks

    def test_gpu_stage_names(self, gaussian_spn, query):
        result = compile_spn(gaussian_spn, query, CompilerOptions(target="gpu"))
        stages = set(result.stage_seconds)
        assert "gpu-lowering" in stages
        assert "gpu-copy-elimination" in stages
        assert "gpu-codegen" in stages

    def test_ir_dumps_collected(self, gaussian_spn, query):
        result = compile_spn(
            gaussian_spn, query, CompilerOptions(collect_ir=True)
        )
        assert "lower-to-lospn" in result.ir_dumps
        assert "lo_spn.kernel" in result.ir_dumps["lower-to-lospn"]

    def test_ir_dumps_off_by_default(self, gaussian_spn, query):
        result = compile_spn(gaussian_spn, query)
        assert result.ir_dumps == {}


class TestExecutableContract:
    def test_input_shape_validated(self, gaussian_spn, query):
        result = compile_spn(gaussian_spn, query)
        with pytest.raises(ValueError):
            result.executable(np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            result.executable(np.zeros(4, dtype=np.float32))

    def test_input_dtype_coerced(self, gaussian_spn, query, gaussian_inputs):
        result = compile_spn(gaussian_spn, query)
        out64 = result.executable(gaussian_inputs.astype(np.float64))
        out32 = result.executable(gaussian_inputs)
        np.testing.assert_allclose(out64, out32)

    def test_signature_metadata(self, gaussian_spn, query):
        result = compile_spn(gaussian_spn, query)
        sig = result.executable.signature
        assert sig.num_features == 2
        assert sig.input_dtype == np.float32
        assert sig.result_dtype == np.float32
        assert sig.log_space
        assert sig.batch_size == 16

    def test_source_listing_available(self, gaussian_spn, query):
        result = compile_spn(gaussian_spn, query)
        assert "def spn_kernel" in result.executable.source

    def test_batch_size_is_only_a_hint(self, gaussian_spn, rng):
        result = compile_spn(gaussian_spn, JointProbability(batch_size=8))
        for n in (1, 7, 8, 9, 100):
            x = rng.normal(size=(n, 2)).astype(np.float32)
            assert result.executable(x).shape == (n,)

    def test_multithreaded_matches_single(self, gaussian_spn, rng):
        x = rng.normal(size=(200, 2)).astype(np.float32)
        single = compile_spn(
            gaussian_spn, JointProbability(batch_size=32), CompilerOptions()
        )
        multi = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=32),
            CompilerOptions(num_threads=4),
        )
        np.testing.assert_allclose(single.executable(x), multi.executable(x))


class TestPublicAPI:
    def test_cpu_single_call(self, gaussian_spn, gaussian_inputs):
        ref = log_likelihood(gaussian_spn, gaussian_inputs.astype(np.float64))
        out = CPUCompiler(batch_size=16).log_likelihood(gaussian_spn, gaussian_inputs)
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=1e-6)

    def test_gpu_single_call(self, gaussian_spn, gaussian_inputs):
        ref = log_likelihood(gaussian_spn, gaussian_inputs.astype(np.float64))
        compiler = GPUCompiler(batch_size=64)
        out = compiler.log_likelihood(gaussian_spn, gaussian_inputs)
        np.testing.assert_allclose(out, ref, rtol=2e-3, atol=1e-5)
        assert compiler.simulated_seconds(gaussian_spn) > 0

    def test_compilation_cached_per_spn(self, gaussian_spn, gaussian_inputs):
        compiler = CPUCompiler(batch_size=16)
        first = compiler.compile(gaussian_spn)
        second = compiler.compile(gaussian_spn)
        assert first is second

    def test_via_serialization_round_trip(self, gaussian_spn, gaussian_inputs):
        ref = log_likelihood(gaussian_spn, gaussian_inputs.astype(np.float64))
        out = CPUCompiler(batch_size=16, via_serialization=True).log_likelihood(
            gaussian_spn, gaussian_inputs
        )
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=1e-6)

    def test_target_options_forwarded(self, gaussian_spn, gaussian_inputs):
        compiler = CPUCompiler(
            batch_size=16, vectorize="lanes", vector_isa="avx512", superword_factor=2
        )
        result = compiler.compile(gaussian_spn)
        assert result.options.vectorize == "lanes"
        assert result.options.vector_isa == "avx512"

    def test_marginal_through_api(self, gaussian_spn, rng):
        x = rng.normal(size=(20, 2))
        x[::2, 0] = np.nan
        ref = log_likelihood(gaussian_spn, x)
        out = CPUCompiler(batch_size=8, support_marginal=True).log_likelihood(
            gaussian_spn, x.astype(np.float32)
        )
        np.testing.assert_allclose(out, ref, rtol=2e-3, atol=1e-5)

    def test_gpu_requires_execution_before_timing(self, gaussian_spn):
        compiler = GPUCompiler()
        with pytest.raises(RuntimeError):
            compiler.simulated_seconds(gaussian_spn)
