"""Graceful degradation: the fallback cascade behind the single-call API."""

import warnings

import numpy as np
import pytest

from repro import (
    CompilerError,
    CPUCompiler,
    ErrorCode,
    FallbackWarning,
    GPUCompiler,
    OptionsError,
)
from repro.spn import log_likelihood
from repro.testing import faults

from ..conftest import make_gaussian_spn


@pytest.fixture
def spn():
    return make_gaussian_spn()


@pytest.fixture
def inputs(rng):
    return rng.normal(0.0, 1.5, size=(200, 2))


def degraded(compiler, spn, inputs):
    """Run log_likelihood capturing FallbackWarnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = compiler.log_likelihood(spn, inputs)
    return out, [w for w in caught if issubclass(w.category, FallbackWarning)]


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(OptionsError):
            CPUCompiler(fallback="retry")

    def test_policy_is_valueerror_compatible(self):
        with pytest.raises(ValueError):
            CPUCompiler(fallback="nope")


class TestDefaultRaise:
    def test_pass_failure_raises_structured_error(self, spn, inputs, tmp_path):
        compiler = CPUCompiler(batch_size=64, artifact_dir=str(tmp_path))
        with faults.inject_pass_failure("cse"):
            with pytest.raises(CompilerError) as excinfo:
                compiler.log_likelihood(spn, inputs)
        assert excinfo.value.stage == "cse"
        assert excinfo.value.reproducer_path is not None

    def test_no_warning_on_success(self, spn, inputs):
        compiler = CPUCompiler(batch_size=64)
        out, warned = degraded(compiler, spn, inputs)
        assert not warned
        assert len(compiler.diagnostics) == 0


class TestInterpreterFallbackCPU:
    def test_pass_failure_falls_back_exactly(self, spn, inputs):
        reference = log_likelihood(spn, inputs)
        compiler = CPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_pass_failure("cse"):
            out, warned = degraded(compiler, spn, inputs)
        np.testing.assert_allclose(out, reference, atol=1e-9, rtol=0)
        assert len(warned) == 1
        # One error diagnostic naming the failed stage + one fallback record.
        errors = compiler.diagnostics.errors()
        assert len(errors) == 1
        assert errors[0].stage == "cse"
        assert compiler.diagnostics.last.code == ErrorCode.FALLBACK_INTERPRETER

    def test_codegen_failure_falls_back(self, spn, inputs):
        reference = log_likelihood(spn, inputs)
        compiler = CPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_pass_failure("codegen"):
            out, warned = degraded(compiler, spn, inputs)
        np.testing.assert_allclose(out, reference, atol=1e-9, rtol=0)
        assert len(warned) == 1
        assert compiler.diagnostics.errors()[0].stage == "codegen"

    def test_kernel_nan_detected_and_degraded(self, spn, inputs):
        reference = log_likelihood(spn, inputs)
        compiler = CPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_kernel_nan():
            out, warned = degraded(compiler, spn, inputs)
        np.testing.assert_allclose(out, reference, atol=1e-9, rtol=0)
        assert len(warned) == 1
        assert compiler.diagnostics.errors()[0].code == ErrorCode.KERNEL_NAN

    def test_transient_kernel_fault_is_not_retried(self, spn, inputs):
        # The API ladder takes zero retries: a one-shot kernel fault
        # lands on the interpreter instead of re-running the kernel.
        reference = log_likelihood(spn, inputs)
        compiler = CPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_kernel_failure(times=1) as fault:
            out, warned = degraded(compiler, spn, inputs)
        assert fault.fired == 1
        np.testing.assert_allclose(out, reference, atol=1e-9, rtol=0)
        assert len(warned) == 1
        assert len(compiler.diagnostics.errors()) == 1
        assert compiler.diagnostics.last.code == ErrorCode.FALLBACK_INTERPRETER

    def test_interpret_warns_once_per_model(self, spn, inputs):
        compiler = CPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_kernel_nan():
            _, first = degraded(compiler, spn, inputs)
            _, second = degraded(compiler, spn, inputs)
        assert len(first) == 1
        assert len(second) == 0  # deduplicated per model

    def test_warn_policy_warns_every_call(self, spn, inputs):
        compiler = CPUCompiler(batch_size=64, fallback="warn")
        with faults.inject_kernel_nan():
            _, first = degraded(compiler, spn, inputs)
            _, second = degraded(compiler, spn, inputs)
        assert len(first) == 1
        assert len(second) == 1

    def test_linear_space_fallback_exponentiates(self, spn, inputs):
        reference = np.exp(log_likelihood(spn, inputs))
        compiler = CPUCompiler(batch_size=64, fallback="interpret", use_log_space=False)
        with faults.inject_pass_failure("codegen"):
            out, _ = degraded(compiler, spn, inputs)
        np.testing.assert_allclose(out, reference, atol=1e-12, rtol=1e-9)

    def test_multi_head_fallback_shape(self, inputs):
        spns = [make_gaussian_spn(), make_gaussian_spn()]
        reference = np.stack([log_likelihood(s, inputs) for s in spns])
        compiler = CPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_pass_failure("codegen"):
            out, warned = degraded(compiler, spns, inputs)
        assert out.shape == (2, inputs.shape[0])
        np.testing.assert_allclose(out, reference, atol=1e-9, rtol=0)
        assert len(warned) == 1

    def test_classify_works_under_fallback(self, inputs):
        spns = [make_gaussian_spn(), make_gaussian_spn()]
        compiler = CPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_pass_failure("codegen"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                labels = compiler.classify(spns, inputs)
        assert labels.shape == (inputs.shape[0],)


class TestGPUCascade:
    def test_gpu_failure_lands_on_cpu_kernel(self, spn, inputs):
        reference = log_likelihood(spn, inputs)
        compiler = GPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_pass_failure("gpu-lowering"):
            out, warned = degraded(compiler, spn, inputs)
        # The CPU kernel computes in f32 for this graph depth.
        np.testing.assert_allclose(out, reference, atol=1e-5, rtol=1e-5)
        assert len(warned) == 1
        assert compiler.diagnostics.last.code == ErrorCode.FALLBACK_CPU
        assert compiler.diagnostics.errors()[0].stage == "gpu-lowering"

    def test_shared_pass_failure_cascades_to_interpreter(self, spn, inputs):
        reference = log_likelihood(spn, inputs)
        compiler = GPUCompiler(batch_size=64, fallback="interpret")
        # "cse" exists in both the GPU and CPU pipelines: both kernel
        # rungs fail, the cascade must land on the reference interpreter.
        with faults.inject_pass_failure("cse"):
            out, warned = degraded(compiler, spn, inputs)
        np.testing.assert_allclose(out, reference, atol=1e-9, rtol=0)
        assert len(warned) == 1
        assert compiler.diagnostics.last.code == ErrorCode.FALLBACK_INTERPRETER
        # Both failed rungs were recorded.
        assert len(compiler.diagnostics.errors()) == 2

    def test_gpu_oom_exhaustion_cascades(self, spn, inputs):
        reference = log_likelihood(spn, inputs)
        compiler = GPUCompiler(batch_size=64, fallback="interpret")
        # More OOM events than the simulator's retry budget: the launch
        # fails for good and the cascade takes over.
        with faults.inject_gpu_oom(after_n_launches=0, count=100):
            out, warned = degraded(compiler, spn, inputs)
        np.testing.assert_allclose(out, reference, atol=1e-5, rtol=1e-5)
        assert len(warned) == 1
        errors = compiler.diagnostics.errors()
        assert errors[0].code in (ErrorCode.DEVICE_OOM, ErrorCode.EXECUTION_FAILED)

    def test_gpu_nan_cascade_to_interpreter(self, spn, inputs):
        # NaN poisoning hits both kernels; only the interpreter is clean.
        reference = log_likelihood(spn, inputs)
        compiler = GPUCompiler(batch_size=64, fallback="interpret")
        with faults.inject_kernel_nan():
            out, warned = degraded(compiler, spn, inputs)
        np.testing.assert_allclose(out, reference, atol=1e-9, rtol=0)
        assert len(warned) == 1
        assert len(compiler.diagnostics.errors()) == 2
