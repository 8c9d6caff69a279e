"""Tests for the GPU target lowering, copy elimination and simulation."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.compiler.bufferization import bufferize, insert_deallocations, remove_result_copies
from repro.compiler.frontend import build_hispn_module
from repro.compiler.gpu.copy_elim import eliminate_host_round_trips
from repro.compiler.gpu.lowering import GPULoweringOptions, lower_kernel_to_gpu
from repro.compiler.lower_to_lospn import lower_to_lospn
from repro.compiler.partitioning import PartitioningOptions, partition_kernel
from repro.dialects import gpu as gpu_dialect
from repro.ir import verify
from repro.spn import JointProbability, log_likelihood


def ops_named(module, name):
    return [op for op in module.walk() if op.op_name == name]


def buffered_module(spn, batch_size=16, max_partition_size=None, optimize=True):
    module = lower_to_lospn(build_hispn_module(spn, JointProbability(batch_size=batch_size)))
    if max_partition_size is not None:
        module, _ = partition_kernel(
            module, PartitioningOptions(max_partition_size=max_partition_size)
        )
    module = bufferize(module)
    if optimize:
        remove_result_copies(module)
    insert_deallocations(module)
    return module


class TestKernelGeneration:
    def test_verifies(self, gaussian_spn):
        lowered = lower_kernel_to_gpu(buffered_module(gaussian_spn))
        verify(lowered)

    def test_one_gpu_func_per_task(self, gaussian_spn):
        module = buffered_module(gaussian_spn, max_partition_size=3)
        lowered = lower_kernel_to_gpu(module)
        gpu_module = ops_named(lowered, "gpu.module")[0]
        kernel = [op for op in module.walk() if op.op_name == "lo_spn.kernel"][0]
        assert len(gpu_module.kernels()) == len(kernel.tasks())

    def test_kernel_computes_global_thread_id(self, gaussian_spn):
        lowered = lower_kernel_to_gpu(buffered_module(gaussian_spn))
        gpu_fn = ops_named(lowered, "gpu.func")[0]
        names = [op.op_name for op in gpu_fn.walk()]
        assert "gpu.thread_id" in names
        assert "gpu.block_id" in names
        assert "gpu.block_dim" in names
        assert names[-1] == "gpu.func"
        assert gpu_fn.body.terminator.op_name == "gpu.return"

    def test_discrete_leaves_become_select_cascades(self, discrete_spn):
        lowered = lower_kernel_to_gpu(buffered_module(discrete_spn))
        gpu_fn = ops_named(lowered, "gpu.func")[0]
        names = [op.op_name for op in gpu_fn.walk()]
        assert "arith.select" in names
        # No table lookups inside GPU kernels (paper Section IV-C).
        assert "memref.constant_buffer" not in names
        assert "vector.gather_table" not in names

    def test_block_size_attribute(self, gaussian_spn):
        lowered = lower_kernel_to_gpu(
            buffered_module(gaussian_spn), GPULoweringOptions(block_size=128)
        )
        launches = ops_named(lowered, "gpu.launch_func")
        from repro.dialects.arith import constant_value

        assert all(constant_value(l.block_size) == 128 for l in launches)


class TestHostLowering:
    def test_host_function_structure(self, gaussian_spn):
        lowered = lower_kernel_to_gpu(buffered_module(gaussian_spn))
        host = ops_named(lowered, "func.func")[0]
        names = [op.op_name for op in host.body.ops]
        assert "gpu.alloc" in names
        assert "gpu.memcpy" in names
        assert "gpu.launch_func" in names
        assert "gpu.dealloc" in names

    def test_input_uploaded_once(self, gaussian_spn):
        lowered = lower_kernel_to_gpu(buffered_module(gaussian_spn, max_partition_size=3))
        host = ops_named(lowered, "func.func")[0]
        h2d = [
            op
            for op in host.body.ops
            if op.op_name == "gpu.memcpy"
            and op.direction == "h2d"
            and op.src in host.body.arguments
        ]
        assert len(h2d) == 1

    def test_naive_form_round_trips_intermediates(self, gaussian_spn):
        module = buffered_module(gaussian_spn, max_partition_size=3)
        lowered = lower_kernel_to_gpu(module)
        memcpys = ops_named(lowered, "gpu.memcpy")
        d2h = [m for m in memcpys if m.direction == "d2h"]
        h2d = [m for m in memcpys if m.direction == "h2d"]
        # One d2h per task output + uploads per intermediate consumer.
        assert len(d2h) >= 3
        assert len(h2d) >= 2

    def test_copy_elimination_removes_round_trips(self, gaussian_spn):
        module = buffered_module(gaussian_spn, max_partition_size=3)
        lowered = lower_kernel_to_gpu(module)
        before = len(ops_named(lowered, "gpu.memcpy"))
        removed = eliminate_host_round_trips(lowered)
        after = len(ops_named(lowered, "gpu.memcpy"))
        assert removed > 0
        assert after == before - removed
        verify(lowered)
        # Exactly the input upload + final download remain.
        assert after == 2

    def test_copy_elimination_keeps_kernel_output(self, gaussian_spn):
        module = buffered_module(gaussian_spn, max_partition_size=3)
        lowered = lower_kernel_to_gpu(module)
        eliminate_host_round_trips(lowered)
        host = ops_named(lowered, "func.func")[0]
        d2h = [
            op
            for op in ops_named(lowered, "gpu.memcpy")
            if op.direction == "d2h"
        ]
        assert len(d2h) == 1
        assert d2h[0].dst in host.body.arguments

    def test_grid_covers_batch(self, gaussian_spn):
        lowered = lower_kernel_to_gpu(buffered_module(gaussian_spn))
        launch = ops_named(lowered, "gpu.launch_func")[0]
        # grid = (n + B - 1) // B computed from the dynamic batch size.
        grid_producer = launch.grid_size.defining_op
        assert grid_producer.op_name == "arith.divsi"


class TestExecutionEquivalence:
    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_results_match_reference(self, gaussian_spn, gaussian_inputs, opt_level):
        ref = log_likelihood(gaussian_spn, gaussian_inputs.astype(np.float64))
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu", opt_level=opt_level),
        )
        np.testing.assert_allclose(
            result.executable(gaussian_inputs), ref, rtol=2e-3, atol=1e-5
        )

    def test_gpu_matches_cpu_bitwise_structure(self, gaussian_spn, gaussian_inputs):
        """GPU kernels run the same arithmetic: results agree tightly."""
        cpu = compile_spn(
            gaussian_spn, JointProbability(batch_size=16), CompilerOptions()
        )
        gpu = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu"),
        )
        np.testing.assert_allclose(
            cpu.executable(gaussian_inputs),
            gpu.executable(gaussian_inputs),
            rtol=1e-4,
        )

    def test_partitioned_gpu(self, gaussian_spn, gaussian_inputs):
        ref = log_likelihood(gaussian_spn, gaussian_inputs.astype(np.float64))
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu", max_partition_size=3, verify_each="structural"),
        )
        np.testing.assert_allclose(
            result.executable(gaussian_inputs), ref, rtol=2e-3, atol=1e-5
        )

    def test_marginal_on_gpu(self, gaussian_spn, rng):
        x = rng.normal(size=(50, 2))
        x[::3, 1] = np.nan
        ref = log_likelihood(gaussian_spn, x)
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16, support_marginal=True),
            CompilerOptions(target="gpu"),
        )
        np.testing.assert_allclose(
            result.executable(x.astype(np.float32)), ref, rtol=2e-3, atol=1e-5
        )

    def test_discrete_cascade_matches_reference(self, discrete_spn, discrete_inputs):
        ref = log_likelihood(discrete_spn, discrete_inputs.astype(np.float64))
        result = compile_spn(
            discrete_spn,
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu"),
        )
        np.testing.assert_allclose(
            result.executable(discrete_inputs), ref, rtol=2e-3, atol=1e-5
        )


class TestProfile:
    def test_profile_records_transfers_and_launches(self, gaussian_spn, gaussian_inputs):
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu"),
        )
        result.executable(gaussian_inputs)
        profile = result.executable.last_profile
        assert len(profile.transfers) == 2
        assert len(profile.launches) == 1
        assert profile.total_seconds > 0
        assert 0 < profile.transfer_fraction < 1
        assert profile.bytes_moved == gaussian_inputs.nbytes + len(gaussian_inputs) * 4

    def test_copy_elim_reduces_bytes_moved(self, gaussian_spn, gaussian_inputs):
        naive = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu", max_partition_size=3, opt_level=0),
        )
        optimized = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu", max_partition_size=3, opt_level=1),
        )
        naive.executable(gaussian_inputs)
        optimized.executable(gaussian_inputs)
        assert (
            optimized.executable.last_profile.bytes_moved
            < naive.executable.last_profile.bytes_moved
        )

    def test_simulated_seconds_accessor(self, gaussian_spn, gaussian_inputs):
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu"),
        )
        with pytest.raises(RuntimeError):
            result.executable.simulated_seconds()
        result.executable(gaussian_inputs)
        assert result.executable.simulated_seconds() > 0
