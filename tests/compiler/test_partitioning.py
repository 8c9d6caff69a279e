"""Tests for the acyclic graph partitioning pass (paper Section IV-A4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import CompilerOptions, compile_spn
from repro.compiler.frontend import build_hispn_module
from repro.compiler.lower_to_lospn import lower_to_lospn
from repro.compiler.partitioning import (
    GraphPartitioner,
    PartitioningOptions,
    op_size,
    partition_kernel,
)
from repro.dialects import lospn
from repro.spn import Gaussian, JointProbability, Product, Sum, log_likelihood, learn_spn
from repro.ir import verify

from ..conftest import make_gaussian_spn


def lowered_module(spn, batch_size=8):
    module = build_hispn_module(spn, JointProbability(batch_size=batch_size))
    return lower_to_lospn(module)


def dag_ops(module):
    body = [op for op in module.walk() if op.op_name == "lo_spn.body"][0]
    return [op for op in body.body.ops if op.op_name != "lo_spn.yield"]


class TestPartitionerCore:
    def test_single_partition_for_small_graphs(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        ops = dag_ops(module)
        partitioner = GraphPartitioner(ops, PartitioningOptions(max_partition_size=100))
        assignment = partitioner.run()
        assert partitioner.num_partitions == 1
        assert set(assignment.values()) == {0}

    def test_partition_sizes_respect_capacity(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        ops = dag_ops(module)
        options = PartitioningOptions(max_partition_size=3, balance_slack=0.01)
        partitioner = GraphPartitioner(ops, options)
        partitioner.run()
        assert all(size <= partitioner.capacity for size in partitioner.sizes)
        # Sizes are in op_size units: a sum layer weighs its s * k terms.
        assert sum(partitioner.sizes) == sum(op_size(op) for op in ops)

    def test_edges_only_go_forward(self, gaussian_spn):
        """The acyclicity invariant: no edge from a later to an earlier
        partition (producers' partitions <= consumers' partitions)."""
        module = lowered_module(gaussian_spn)
        ops = dag_ops(module)
        partitioner = GraphPartitioner(ops, PartitioningOptions(max_partition_size=3))
        assignment = partitioner.run()
        for op in ops:
            for operand in op.operands:
                producer = operand.defining_op
                if producer is not None and id(producer) in assignment:
                    assert assignment[id(producer)] <= assignment[id(op)]

    def test_child_first_ordering_groups_subtrees(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        ops = dag_ops(module)
        partitioner = GraphPartitioner(ops, PartitioningOptions(max_partition_size=4))
        order = partitioner._child_first_ordering()
        positions = {id(op): i for i, op in enumerate(order)}
        for op in ops:
            for operand in op.operands:
                producer = operand.defining_op
                if producer is not None and id(producer) in positions:
                    assert positions[id(producer)] < positions[id(op)]

    def test_refinement_never_increases_cost(self, rng):
        data = rng.normal(size=(300, 6))
        spn = learn_spn(data)
        module = lowered_module(spn)
        ops = dag_ops(module)
        options = PartitioningOptions(max_partition_size=10, refinement_rounds=3)
        partitioner = GraphPartitioner(ops, options)
        partitioner.run()
        assert partitioner.stats.final_cut_cost <= partitioner.stats.initial_cut_cost

    def test_constants_do_not_count_toward_cut(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        ops = dag_ops(module)
        partitioner = GraphPartitioner(ops, PartitioningOptions(max_partition_size=2))
        partitioner.run()
        for op in ops:
            if op.op_name == "lo_spn.constant":
                assert partitioner._value_cost(op) == 0

    def test_cost_model_store_once_load_once(self):
        """A value used by two later partitions costs 1 store + 2 loads."""
        spn = make_gaussian_spn()
        module = lowered_module(spn)
        ops = dag_ops(module)
        partitioner = GraphPartitioner(ops, PartitioningOptions(max_partition_size=3))
        partitioner.run()
        for op in ops:
            cost = partitioner._value_cost(op)
            if cost:
                part = partitioner.assignment[id(op)]
                consumers = {
                    partitioner.assignment[id(use.owner)]
                    for res in op.results
                    for use in res.uses
                    if id(use.owner) in partitioner.assignment
                } - {part}
                assert cost == 1 + len(consumers)


class TestSumLayerSizes:
    """A ``lo_spn.weighted_sum`` weighs its ``s * k`` weighted terms."""

    @staticmethod
    def layer(fan_in=36, group=6):
        from repro.testing.generators import SPNGenerator

        return SPNGenerator(0).sum_layer(fan_in, group)[0]

    def test_sizes_count_terms_not_ops(self):
        ops = dag_ops(lowered_module(self.layer()))
        sizes = [op_size(op) for op in ops]
        assert sorted(s for s in sizes if s > 1) == [6, 216]
        partitioner = GraphPartitioner(ops, PartitioningOptions(max_partition_size=100))
        partitioner.run()
        assert partitioner.num_partitions > 1  # 150 ops, but 366 units
        assert sum(partitioner.sizes) == sum(sizes)

    def test_a_layer_larger_than_a_partition_still_makes_progress(self):
        ops = dag_ops(lowered_module(self.layer()))
        partitioner = GraphPartitioner(ops, PartitioningOptions(max_partition_size=20))
        assignment = partitioner.run()
        assert set(assignment.values()) == set(range(partitioner.num_partitions))
        for op in ops:
            for operand in op.operands:
                producer = operand.defining_op
                if producer is not None and id(producer) in assignment:
                    assert assignment[id(producer)] <= assignment[id(op)]

    @pytest.mark.parametrize("max_size", [20, 60, 250])
    def test_multi_result_layers_cross_partitions(self, max_size, rng):
        """Individual results of a layer are exported to later tasks."""
        spn = self.layer(9, 6)
        x = rng.uniform(-2.0, 3.0, size=(37, 2)).astype(np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        result = compile_spn(
            spn,
            JointProbability(batch_size=16),
            CompilerOptions(max_partition_size=max_size, verify_each="structural"),
        )
        assert result.num_tasks == result.partitioning.num_partitions
        np.testing.assert_allclose(result.executable(x), ref, rtol=2e-4, atol=2e-4)


class TestKernelRewriting:
    def test_module_verifies_after_partitioning(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        new_module, stats = partition_kernel(
            module, PartitioningOptions(max_partition_size=3)
        )
        verify(new_module)
        assert stats.num_partitions > 1

    def test_task_count_matches_partitions(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        new_module, stats = partition_kernel(
            module, PartitioningOptions(max_partition_size=3)
        )
        kernel = [op for op in new_module.walk() if op.op_name == "lo_spn.kernel"][0]
        assert len(kernel.tasks()) == stats.num_partitions

    def test_small_graph_copied_unchanged(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        new_module, stats = partition_kernel(
            module, PartitioningOptions(max_partition_size=1000)
        )
        kernel = [op for op in new_module.walk() if op.op_name == "lo_spn.kernel"][0]
        assert len(kernel.tasks()) == 1

    def test_final_task_produces_single_row(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        new_module, _ = partition_kernel(
            module, PartitioningOptions(max_partition_size=3)
        )
        kernel = [op for op in new_module.walk() if op.op_name == "lo_spn.kernel"][0]
        ret = kernel.body.terminator
        assert ret.operands[0].type.shape[0] == 1

    def test_intermediate_tensors_connect_tasks(self, gaussian_spn):
        module = lowered_module(gaussian_spn)
        new_module, stats = partition_kernel(
            module, PartitioningOptions(max_partition_size=3)
        )
        kernel = [op for op in new_module.walk() if op.op_name == "lo_spn.kernel"][0]
        tasks = kernel.tasks()
        # At least one later task consumes an earlier task's result.
        consumed = any(
            operand.defining_op in tasks
            for task in tasks
            for operand in task.operands
        )
        assert consumed

    @pytest.mark.parametrize("max_size", [2, 3, 5, 7])
    def test_compiled_results_unchanged(self, gaussian_spn, gaussian_inputs, max_size):
        ref = log_likelihood(gaussian_spn, gaussian_inputs.astype(np.float64))
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16),
            CompilerOptions(max_partition_size=max_size, verify_each="structural"),
        )
        out = result.executable(gaussian_inputs)
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=1e-6)

    def test_partitioned_learned_spn(self, rng):
        data = rng.normal(size=(400, 5))
        spn = learn_spn(data)
        x = rng.normal(size=(65, 5)).astype(np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        result = compile_spn(
            spn,
            JointProbability(batch_size=16),
            CompilerOptions(max_partition_size=20, verify_each="structural"),
        )
        np.testing.assert_allclose(result.executable(x), ref, rtol=1e-3, atol=1e-5)
        assert result.num_tasks > 1

    def test_partitioning_with_marginal(self, gaussian_spn, rng):
        x = rng.normal(size=(40, 2))
        x[::4, 0] = np.nan
        ref = log_likelihood(gaussian_spn, x)
        result = compile_spn(
            gaussian_spn,
            JointProbability(batch_size=16, support_marginal=True),
            CompilerOptions(max_partition_size=3),
        )
        np.testing.assert_allclose(
            result.executable(x.astype(np.float32)), ref, rtol=1e-3, atol=1e-5
        )


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 12), st.integers(0, 1000))
def test_property_partitioning_preserves_semantics(max_size, seed):
    """Random partition sizes never change compiled results."""
    from ..conftest import make_gaussian_spn as factory

    spn = factory()
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1.5, size=(23, 2)).astype(np.float32)
    ref = log_likelihood(spn, x.astype(np.float64))
    result = compile_spn(
        spn,
        JointProbability(batch_size=8),
        CompilerOptions(max_partition_size=max_size),
    )
    np.testing.assert_allclose(result.executable(x), ref, rtol=2e-4, atol=1e-6)
