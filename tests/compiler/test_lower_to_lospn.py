"""Tests for the HiSPN → LoSPN lowering."""

import math

import pytest

from repro.compiler.bufferization import bufferize
from repro.compiler.cpu.lowering import lower_kernel_to_cpu
from repro.compiler.frontend import build_hispn_module
from repro.compiler.lower_to_lospn import (
    DEPTH_F64_THRESHOLD,
    LoweringError,
    decide_computation_type,
    graph_depth,
    lower_to_lospn,
)
from repro.dialects import lospn
from repro.ir import f32, f64, verify
from repro.spn import Gaussian, JointProbability, Product, Sum

from ..conftest import make_deep_spn, make_gaussian_spn


def ops_named(module, name):
    return [op for op in module.walk() if op.op_name == name]


@pytest.fixture
def lowered(gaussian_spn, query):
    module = build_hispn_module(gaussian_spn, query)
    return lower_to_lospn(module)


class TestStructure:
    def test_verifies(self, lowered):
        verify(lowered)

    def test_single_kernel_single_task(self, lowered):
        kernels = ops_named(lowered, "lo_spn.kernel")
        assert len(kernels) == 1
        assert len(kernels[0].tasks()) == 1
        assert kernels[0].sym_name == "spn_kernel"

    def test_task_batch_size_from_query(self, gaussian_spn):
        module = build_hispn_module(gaussian_spn, JointProbability(batch_size=123))
        lowered = lower_to_lospn(module)
        task = ops_named(lowered, "lo_spn.task")[0]
        assert task.batch_size == 123

    def test_binarization(self, lowered):
        """No variadic arithmetic: every mul/add has exactly 2 operands."""
        for name in ("lo_spn.mul", "lo_spn.add"):
            for op in ops_named(lowered, name):
                assert len(op.operands) == 2

    def test_sum_becomes_one_weighted_sum(self, lowered):
        """sum(a, b; w) stays n-ary: one weighted_sum, no constants/adds."""
        (layer,) = ops_named(lowered, "lo_spn.weighted_sum")
        assert len(layer.operands) == 2 and len(layer.results) == 1
        assert ops_named(lowered, "lo_spn.add") == []
        assert ops_named(lowered, "lo_spn.constant") == []
        # Only the 2 product nodes multiply (1 mul each).
        assert len(ops_named(lowered, "lo_spn.mul")) == 2

    def test_weights_stay_linear_in_log_space(self, lowered):
        """The attribute holds mixture weights; emitters take the log."""
        (layer,) = ops_named(lowered, "lo_spn.weighted_sum")
        assert isinstance(layer.results[0].type, lospn.LogType)
        assert layer.weights.tolist() == [[0.3, 0.7]]

    def test_sums_over_one_child_list_share_a_layer(self, query):
        leaves = [Gaussian(0, float(i), 1.0) for i in range(3)]
        heads = [Sum(leaves, w) for w in ([0.2, 0.3, 0.5], [0.6, 0.3, 0.1])]
        other = Sum(leaves[:2], [0.5, 0.5])
        spn = Sum(heads + [other], [0.25, 0.25, 0.5])
        lowered = lower_to_lospn(build_hispn_module(spn, query))
        verify(lowered)
        shapes = sorted(
            op.weights.shape for op in ops_named(lowered, "lo_spn.weighted_sum")
        )
        # `other` and the root are layers of one; the heads are grouped.
        assert shapes == [(1, 2), (1, 3), (2, 3)]

    def test_batch_extract_per_used_feature(self, lowered):
        extracts = ops_named(lowered, "lo_spn.batch_extract")
        assert sorted(op.static_index for op in extracts) == [0, 1]

    def test_unused_features_not_extracted(self, query):
        # SPN over features {0, 2} of a 3-feature space.
        spn = Product([Gaussian(0, 0.0, 1.0), Gaussian(2, 1.0, 1.0)])
        # Artificially widen the scope by adding feature 1's sibling graph:
        # simpler: the graph has 2 features here; check extraction count.
        module = build_hispn_module(spn, query)
        lowered = lower_to_lospn(module)
        extracts = ops_named(lowered, "lo_spn.batch_extract")
        assert len(extracts) == 2

    def test_marginal_flag_propagates(self, gaussian_spn):
        module = build_hispn_module(
            gaussian_spn, JointProbability(support_marginal=True)
        )
        lowered = lower_to_lospn(module)
        for leaf in ops_named(lowered, "lo_spn.gaussian"):
            assert leaf.support_marginal

    def test_kernel_return_uses_task_result(self, lowered):
        kernel = ops_named(lowered, "lo_spn.kernel")[0]
        ret = kernel.body.terminator
        assert ret.op_name == "lo_spn.kernel_return"
        assert ret.operands[0].defining_op.op_name == "lo_spn.task"

    def test_zero_weight_becomes_neg_inf(self, query):
        spn = Sum(
            [Gaussian(0, 0.0, 1.0), Gaussian(0, 1.0, 1.0)], [1.0, 1e-300]
        )
        spn.weights = [1.0, 0.0]  # force an exactly-zero weight
        module = build_hispn_module(spn, query)
        lowered = lower_to_lospn(module)
        (layer,) = ops_named(lowered, "lo_spn.weighted_sum")
        assert layer.weights.tolist() == [[1.0, 0.0]]
        # The scalar recipe turns the zero weight into a log-space -inf.
        cpu = lower_kernel_to_cpu(bufferize(lowered))
        values = [op.attributes["value"] for op in ops_named(cpu, "arith.constant")]
        assert -math.inf in values


class TestTypeDecision:
    def test_shallow_graph_uses_log_f32(self, gaussian_spn, query):
        module = build_hispn_module(gaussian_spn, query)
        qop = ops_named(module, "hi_spn.joint_query")[0]
        decision = decide_computation_type(qop)
        assert decision.use_log_space
        assert decision.float_type == f32
        assert decision.computation_type == lospn.LogType(f32)

    def test_deep_graph_uses_log_f64(self, query):
        deep = make_deep_spn(depth=DEPTH_F64_THRESHOLD)
        module = build_hispn_module(deep, query)
        qop = ops_named(module, "hi_spn.joint_query")[0]
        decision = decide_computation_type(qop)
        assert decision.float_type == f64

    def test_linear_space_forces_f64(self, gaussian_spn, query):
        module = build_hispn_module(gaussian_spn, query)
        qop = ops_named(module, "hi_spn.joint_query")[0]
        decision = decide_computation_type(qop, use_log_space=False)
        assert not decision.use_log_space
        assert decision.computation_type == f64

    def test_forced_type_respected(self, gaussian_spn, query):
        module = build_hispn_module(gaussian_spn, query)
        qop = ops_named(module, "hi_spn.joint_query")[0]
        decision = decide_computation_type(qop, force_float_type=f64)
        assert decision.float_type == f64

    def test_graph_depth(self, gaussian_spn, query):
        module = build_hispn_module(gaussian_spn, query)
        qop = ops_named(module, "hi_spn.joint_query")[0]
        assert graph_depth(qop.graph) == 3  # leaf -> product -> sum

    def test_leaf_types_follow_decision(self, gaussian_spn, query):
        module = build_hispn_module(gaussian_spn, query)
        lowered = lower_to_lospn(module, use_log_space=False)
        for leaf in ops_named(lowered, "lo_spn.gaussian"):
            assert leaf.results[0].type == f64

    def test_empty_module_rejected(self):
        from repro.ir import ModuleOp

        with pytest.raises(LoweringError):
            lower_to_lospn(ModuleOp.build())
