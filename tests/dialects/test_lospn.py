"""Tests for the LoSPN dialect (paper Table II)."""

import numpy as np
import pytest

from repro.dialects import lospn
from repro.ir import (
    Builder,
    IRError,
    MemRefType,
    ModuleOp,
    TensorType,
    f32,
    f64,
    index,
    parse_module,
    print_op,
    verify,
)


log_f32 = lospn.LogType(f32)


class TestLogType:
    def test_spelling(self):
        assert log_f32.spelling() == "!lo_spn.log<f32>"
        assert lospn.LogType(f64).spelling() == "!lo_spn.log<f64>"

    def test_requires_float_base(self):
        from repro.ir.types import i32

        with pytest.raises(ValueError):
            lospn.LogType(i32)

    def test_storage_type(self):
        assert lospn.storage_type(log_f32) == f32
        assert lospn.storage_type(f64) == f64

    def test_is_log_type(self):
        assert lospn.is_log_type(log_f32)
        assert not lospn.is_log_type(f32)

    def test_parse(self):
        from repro.ir import parse_type_text

        assert parse_type_text("!lo_spn.log<f32>") == log_f32


def build_kernel_with_task(ct=log_f32):
    module = ModuleOp.build()
    b = Builder.at_end(module.body)
    in_ty = TensorType((None, 2), f32)
    out_ty = TensorType((1, None), ct)
    kernel = b.create(lospn.KernelOp, "k", [in_ty], [out_ty])
    kb = Builder.at_end(kernel.body)
    task = kb.create(lospn.TaskOp, [kernel.body.arguments[0]], 8, [out_ty])
    tb = Builder.at_end(task.body)
    x0 = tb.create(lospn.BatchExtractOp, task.input_args[0], task.batch_index, 0)
    x1 = tb.create(lospn.BatchExtractOp, task.input_args[0], task.batch_index, 1)
    body = tb.create(lospn.BodyOp, [x0.result, x1.result], [ct])
    bb = Builder.at_end(body.body)
    g0 = bb.create(lospn.GaussianOp, body.body.arguments[0], 0.0, 1.0, ct)
    g1 = bb.create(lospn.GaussianOp, body.body.arguments[1], 1.0, 2.0, ct)
    mul = bb.create(lospn.MulOp, g0.result, g1.result)
    bb.create(lospn.YieldOp, [mul.result])
    tb.create(lospn.BatchCollectOp, task.batch_index, [body.results[0]])
    kb.create(lospn.KernelReturnOp, [task.results[0]])
    return module, kernel, task, body


class TestKernelTaskBody:
    def test_structure_verifies(self):
        module, kernel, task, body = build_kernel_with_task()
        verify(module)
        assert kernel.tasks() == [task]
        assert task.batch_size == 8

    def test_round_trip(self):
        module, *_ = build_kernel_with_task()
        text = print_op(module)
        reparsed = parse_module(text)
        verify(reparsed)
        assert print_op(reparsed) == text

    def test_task_requires_index_argument(self):
        task = lospn.TaskOp(
            operands=[], result_types=[], attributes={"batchSize": 4}, regions=1
        )
        from repro.ir import Block

        task.regions[0].append_block(Block([f32]))
        with pytest.raises(IRError):
            task.verify_op()

    def test_body_yield_types_checked(self):
        module, kernel, task, body = build_kernel_with_task()
        term = body.body.terminator
        bb = Builder.before_op(term)
        const = bb.create(lospn.ConstantOp, 0.5, f32)  # not the log type
        old = term.operands[0]
        term.set_operand(0, const.result)
        with pytest.raises(IRError):
            verify(module)
        term.set_operand(0, old)
        verify(module)

    def test_kernel_signature_mismatch_detected(self):
        module, kernel, *_ = build_kernel_with_task()
        kernel.attributes["arg_types"] = (TensorType((None, 3), f32),)
        with pytest.raises(IRError):
            verify(module)


class TestBatchAccess:
    def test_batch_extract_types(self):
        module, kernel, task, _ = build_kernel_with_task()
        extract = task.body.first_op
        assert extract.op_name == "lo_spn.batch_extract"
        assert extract.result.type == f32
        assert extract.static_index == 0
        assert not extract.transposed

    def test_batch_extract_requires_tensor(self):
        mem = MemRefType((None, 2), f32)
        module = ModuleOp.build()
        kernel = Builder.at_end(module.body).create(lospn.KernelOp, "k", [mem], [])
        kb = Builder.at_end(kernel.body)
        task = kb.create(lospn.TaskOp, [kernel.body.arguments[0]], 4, [])
        with pytest.raises(IRError):
            lospn.BatchExtractOp.build(task.input_args[0], task.batch_index, 0)

    def test_batch_read_requires_memref(self):
        module, kernel, task, _ = build_kernel_with_task()
        with pytest.raises(IRError):
            lospn.BatchReadOp.build(task.input_args[0], task.batch_index, 0)

    def test_batch_collect_shapes(self):
        module, kernel, task, body = build_kernel_with_task()
        collect = [
            op for op in task.body.ops if op.op_name == "lo_spn.batch_collect"
        ][0]
        assert collect.result.type == TensorType((1, None), log_f32)
        assert collect.transposed

    def test_batch_collect_requires_values(self):
        module, kernel, task, _ = build_kernel_with_task()
        with pytest.raises(IRError):
            lospn.BatchCollectOp.build(task.batch_index, [])

    def test_batch_write_requires_memref(self):
        module, kernel, task, body = build_kernel_with_task()
        with pytest.raises(IRError):
            lospn.BatchWriteOp.build(
                task.input_args[0], task.batch_index, [body.results[0]]
            )


class TestArithmeticOps:
    def test_mul_add_type_check(self):
        module, _, _, body = build_kernel_with_task()
        bb = Builder.at_end(body.body)
        lin = lospn.ConstantOp.build(0.5, f32)
        logv = lospn.ConstantOp.build(-0.5, log_f32)
        with pytest.raises(IRError):
            lospn.MulOp.build(lin.result, logv.result)

    def test_constant_payload(self):
        c = lospn.ConstantOp.build(-1.25, log_f32)
        assert c.value == -1.25
        assert c.result.type == log_f32

    def test_log_exp_conversions(self):
        lin = lospn.ConstantOp.build(0.5, f32)
        log_op = lospn.LogOp.build(lin.result)
        assert log_op.result.type == log_f32
        exp_op = lospn.ExpOp.build(log_op.result)
        assert exp_op.result.type == f32

    def test_log_rejects_log_input(self):
        logv = lospn.ConstantOp.build(-0.5, log_f32)
        with pytest.raises(IRError):
            lospn.LogOp.build(logv.result)

    def test_exp_requires_log_input(self):
        lin = lospn.ConstantOp.build(0.5, f32)
        with pytest.raises(IRError):
            lospn.ExpOp.build(lin.result)


class TestWeightedSum:
    @staticmethod
    def children(count, ty=log_f32):
        return [lospn.ConstantOp.build(-float(i), ty).result for i in range(count)]

    def test_one_result_per_weight_row(self):
        op = lospn.WeightedSumOp.build(
            self.children(3), [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0]]
        )
        op.verify_op()
        assert [r.type for r in op.results] == [log_f32, log_f32]
        assert op.weights.shape == (2, 3)
        assert op.weights.dtype == np.float64

    def test_a_single_sum_is_a_layer_of_one(self):
        op = lospn.WeightedSumOp.build(self.children(2), [0.4, 0.6])
        op.verify_op()
        assert len(op.results) == 1 and op.weights.tolist() == [[0.4, 0.6]]

    def test_weight_shape_must_match_children_and_results(self):
        op = lospn.WeightedSumOp.build(self.children(3), [[0.2, 0.3, 0.5]])
        op.attributes["weights"] = np.ones((1, 2))
        with pytest.raises(IRError, match="weights are"):
            op.verify_op()
        op.attributes["weights"] = np.ones((2, 3))
        with pytest.raises(IRError, match="weights are"):
            op.verify_op()

    def test_weights_must_be_finite_and_non_negative(self):
        for bad in (-0.1, float("nan"), float("inf")):
            op = lospn.WeightedSumOp.build(self.children(2), [[0.5, bad]])
            with pytest.raises(IRError, match="finite"):
                op.verify_op()

    def test_children_must_share_the_result_type(self):
        mixed = self.children(1) + self.children(1, f32)
        op = lospn.WeightedSumOp.build(mixed, [[0.5, 0.5]])
        with pytest.raises(IRError, match="share one type"):
            op.verify_op()

    def test_requires_children(self):
        with pytest.raises(IRError):
            lospn.WeightedSumOp.build([], [[]])


class TestLeaves:
    def test_leaf_result_types(self):
        module, _, _, body = build_kernel_with_task()
        arg = body.body.arguments[0]
        g = lospn.GaussianOp.build(arg, 0.0, 1.0, log_f32, support_marginal=True)
        assert g.result.type == log_f32
        assert g.support_marginal
        c = lospn.CategoricalOp.build(arg, [0.5, 0.5], f64)
        assert c.result.type == f64
        h = lospn.HistogramOp.build(arg, [0, 1, 2], [0.4, 0.6], log_f32)
        assert h.probabilities == (0.4, 0.6)

    def test_table2_inventory(self):
        expected = {
            "lo_spn.kernel",
            "lo_spn.task",
            "lo_spn.body",
            "lo_spn.batch_extract",
            "lo_spn.batch_read",
            "lo_spn.batch_collect",
            "lo_spn.batch_write",
            "lo_spn.mul",
            "lo_spn.add",
            "lo_spn.weighted_sum",
            "lo_spn.histogram",
            "lo_spn.categorical",
            "lo_spn.gaussian",
        }
        from repro.ir import registered_dialects

        names = {cls.name for cls in registered_dialects()["lo_spn"].op_classes}
        assert expected <= names
