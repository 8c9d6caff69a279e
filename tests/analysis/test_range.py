"""Tests for the log-space numeric-range analysis."""

import math

from repro.dialects import lospn
from repro.dialects.func import FuncOp, ReturnOp
from repro.diagnostics import Severity
from repro.ir import Builder, ModuleOp, f64
from repro.ir.analysis import AnalysisContext, RangeAnalysis, run_analysis, run_checks
from repro.ir.analysis.lattices import LOG_F64_MIN, Interval
from repro.ir.analysis.range_analysis import HISTOGRAM_EPSILON

LOG_F64 = lospn.LogType(f64)


class _CaptureRange(RangeAnalysis):
    """Range analysis that keeps the function exit state for assertions."""

    def __init__(self):
        self.final = {}

    def finish_function(self, func, state, ctx):
        self.final.update(state)


def _func_with_evidence():
    module = ModuleOp.build()
    fn = Builder.at_end(module.body).create(FuncOp, "f", [f64], [])
    return module, fn, Builder.at_end(fn.body), fn.body.arguments[0]


def _intervals(module):
    analysis = _CaptureRange()
    run_analysis(analysis, module, AnalysisContext())
    return analysis.final


def _range_findings(module):
    return run_checks(module, checks=["range"], phase="final")


class TestLeafSeeding:
    def test_gaussian_linear_interval_is_zero_to_peak(self):
        module, fn, fb, x = _func_with_evidence()
        leaf = fb.create(lospn.GaussianOp, x, 0.0, 2.0, f64)
        fb.create(ReturnOp, [])
        interval = _intervals(module)[leaf.results[0]]
        peak = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
        assert interval.lo == 0.0
        assert math.isclose(interval.hi, peak)

    def test_gaussian_log_interval_is_unbounded_below(self):
        module, fn, fb, x = _func_with_evidence()
        leaf = fb.create(lospn.GaussianOp, x, 0.0, 1.0, LOG_F64)
        fb.create(ReturnOp, [])
        interval = _intervals(module)[leaf.results[0]]
        assert interval.lo == -math.inf
        assert math.isclose(interval.hi, math.log(1.0 / math.sqrt(2.0 * math.pi)))

    def test_categorical_interval_spans_probability_table(self):
        module, fn, fb, x = _func_with_evidence()
        leaf = fb.create(lospn.CategoricalOp, x, [0.1, 0.6, 0.3], f64)
        fb.create(ReturnOp, [])
        interval = _intervals(module)[leaf.results[0]]
        assert interval == Interval(0.1, 0.6)

    def test_support_marginal_adds_unit_probability(self):
        module, fn, fb, x = _func_with_evidence()
        leaf = fb.create(
            lospn.CategoricalOp, x, [0.1, 0.4], f64, support_marginal=True
        )
        fb.create(ReturnOp, [])
        interval = _intervals(module)[leaf.results[0]]
        assert interval == Interval(0.1, 1.0)

    def test_histogram_zero_bucket_floored_at_epsilon(self):
        # The emitters floor zero-density buckets at HISTOGRAM_EPSILON;
        # the analysis must model the lowered value, not the raw table.
        module, fn, fb, x = _func_with_evidence()
        leaf = fb.create(
            lospn.HistogramOp, x, [0.0, 1.0, 2.0], [0.0, 1.0], LOG_F64
        )
        fb.create(ReturnOp, [])
        interval = _intervals(module)[leaf.results[0]]
        assert math.isclose(interval.lo, math.log(HISTOGRAM_EPSILON))
        assert interval.hi == 0.0


class TestArithmeticTransfer:
    def test_log_mul_adds_intervals(self):
        module, fn, fb, x = _func_with_evidence()
        a = fb.create(lospn.CategoricalOp, x, [0.5], LOG_F64)
        b = fb.create(lospn.CategoricalOp, x, [0.25], LOG_F64)
        product = fb.create(lospn.MulOp, a.results[0], b.results[0])
        fb.create(ReturnOp, [])
        interval = _intervals(module)[product.results[0]]
        assert math.isclose(interval.lo, math.log(0.125))
        assert math.isclose(interval.hi, math.log(0.125))

    def test_log_add_is_logaddexp(self):
        module, fn, fb, x = _func_with_evidence()
        a = fb.create(lospn.CategoricalOp, x, [0.5], LOG_F64)
        b = fb.create(lospn.CategoricalOp, x, [0.25], LOG_F64)
        total = fb.create(lospn.AddOp, a.results[0], b.results[0])
        fb.create(ReturnOp, [])
        interval = _intervals(module)[total.results[0]]
        assert math.isclose(interval.hi, math.log(0.75))

    def test_weighted_sum_transfers_one_interval_per_result(self):
        module, fn, fb, x = _func_with_evidence()
        a = fb.create(lospn.CategoricalOp, x, [0.5], LOG_F64)
        b = fb.create(lospn.CategoricalOp, x, [0.25, 0.125], LOG_F64)
        layer = fb.create(
            lospn.WeightedSumOp,
            [a.results[0], b.results[0]],
            [[0.5, 0.5], [1.0, 0.0]],
        )
        fb.create(ReturnOp, [])
        intervals = _intervals(module)
        mixed, first_only = (intervals[r] for r in layer.results)
        assert math.isclose(mixed.lo, math.log(0.5 * 0.5 + 0.5 * 0.125))
        assert math.isclose(mixed.hi, math.log(0.5 * 0.5 + 0.5 * 0.25))
        # A zero weight removes its child from the row entirely.
        assert math.isclose(first_only.lo, math.log(0.5))
        assert math.isclose(first_only.hi, math.log(0.5))

    def test_linear_weighted_sum_is_a_weighted_interval_sum(self):
        module, fn, fb, x = _func_with_evidence()
        a = fb.create(lospn.CategoricalOp, x, [0.5], f64)
        b = fb.create(lospn.CategoricalOp, x, [0.25, 0.125], f64)
        layer = fb.create(
            lospn.WeightedSumOp, [a.results[0], b.results[0]], [[0.2, 0.8]]
        )
        fb.create(ReturnOp, [])
        interval = _intervals(module)[layer.results[0]]
        assert math.isclose(interval.lo, 0.2 * 0.5 + 0.8 * 0.125)
        assert math.isclose(interval.hi, 0.2 * 0.5 + 0.8 * 0.25)

    def test_weighted_sum_results_are_judged(self):
        module, fn, fb, x = _func_with_evidence()
        tiny = fb.create(lospn.ConstantOp, -800.0, LOG_F64)
        fb.create(lospn.WeightedSumOp, [tiny.results[0]] * 2, [[0.5, 0.5]] * 2)
        fb.create(ReturnOp, [])
        notes = [f for f in _range_findings(module) if f.check == "range.proven-underflow"]
        assert len(notes) >= 2  # both results of the layer

    def test_evidence_reads_are_unknown(self):
        module = ModuleOp.build()
        from repro.ir.types import MemRefType

        kernel = Builder.at_end(module.body).create(
            lospn.KernelOp, "k", [MemRefType((None, 1), f64)]
        )
        kb = Builder.at_end(kernel.body)
        task = kb.create(lospn.TaskOp, [kernel.body.arguments[0]], 8)
        tb = Builder.at_end(task.body)
        read = tb.create(
            lospn.BatchReadOp, task.input_args[0], task.batch_index, 0
        )
        kb.create(lospn.KernelReturnOp)
        interval = _intervals(module)[read.results[0]]
        assert interval.lo == -math.inf and interval.hi == math.inf
        # ... and unknown evidence must not produce range findings.
        assert _range_findings(module) == []


class TestJudgments:
    def test_proven_underflow_note_on_deep_log_product(self):
        # log(1e-200) ~ -460.5; the product of two such leaves sits at
        # ~ -921, entirely below log(DBL_MIN): linear evaluation is
        # *proven* to flush to zero, which is exactly the paper's case
        # for log-space computation.
        module, fn, fb, x = _func_with_evidence()
        a = fb.create(lospn.CategoricalOp, x, [1e-200], LOG_F64)
        b = fb.create(lospn.CategoricalOp, x, [1e-200], LOG_F64)
        fb.create(lospn.MulOp, a.results[0], b.results[0])
        fb.create(ReturnOp, [])
        findings = _range_findings(module)
        notes = [f for f in findings if f.check == "range.proven-underflow"]
        assert len(notes) == 1
        assert notes[0].severity == Severity.NOTE
        assert notes[0].op_path and "lo_spn.mul" in notes[0].op_path
        lo, hi = notes[0].detail["interval"]
        assert hi <= LOG_F64_MIN

    def test_no_underflow_note_for_ordinary_log_values(self):
        module, fn, fb, x = _func_with_evidence()
        a = fb.create(lospn.CategoricalOp, x, [0.5], LOG_F64)
        b = fb.create(lospn.CategoricalOp, x, [0.25], LOG_F64)
        fb.create(lospn.MulOp, a.results[0], b.results[0])
        fb.create(ReturnOp, [])
        assert _range_findings(module) == []

    def test_linear_underflow_warning_on_tiny_probability(self):
        # 1e-320 sits below the smallest positive *normal* f64.
        module, fn, fb, x = _func_with_evidence()
        fb.create(lospn.CategoricalOp, x, [1e-320, 0.5], f64)
        fb.create(ReturnOp, [])
        findings = _range_findings(module)
        warnings = [f for f in findings if f.check == "range.linear-underflow"]
        assert len(warnings) == 1
        assert warnings[0].severity == Severity.WARNING
        assert "log space" in warnings[0].message

    def test_linear_product_flushing_to_zero_still_warns(self):
        # 1e-200 * 1e-200 flushes to exactly 0.0 in the analysis' own
        # arithmetic; positivity of the bound must survive the flush so
        # the underflow is still reported.
        module, fn, fb, x = _func_with_evidence()
        a = fb.create(lospn.ConstantOp, 1e-200, f64)
        b = fb.create(lospn.ConstantOp, 1e-200, f64)
        product = fb.create(lospn.MulOp, a.results[0], b.results[0])
        fb.create(ReturnOp, [])
        interval = _intervals(module)[product.results[0]]
        assert interval.hi > 0.0
        findings = _range_findings(module)
        assert "range.linear-underflow" in {f.check for f in findings}

    def test_literal_constants_are_not_hazards(self):
        module, fn, fb, x = _func_with_evidence()
        fb.create(lospn.ConstantOp, 0.0, f64)
        fb.create(ReturnOp, [])
        assert _range_findings(module) == []

    def test_overflow_warning_on_degenerate_gaussian(self):
        # stddev -> 0 sends the PDF peak to +inf in linear space.
        module, fn, fb, x = _func_with_evidence()
        fb.create(lospn.GaussianOp, x, 0.0, 0.0, f64)
        fb.create(ReturnOp, [])
        findings = _range_findings(module)
        assert "range.overflow" in {f.check for f in findings}
