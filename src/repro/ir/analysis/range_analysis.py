"""Log-space numeric-range analysis over LoSPN ops.

An interval-lattice dataflow analysis (see :mod:`.lattices`) that makes
the paper's log-space argument a statically checkable fact. Intervals
are seeded from the *parameters* of the leaf distributions:

- ``lo_spn.gaussian`` — the PDF peaks at ``1/(σ√(2π))`` and decays to 0
  in the tails, so the linear interval is ``[0, peak]`` and the log
  interval ``[-inf, log(peak)]``;
- ``lo_spn.categorical`` — the stored probability table (plus 1.0 when
  ``supportMarginal`` allows the marginalized branch);
- ``lo_spn.histogram`` — the bucket probabilities with the compiler's
  ``HISTOGRAM_EPSILON`` floor applied, exactly as the emitters lower
  them (zero-density buckets become ``1e-12``, not 0).

Intervals then flow through ``lo_spn.mul`` / ``lo_spn.add`` with the
type-directed semantics of ``!lo_spn.log<T>`` (mul is interval addition
in log space, add is log-add-exp), through ``lo_spn.weighted_sum`` (one
interval per result: the weighted terms of that row folded with the
same add) and through ``lo_spn.log`` / ``lo_spn.exp`` conversions. Plain ``arith`` ops propagate intervals
silently — after backend lowering the guarded log-sum-exp expansion
*intentionally* underflows ``exp(lo - hi)`` for distant operands, so
only LoSPN-level probability values are judged:

- ``range.proven-underflow`` (NOTE) — a log-space value whose entire
  interval lies at or below ``log(DBL_MIN)``: evaluating the same
  expression in linear space is *proven* to flush to zero, i.e. the
  log-space representation is required, not a stylistic choice.
- ``range.linear-underflow`` (WARNING) — a non-log intermediate whose
  interval reaches below the smallest positive normal f64 (it can
  denormalize or flush to exactly 0, silently zeroing every product
  above it).
- ``range.overflow`` (WARNING) — a non-log intermediate that can reach
  ``±inf`` (e.g. ``lo_spn.exp`` of an unbounded log value).
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

from ...diagnostics import Severity
from ..ops import Operation, Region
from ..value import Value
from .engine import AnalysisContext, DataflowAnalysis, register_check, run_analysis
from .lattices import (
    BOTTOM,
    F64_MIN,
    LOG_F64_MIN,
    LOG_UNIT,
    TOP,
    UNIT,
    Interval,
)

#: Probability floor the emitters apply to zero-density histogram buckets
#: (mirrors ``repro.compiler.emitters.HISTOGRAM_EPSILON``).
HISTOGRAM_EPSILON = 1e-12


def _is_log(value: Value) -> bool:
    from ...dialects.lospn import is_log_type

    return is_log_type(value.type)


def _gaussian_peak(stddev: float) -> float:
    if stddev <= 0:
        return math.inf
    return 1.0 / (stddev * math.sqrt(2.0 * math.pi))


class RangeAnalysis(DataflowAnalysis):
    """Interval propagation over LoSPN probability computations.

    Alongside intervals the analysis carries an *evidence taint*: values
    derived from raw model inputs (``lo_spn.input_value`` evidence /
    noise / moment columns, ``batch_read`` / ``batch_extract`` feature
    loads) are arbitrary reals, not probabilities, so range judgments do
    not apply to them or to arithmetic mixing them in — while untainted
    probability arithmetic (leaf distributions and their combinations)
    is still judged precisely. Leaf distributions *consume* evidence and
    produce probabilities, so taint does not flow through them.

    Kernels whose ``queryPlan`` declares ``kind == "expectation"``
    compute likelihood-weighted moments in linear space by design
    (moments have no log-space representation), so the linear-space
    underflow/overflow judgments are suppressed for them.
    """

    name = "range"

    def __init__(self) -> None:
        self._tainted: set = set()
        self._linear_by_design = False

    def initial_state(self, func: Operation, ctx: AnalysisContext) -> Any:
        self._tainted = set()
        self._linear_by_design = _is_linear_by_design(func)
        return {}

    def join_facts(self, a: Interval, b: Interval) -> Interval:
        return a.join(b)

    def widen_states(self, old: Any, new: Any) -> Any:
        widened = dict(new)
        for key, fact in old.items():
            if key in widened:
                widened[key] = fact.widen(widened[key])
            else:
                widened[key] = fact
        return widened

    # -- region hooks ------------------------------------------------------

    def enter_region(
        self, op: Operation, region: Region, state: Any, ctx: AnalysisContext
    ) -> Any:
        if not region.blocks:
            return state
        args = region.entry_block.arguments
        if op.op_name == "lo_spn.body":
            for arg, operand in zip(args, op.operands):
                fact = state.get(operand)
                if fact is not None:
                    state[arg] = fact
                if operand in self._tainted:
                    self._tainted.add(arg)
        elif op.op_name == "lo_spn.task":
            for arg, operand in zip(args[1:], op.operands):
                fact = state.get(operand)
                if fact is not None:
                    state[arg] = fact
                if operand in self._tainted:
                    self._tainted.add(arg)
        return state

    # -- transfer ----------------------------------------------------------

    #: Arithmetic through which evidence taint flows operand → result.
    _TAINT_PROPAGATING = frozenset(
        {
            "lo_spn.mul",
            "lo_spn.add",
            "lo_spn.weighted_sum",
            "lo_spn.max",
            "lo_spn.log",
            "lo_spn.exp",
            "lo_spn.select_max",
        }
    )

    def transfer(self, op: Operation, state: Any, ctx: AnalysisContext) -> Any:
        self._propagate_taint(op)
        if op.op_name == "lo_spn.weighted_sum":
            intervals = self._weighted_sums(op, state)
        else:
            interval = self._evaluate(op, state)
            intervals = () if interval is None else (interval,)
        for result, interval in zip(op.results, intervals):
            state[result] = interval
            self._judge(op, result, interval, ctx)
        return state

    def _weighted_sums(self, op: Operation, state: Any):
        """One interval per result of a sum layer: row ``j`` folds
        ``weights[j, i] * child_i`` over the children."""
        children = self._facts(op, state)
        log = _is_log(op.results[0])
        intervals = []
        for row in op.attributes["weights"]:
            total = None
            for child, weight in zip(children, row):
                if log:
                    term = child.add(Interval.point(_log(float(weight))))
                    total = term if total is None else total.logaddexp(term)
                else:
                    term = child.mul(Interval.point(float(weight)))
                    total = term if total is None else total.add(term)
            intervals.append(total)
        return intervals

    def _propagate_taint(self, op: Operation) -> None:
        if not op.results:
            return
        name = op.op_name
        if name == "lo_spn.input_value":
            # Raw evidence / noise column / moment value: not a
            # probability, whatever type it is stored in.
            self._tainted.update(op.results)
            return
        if name in ("lo_spn.batch_extract", "lo_spn.batch_read"):
            # Feature loads from the input tensor (transposed=False) are
            # evidence; transposed reads pull imported intermediate
            # probability rows and stay judged.
            if not op.attributes.get("transposed", False):
                self._tainted.update(op.results)
            return
        if (
            name in self._TAINT_PROPAGATING
            or name.startswith("arith.")
            or name.startswith("math.")
        ) and any(operand in self._tainted for operand in op.operands):
            self._tainted.update(op.results)

    def _evaluate(self, op: Operation, state: Any) -> Optional[Interval]:
        name = op.op_name
        if not op.results:
            return None
        result = op.results[0]

        if name == "lo_spn.gaussian":
            peak = _gaussian_peak(op.attributes.get("stddev", 1.0))
            if _is_log(result):
                return Interval(-math.inf, _log(peak))
            return Interval(0.0, peak)
        if name == "lo_spn.categorical":
            probs = list(op.attributes.get("probabilities", ()))
            if op.attributes.get("supportMarginal", False):
                probs.append(1.0)
            return self._table_interval(probs, log=_is_log(result), floor=None)
        if name == "lo_spn.histogram":
            probs = list(op.attributes.get("probabilities", ()))
            if op.attributes.get("supportMarginal", False):
                probs.append(1.0)
            return self._table_interval(
                probs, log=_is_log(result), floor=HISTOGRAM_EPSILON
            )
        if name == "lo_spn.constant":
            return Interval.point(op.attributes.get("value", 0.0))
        if name == "lo_spn.mul":
            lhs, rhs = self._facts(op, state)
            if _is_log(result):
                return lhs.add(rhs)
            product = lhs.mul(rhs)
            if (
                not product.is_bottom
                and product.hi == 0.0
                and lhs.hi > 0.0
                and rhs.hi > 0.0
            ):
                # The product of two positive bounds flushed to zero in
                # the analysis' own f64 arithmetic — the ultimate
                # underflow proof. Keep "can be a positive subnormal"
                # rather than losing positivity to the flush.
                product = Interval(product.lo, 5e-324)
            return product
        if name == "lo_spn.add":
            lhs, rhs = self._facts(op, state)
            return lhs.logaddexp(rhs) if _is_log(result) else lhs.add(rhs)
        if name == "lo_spn.max":
            # Raw-value max in both spaces (log storage is monotone).
            lhs, rhs = self._facts(op, state)
            return lhs.max_with(rhs)
        if name == "lo_spn.log":
            (operand,) = self._facts(op, state)
            return operand.log()
        if name == "lo_spn.exp":
            (operand,) = self._facts(op, state)
            return operand.exp()
        if name in ("lo_spn.batch_extract", "lo_spn.batch_read"):
            # Evidence features: statically unknown.
            return TOP
        if name == "lo_spn.select_max":
            # (scoreA, scoreB, payloadA, payloadB) — the result is the
            # payload of whichever score wins, so its interval is the
            # join of the payload intervals (MPE traceback argmax and
            # sampling noise-perturbed selection both lower to this).
            if len(op.operands) >= 4:
                payload_a = self._fact(op.operands[2], state)
                payload_b = self._fact(op.operands[3], state)
                return payload_a.join(payload_b)
            return TOP
        if name == "lo_spn.input_value":
            # Raw evidence / noise / moment value forwarded into the
            # body; its range is the input domain, statically unknown.
            return TOP
        if name == "arith.constant":
            payload = op.attributes.get("value")
            if isinstance(payload, bool) or not isinstance(
                payload, (int, float)
            ):
                return None
            return Interval.point(float(payload))
        if name == "arith.addf":
            lhs, rhs = self._facts(op, state)
            return lhs.add(rhs)
        if name == "arith.subf":
            lhs, rhs = self._facts(op, state)
            return lhs.sub(rhs)
        if name == "arith.mulf":
            lhs, rhs = self._facts(op, state)
            return lhs.mul(rhs)
        if name == "arith.negf":
            (operand,) = self._facts(op, state)
            return operand.neg()
        if name == "arith.maxf":
            lhs, rhs = self._facts(op, state)
            return lhs.max_with(rhs)
        if name == "arith.minf":
            lhs, rhs = self._facts(op, state)
            return lhs.min_with(rhs)
        if name == "math.exp":
            (operand,) = self._facts(op, state)
            return operand.exp()
        if name == "math.log":
            (operand,) = self._facts(op, state)
            return operand.log()
        return None

    def _facts(self, op: Operation, state: Any):
        return tuple(self._fact(operand, state) for operand in op.operands)

    def _fact(self, value: Value, state: Any) -> Interval:
        fact = state.get(value)
        if fact is not None:
            return fact
        # Unseen values (function args, loop-carried, vectors): unknown,
        # except values typed as probabilities whose bound is structural.
        if _is_log(value):
            return LOG_UNIT
        return TOP

    @staticmethod
    def _table_interval(probs, log: bool, floor: Optional[float]) -> Interval:
        if not probs:
            return BOTTOM
        if floor is not None:
            probs = [max(p, floor) for p in probs]
        if log:
            return Interval.of(_log(p) for p in probs)
        return Interval.of(probs)

    # -- judgments ---------------------------------------------------------

    #: Ops whose result is a probability (linear or log). Evidence reads
    #: (batch_extract/batch_read) carry arbitrary reals and are exempt.
    _PROBABILITY_OPS = frozenset(
        {
            "lo_spn.gaussian",
            "lo_spn.categorical",
            "lo_spn.histogram",
            "lo_spn.mul",
            "lo_spn.add",
            "lo_spn.weighted_sum",
            "lo_spn.max",
            "lo_spn.log",
            "lo_spn.exp",
            "lo_spn.constant",
        }
    )

    def _judge(
        self,
        op: Operation,
        result: Value,
        interval: Interval,
        ctx: AnalysisContext,
    ) -> None:
        if interval.is_bottom or op.op_name not in self._PROBABILITY_OPS:
            return
        if result in self._tainted:
            # Evidence-derived value (noise columns, moment pairs, MPE
            # traceback payloads): arbitrary reals, not probabilities.
            return
        if _is_log(result):
            if interval.hi <= LOG_F64_MIN:
                ctx.report(
                    "range.proven-underflow",
                    Severity.NOTE,
                    f"linear-space evaluation of this value is proven to "
                    f"underflow f64: its log-space interval "
                    f"[{interval.lo:.6g}, {interval.hi:.6g}] lies entirely "
                    f"at or below log(DBL_MIN) ≈ {LOG_F64_MIN:.6g}; the "
                    f"log-space representation is load-bearing here",
                    op=op,
                    interval=(interval.lo, interval.hi),
                )
            return
        if op.op_name == "lo_spn.constant":
            # A literal 0.0 (or tiny) weight is the model's own choice,
            # not an arithmetic hazard.
            return
        if self._linear_by_design:
            # Expectation kernels weight moments by linear-space
            # likelihoods on purpose; flagging every product would bury
            # real findings (moments have no log-space representation).
            return
        if 0.0 < F64_MIN and interval.lo < F64_MIN and interval.hi > 0.0:
            ctx.report(
                "range.linear-underflow",
                Severity.WARNING,
                f"non-log intermediate can underflow f64: interval "
                f"[{interval.lo:.6g}, {interval.hi:.6g}] reaches below the "
                f"smallest positive normal ({F64_MIN:.6g}); compute in "
                f"log space (!lo_spn.log) to keep it representable",
                op=op,
                interval=(interval.lo, interval.hi),
            )
        if math.isinf(interval.hi) or math.isinf(interval.lo):
            ctx.report(
                "range.overflow",
                Severity.WARNING,
                f"non-log intermediate can reach ±inf: interval "
                f"[{interval.lo:.6g}, {interval.hi:.6g}]",
                op=op,
                interval=(interval.lo, interval.hi),
            )


def _is_linear_by_design(func: Operation) -> bool:
    """True for kernels whose query plan mandates linear-space math."""
    plan = func.attributes.get("queryPlan")
    if isinstance(plan, str):
        try:
            plan = json.loads(plan)
        except ValueError:
            return False
    return isinstance(plan, dict) and plan.get("kind") == "expectation"


def _log(x: float) -> float:
    if x <= 0.0:
        return -math.inf
    if x == math.inf:
        return math.inf
    return math.log(x)


def check_range(root: Operation, ctx: AnalysisContext) -> None:
    """Registry entry point: run the range analysis over ``root``."""
    run_analysis(RangeAnalysis(), root, ctx)


register_check("range", check_range)
