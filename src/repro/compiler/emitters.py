"""Shared lowering emitters: LoSPN body arithmetic → arith/math/vector ops.

Both target lowerings (CPU scalar loop, CPU vectorized loop, GPU kernel
body) need the same translation of SPN node semantics into elementary
operations, differing only in the value *shape* (scalar vs W-lane vector)
and in the discrete-leaf strategy (table lookup on CPU, select cascade on
GPU — paper Section IV-C). The two emitter classes below capture those
variations behind one interface:

- probability multiplication: ``mulf`` in linear space, ``addf`` in log
  space,
- probability addition: ``addf`` in linear space, a numerically stable
  ``max + log1p(exp(min - max))`` expansion in log space,
- sum layers (``lo_spn.weighted_sum``): one shared recipe — weight every
  child, fold the terms with binary adds as a balanced tree — for
  scalar, fixed-lane and GPU code, and a stacked max-shifted ``exp`` →
  ordered contraction → ``log`` over the whole chunk in batch-vectorized
  code,
- Gaussian leaves: PDF evaluation (linear) or the fused
  ``c1 - (x-m)^2 * c2`` form (log),
- discrete leaves: clamped table lookup or select cascade, and
- marginalization: NaN evidence short-circuits to probability 1 (log 0),
  with a NaN-safe placeholder feeding the index/PDF computation.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..dialects import arith, math_dialect, memref as memref_dialect, vector as vector_dialect
from ..ir.builder import Builder
from ..ir.ops import IRError, Operation
from ..ir.types import FloatType, IntegerType, Type, VectorType, i1, i64, index as index_type
from ..ir.value import Value

LOG_2PI = math.log(2.0 * math.pi)

#: Mass assigned to values outside a histogram's covered range; mirrors
#: the reference implementation (spn.nodes.Histogram.EPSILON).
HISTOGRAM_EPSILON = 1e-12

#: Batch-vectorized code lowers a sum layer (``s`` sums over ``k``
#: children) to the stacked form when that replaces at least this many
#: binary log-adds, ``s * (k - 1)``; smaller layers keep the log-adds,
#: whose 8 small ops each are cheaper than the stacked form's fixed cost.
#: Measured per call at 1 and at 1024 rows (EXPERIMENTS.md, "Sum-layer
#: crossover"): below 6 the log-adds win, at 6 the two tie for a single
#: sum (k = 7) and the stack is ahead for a group (2 x 4, 3 x 3), above
#: it the stack wins. A property of the model, not an option: the
#: fan-in-2 mixtures of the speaker-ID SPNs (1 log-add) sit below it,
#: every RAT-SPN region (6 x 8 log-adds and up) above.
STACK_MIN_LOG_ADDS = 6


class ScalarEmitter:
    """Emits scalar arith/math ops for LoSPN body semantics.

    Args:
        builder: insertion point for per-sample ops (inside the loop).
        table_builder: insertion point for hoisted constant tables
            (function entry); tables must not be re-materialized per
            sample.
        compute_type: the storage float type (f32/f64) of the computation.
        log_space: whether values represent log probabilities.
        discrete_mode: "lookup" (CPU table load) or "cascade" (GPU selects).
    """

    def __init__(
        self,
        builder: Builder,
        table_builder: Builder,
        compute_type: FloatType,
        log_space: bool,
        discrete_mode: str = "lookup",
    ):
        if discrete_mode not in ("lookup", "cascade"):
            raise IRError(f"unknown discrete leaf mode '{discrete_mode}'")
        self.builder = builder
        self.table_builder = table_builder
        self.compute_type = compute_type
        self.log_space = log_space
        self.discrete_mode = discrete_mode
        self._table_cache: Dict[Tuple, Value] = {}

    # -- shape hooks (overridden by the vector emitter) -------------------------

    @property
    def value_type(self) -> Type:
        return self.compute_type

    def index_type(self) -> Type:
        return i64

    def splat(self, value: Value) -> Value:
        """Adapt a scalar constant to the emitter's value shape."""
        return value

    # -- basics -------------------------------------------------------------------

    def constant(self, value: float) -> Value:
        scalar = self.builder.create(arith.ConstantOp, value, self.compute_type).result
        return self.splat(scalar)

    def int_constant(self, value: int) -> Value:
        scalar = self.builder.create(arith.ConstantOp, value, i64).result
        return self.splat_int(scalar)

    def splat_int(self, value: Value) -> Value:
        return value

    def convert_input(self, x: Value) -> Value:
        """Convert a loaded input feature to the computation float type."""
        xt = x.type
        elem = xt.element_type if isinstance(xt, VectorType) else xt
        if elem == self.compute_type:
            return x
        target = (
            VectorType(xt.shape, self.compute_type)
            if isinstance(xt, VectorType)
            else self.compute_type
        )
        if isinstance(elem, FloatType) and elem.width < self.compute_type.width:
            return self.builder.create(arith.ExtFOp, x, target).result
        if isinstance(elem, FloatType):
            return self.builder.create(arith.TruncFOp, x, target).result
        return self.builder.create(arith.SIToFPOp, x, target).result

    # -- probability arithmetic -------------------------------------------------------

    def mul(self, a: Value, b: Value) -> Value:
        if self.log_space:
            return self.builder.create(arith.AddFOp, a, b).result
        return self.builder.create(arith.MulFOp, a, b).result

    def add(self, a: Value, b: Value) -> Value:
        if not self.log_space:
            return self.builder.create(arith.AddFOp, a, b).result
        # log-add-exp: hi + log1p(exp(lo - hi)). The subtrahend is clamped
        # to a finite value, so (-inf, -inf) computes exp(-inf) = 0 and
        # stays -inf: no `-inf - -inf`, no NaN, nothing to guard.
        b_ = self.builder
        hi = b_.create(arith.MaxFOp, a, b).result
        lo = b_.create(arith.MinFOp, a, b).result
        diff = b_.create(arith.SubFOp, lo, self._finite_shift(hi)).result
        exp = b_.create(math_dialect.ExpOp, diff).result
        log1p = b_.create(math_dialect.Log1pOp, exp).result
        return b_.create(arith.AddFOp, hi, log1p).result

    def _finite_shift(self, peak: Value) -> Value:
        """``max(peak, -FLT_MAX)``: the log-sum-exp shift, kept finite
        where every term is impossible (``peak == -inf``)."""
        lowest = -float(np.finfo(self._numpy_dtype()).max)
        return self.builder.create(
            arith.MaxFOp, peak, self.constant(lowest)
        ).result

    def _numpy_dtype(self):
        return np.float32 if self.compute_type.width == 32 else np.float64

    def weighted_sum(self, children: Sequence[Value], weights: np.ndarray):
        """A sum layer as binary log-adds: per sum, weight every child
        (constant + ``mul``) and fold the terms, in child order, as a
        balanced tree of :meth:`add` — ``k - 1`` adds like a left-to-right
        chain, at rounding depth ``ceil(log2 k)`` instead of ``k - 1``.
        Returns one value per row of ``weights``."""

        def fold(row, lo: int, hi: int) -> Value:
            if hi - lo == 1:
                weight = float(row[lo])
                if self.log_space:
                    weight = math.log(weight) if weight > 0 else -math.inf
                return self.mul(children[lo], self.lo_constant(weight))
            mid = (lo + hi) // 2
            return self.add(fold(row, lo, mid), fold(row, mid, hi))

        return [fold(row, 0, len(children)) for row in weights]

    def max(self, a: Value, b: Value) -> Value:
        """Probability maximum (raw-value max in both spaces)."""
        b_ = self.builder
        a_ge_b = b_.create(arith.CmpFOp, "oge", a, b).result
        return b_.create(arith.SelectOp, a_ge_b, a, b).result

    def select_max(self, a: Value, b: Value, t: Value, f: Value) -> Value:
        """Running-argmax select: ``t`` where ``a > b`` (strictly), else ``f``.

        The strict comparison keeps the *first* maximum across a chain of
        selects, matching the reference tracebacks and ``np.argmax``.
        """
        b_ = self.builder
        a_gt_b = b_.create(arith.CmpFOp, "ogt", a, b).result
        return b_.create(arith.SelectOp, a_gt_b, t, f).result

    def input_value(self, x: Value, nan_value: float) -> Value:
        """The raw feature value, with NaN replaced by ``nan_value``."""
        b_ = self.builder
        x = self.convert_input(x)
        is_nan = b_.create(arith.CmpFOp, "une", x, x).result
        return b_.create(arith.SelectOp, is_nan, self.constant(nan_value), x).result

    def lo_constant(self, payload: float) -> Value:
        """A lo_spn.constant payload (already in target space)."""
        return self.constant(payload)

    # -- marginalization helper ----------------------------------------------------------

    def _with_marginal(self, x: Value, emit_fn) -> Value:
        """Evaluate ``emit_fn(safe_x)`` with NaN evidence marginalized out."""
        b_ = self.builder
        is_nan = b_.create(arith.CmpFOp, "une", x, x).result
        zero = self.constant(0.0)
        safe_x = b_.create(arith.SelectOp, is_nan, zero, x).result
        raw = emit_fn(safe_x)
        one = self.constant(0.0 if self.log_space else 1.0)
        return b_.create(arith.SelectOp, is_nan, one, raw).result

    # -- leaves ------------------------------------------------------------------------

    def gaussian(
        self, x: Value, mean: float, stddev: float, support_marginal: bool
    ) -> Value:
        x = self.convert_input(x)
        if support_marginal:
            return self._with_marginal(x, lambda v: self._gaussian_raw(v, mean, stddev))
        return self._gaussian_raw(x, mean, stddev)

    def _gaussian_raw(self, x: Value, mean: float, stddev: float) -> Value:
        b_ = self.builder
        mean_c = self.constant(mean)
        centered = b_.create(arith.SubFOp, x, mean_c).result
        squared = b_.create(arith.MulFOp, centered, centered).result
        inv_two_var = 1.0 / (2.0 * stddev * stddev)
        if self.log_space:
            # log N(x) = c1 - (x-m)^2 * c2
            c1 = -math.log(stddev) - 0.5 * LOG_2PI
            scaled = b_.create(
                arith.MulFOp, squared, self.constant(inv_two_var)
            ).result
            return b_.create(arith.SubFOp, self.constant(c1), scaled).result
        coefficient = 1.0 / (stddev * math.sqrt(2.0 * math.pi))
        neg_scaled = b_.create(
            arith.MulFOp, squared, self.constant(-inv_two_var)
        ).result
        exp = b_.create(math_dialect.ExpOp, neg_scaled).result
        return b_.create(arith.MulFOp, exp, self.constant(coefficient)).result

    def categorical(
        self, x: Value, probabilities: Sequence[float], support_marginal: bool
    ) -> Value:
        count = len(probabilities)
        zero_prob = -math.inf if self.log_space else 0.0

        def emit(v: Value) -> Value:
            # Domain rule shared with spn.nodes.Categorical.log_density:
            # values outside [0, K) — including NaN, which fails both
            # ordered comparisons — carry zero probability. The index is
            # computed from a domain-safe placeholder so NaN/huge values
            # never reach the float→int conversion.
            b_ = self.builder
            ge_lo = b_.create(arith.CmpFOp, "oge", v, self.constant(0.0)).result
            lt_hi = b_.create(
                arith.CmpFOp, "olt", v, self.constant(float(count))
            ).result
            in_domain = b_.create(arith.AndIOp, ge_lo, lt_hi).result
            safe = b_.create(
                arith.SelectOp, in_domain, v, self.constant(0.0)
            ).result
            idx = self._index_from(safe, offset=0.0, scale=1.0)
            idx = self._clamp_index(idx, count)
            value = self._discrete_value(idx, self._target_space(probabilities))
            return b_.create(
                arith.SelectOp, in_domain, value, self.constant(zero_prob)
            ).result

        x = self.convert_input(x)
        if support_marginal:
            return self._with_marginal(x, emit)
        return emit(x)

    def histogram(
        self,
        x: Value,
        bounds: Sequence[float],
        probabilities: Sequence[float],
        support_marginal: bool,
    ) -> Value:
        bounds = list(bounds)
        widths = np.diff(bounds)
        if not np.allclose(widths, widths[0], rtol=1e-6):
            raise IRError(
                "histogram lowering requires uniform bucket widths; "
                "re-discretize the leaf or use a categorical leaf"
            )
        lo, width = float(bounds[0]), float(widths[0])
        hi = float(bounds[-1])
        eps = math.log(HISTOGRAM_EPSILON) if self.log_space else HISTOGRAM_EPSILON
        # The reference (spn.nodes.Histogram, mirroring SPFlow) floors
        # every bucket at EPSILON so zero-density buckets never produce
        # -inf; the compiled table must match.
        probabilities = np.maximum(
            np.asarray(probabilities, dtype=np.float64), HISTOGRAM_EPSILON
        )

        def emit(v: Value) -> Value:
            # Out-of-range values (including NaN without marginal
            # support) receive the epsilon mass; the bucket index is
            # computed from an in-range placeholder so NaN/huge values
            # never reach the float→int conversion.
            b_ = self.builder
            ge_lo = b_.create(arith.CmpFOp, "oge", v, self.constant(lo)).result
            lt_hi = b_.create(arith.CmpFOp, "olt", v, self.constant(hi)).result
            in_range = b_.create(arith.AndIOp, ge_lo, lt_hi).result
            safe = b_.create(
                arith.SelectOp, in_range, v, self.constant(lo)
            ).result
            idx = self._index_from(safe, offset=lo, scale=1.0 / width)
            idx = self._clamp_index(idx, len(probabilities))
            value = self._discrete_value(idx, self._target_space(probabilities))
            return b_.create(
                arith.SelectOp, in_range, value, self.constant(eps)
            ).result

        x = self.convert_input(x)
        if support_marginal:
            return self._with_marginal(x, emit)
        return emit(x)

    # -- discrete machinery ----------------------------------------------------------------

    def _target_space(self, probabilities: Sequence[float]) -> np.ndarray:
        probs = np.asarray(probabilities, dtype=np.float64)
        if self.log_space:
            with np.errstate(divide="ignore"):
                probs = np.log(probs)
        return probs.astype(self._numpy_dtype())

    def _index_from(self, v: Value, offset: float, scale: float) -> Value:
        """Compute clamped bucket index floor((v - offset) * scale)."""
        b_ = self.builder
        shifted = v
        if offset != 0.0:
            shifted = b_.create(arith.SubFOp, v, self.constant(offset)).result
        if scale != 1.0:
            shifted = b_.create(arith.MulFOp, shifted, self.constant(scale)).result
        return b_.create(arith.FPToSIOp, shifted, self.index_type()).result

    def _clamp_index(self, idx: Value, count: int) -> Value:
        b_ = self.builder
        zero = self.int_constant(0)
        top = self.int_constant(count - 1)
        lt_zero = b_.create(arith.CmpIOp, "slt", idx, zero).result
        idx = b_.create(arith.SelectOp, lt_zero, zero, idx).result
        gt_top = b_.create(arith.CmpIOp, "sgt", idx, top).result
        return b_.create(arith.SelectOp, gt_top, top, idx).result

    def _discrete_value(self, idx: Value, table: np.ndarray) -> Value:
        if self.discrete_mode == "cascade":
            return self._select_cascade(idx, table)
        return self._table_lookup(idx, table)

    def _table_lookup(self, idx: Value, table: np.ndarray) -> Value:
        buffer = self._get_table(table)
        b_ = self.builder
        as_index = b_.create(arith.IndexCastOp, idx, index_type).result
        return b_.create(memref_dialect.LoadOp, buffer, [as_index]).result

    def _get_table(self, table: np.ndarray) -> Value:
        key = (table.dtype.str, table.tobytes())
        cached = self._table_cache.get(key)
        if cached is None:
            cached = self.table_builder.create(
                memref_dialect.ConstantBufferOp, table, self.compute_type
            ).result
            self._table_cache[key] = cached
        return cached

    def _select_cascade(self, idx: Value, table: np.ndarray) -> Value:
        b_ = self.builder
        result = self.constant(float(table[-1]))
        for position in range(len(table) - 2, -1, -1):
            matches = b_.create(
                arith.CmpIOp, "eq", idx, self.int_constant(position)
            ).result
            result = b_.create(
                arith.SelectOp, matches, self.constant(float(table[position])), result
            ).result
        return result


class VectorEmitter(ScalarEmitter):
    """Emits W-lane vector ops for LoSPN body semantics.

    Reuses every ScalarEmitter recipe; the overrides below lift constants
    to broadcasts, indexes to integer vectors, and table lookups to
    vector gathers.

    ``lanes`` is the static vector width, or ``None`` for batch
    vectorization: values become runtime-width vectors
    (``vector<?xf64>``) spanning the whole chunk.
    """

    def __init__(
        self,
        builder: Builder,
        table_builder: Builder,
        compute_type: FloatType,
        log_space: bool,
        lanes: Optional[int],
        discrete_mode: str = "lookup",
    ):
        super().__init__(builder, table_builder, compute_type, log_space, discrete_mode)
        self.lanes = lanes

    @property
    def value_type(self) -> VectorType:
        return VectorType((self.lanes,), self.compute_type)

    def index_type(self) -> VectorType:
        return VectorType((self.lanes,), i64)

    def splat(self, value: Value) -> Value:
        return self.builder.create(
            vector_dialect.BroadcastOp, value, VectorType((self.lanes,), value.type)
        ).result

    def splat_int(self, value: Value) -> Value:
        return self.builder.create(
            vector_dialect.BroadcastOp, value, VectorType((self.lanes,), i64)
        ).result

    def _table_lookup(self, idx: Value, table: np.ndarray) -> Value:
        buffer = self._get_table(table)
        return self.builder.create(
            vector_dialect.GatherTableOp, buffer, idx
        ).result

    def weighted_sum(self, children: Sequence[Value], weights: np.ndarray):
        """Batch mode lowers a sum layer as one stacked log-sum-exp.

        The ``k`` children become the rows of a ``[k, n]`` vector; the
        row maximum ``m`` (clamped finite) shifts them, one ``exp``
        takes them to linear space, the dense weights contract the rows
        in child order, and one ``log`` plus ``m`` goes back — a handful
        of whole-chunk ops where the chain needs ``8 s k``. In linear
        space only the contraction remains.

        Fixed-lane code stays on the binary log-adds. So does, in log
        space, any sum with a weight that is not a normal number of the
        compute type (zero, or rounded to zero/subnormal): the shift is
        the peak of the *unweighted* children, and a child that counts
        for nothing must not hold it — every term that does count would
        underflow, turning a finite sum into ``-inf``. The binary form
        weights its terms in log space first and is exact there. And so
        do layers whose stackable sums replace fewer than
        ``STACK_MIN_LOG_ADDS`` log-adds.
        """
        dense = weights.astype(self._numpy_dtype())
        stackable = np.ones(len(dense), dtype=bool)
        if self.log_space:
            stackable = (dense >= np.finfo(dense.dtype).tiny).all(axis=1)
        replaced = int(stackable.sum()) * (len(children) - 1)
        if self.lanes is not None or replaced < STACK_MIN_LOG_ADDS:
            return super().weighted_sum(children, weights)
        results: list = [None] * len(dense)
        binary = np.flatnonzero(~stackable)
        for j, value in zip(binary, super().weighted_sum(children, weights[binary])):
            results[j] = value
        stacked = np.flatnonzero(stackable)
        for j, value in zip(stacked, self._stacked_sums(children, dense[stacked])):
            results[j] = value
        return results

    def _stacked_sums(self, children: Sequence[Value], weights: np.ndarray):
        """The stacked form for sums whose every child counts
        (``weights`` already in the compute dtype)."""
        b_ = self.builder
        rows = b_.create(vector_dialect.StackOp, children).result
        if self.log_space:
            peak = b_.create(vector_dialect.RowMaxOp, rows).result
            shift = b_.create(
                vector_dialect.BroadcastOp, self._finite_shift(peak), rows.type
            ).result
            shifted = b_.create(arith.SubFOp, rows, shift).result
            rows = b_.create(math_dialect.ExpOp, shifted).result
        sums = b_.create(vector_dialect.ContractOp, weights, rows).result
        if self.log_space:
            logs = b_.create(math_dialect.LogOp, sums).result
            back = b_.create(vector_dialect.BroadcastOp, peak, sums.type).result
            sums = b_.create(arith.AddFOp, logs, back).result
        return [
            b_.create(vector_dialect.ExtractOp, sums, j).result
            for j in range(len(weights))
        ]
