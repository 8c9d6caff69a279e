"""The ``lo_spn`` dialect (paper Section III-B, Table II).

LoSPN is the lowering target for HiSPN and represents the actual
computation of a query:

- a ``lo_spn.kernel`` is the query entry point (function-like),
- a ``lo_spn.task`` applies its region to every sample of a batch (the
  entry block receives a batch-index argument, like a loop induction
  variable),
- a ``lo_spn.body`` wraps the pure arithmetic of one sample,
- ``batch_extract``/``batch_read`` and ``batch_collect``/``batch_write``
  make the per-sample memory access pattern explicit on tensors/memrefs
  respectively, and
- products are binarized (``mul`` takes exactly two operands), while the
  weighted sums of a joint/marginal query stay n-ary: one
  ``lo_spn.weighted_sum`` per group of sums over the same child list (a
  *sum layer*), carrying the dense weight matrix. The query lowerings
  that need the individual terms (argmax chains, moment pairs) still
  decompose their sums into ``mul`` + binary ``add``.

Computation in log space is expressed through the ``!lo_spn.log<T>`` type:
values of that type *are* stored as ordinary floats holding log
probabilities, and the type instructs the backend lowering to emit
log-space instruction sequences (add for mul, log-add-exp for add).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..ir.dialect import Dialect
from ..ir.ops import Block, IRError, Operation
from ..ir.traits import Trait
from ..ir.types import (
    FloatType,
    IndexType,
    MemRefType,
    TensorType,
    Type,
    register_dialect_type,
)
from ..ir.value import Value

lospn = Dialect("lo_spn", "Low-level SPN computation with tasks and kernels")


@lospn.type
class LogType(Type):
    """Marks a value as a log-space probability stored in base type T."""

    __slots__ = ("base",)

    def __init__(self, base: Type):
        if not isinstance(base, FloatType):
            raise ValueError("!lo_spn.log requires a float base type")
        self.base = base
        super().__init__((base,))

    def spelling(self) -> str:
        return f"!lo_spn.log<{self.base.spelling()}>"

    @classmethod
    def parse(cls, body: str, parser=None) -> "LogType":
        from ..ir.parser import parse_type_text

        return cls(parse_type_text(body))


register_dialect_type("lo_spn.log", LogType)

ComputationType = Union[FloatType, LogType]


def storage_type(ty: Type) -> Type:
    """The float type actually stored/computed for a computation type."""
    return ty.base if isinstance(ty, LogType) else ty


def is_log_type(ty: Type) -> bool:
    return isinstance(ty, LogType)


@lospn.op
class KernelOp(Operation):
    """Entry point for a compiled query (function-like).

    Before bufferization the kernel takes an input tensor argument and
    returns result tensors; afterwards all arguments are memrefs and
    results are written through output arguments.
    """

    name = "lo_spn.kernel"
    traits = frozenset(
        {Trait.ISOLATED_FROM_ABOVE, Trait.SINGLE_BLOCK, Trait.FUNCTION_LIKE}
    )

    @classmethod
    def build(
        cls,
        sym_name: str,
        arg_types: Sequence[Type],
        result_types: Sequence[Type] = (),
    ) -> "KernelOp":
        op = cls(
            attributes={
                "sym_name": sym_name,
                "arg_types": tuple(arg_types),
                "result_types": tuple(result_types),
            },
            regions=1,
        )
        op.regions[0].append_block(Block(arg_types))
        return op

    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"]

    @property
    def arg_types(self) -> tuple:
        return self.attributes["arg_types"]

    @property
    def result_types(self) -> tuple:
        return self.attributes["result_types"]

    @property
    def body(self) -> Block:
        return self.body_block

    def tasks(self):
        return [op for op in self.body_block.ops if op.op_name == TaskOp.name]

    def verify_op(self) -> None:
        if tuple(a.type for a in self.body_block.arguments) != tuple(self.arg_types):
            raise IRError("lo_spn.kernel block arguments do not match signature")


@lospn.op
class KernelReturnOp(Operation):
    """Terminator returning the kernel's result tensors (pre-bufferization)."""

    name = "lo_spn.kernel_return"
    traits = frozenset({Trait.TERMINATOR})

    @classmethod
    def build(cls, values: Sequence[Value] = ()) -> "KernelReturnOp":
        return cls(operands=list(values))


@lospn.op
class TaskOp(Operation):
    """Applies its region to every sample in a batch.

    Entry block arguments: the batch index (``index``) followed by one
    argument per task input. ``batchSize`` is an optimization hint (the
    runtime chunk size), not a semantic bound.
    """

    name = "lo_spn.task"
    traits = frozenset({Trait.SINGLE_BLOCK})

    @classmethod
    def build(
        cls,
        inputs: Sequence[Value],
        batch_size: int,
        result_types: Sequence[Type] = (),
    ) -> "TaskOp":
        op = cls(
            operands=list(inputs),
            result_types=list(result_types),
            attributes={"batchSize": batch_size},
            regions=1,
        )
        op.regions[0].append_block(
            Block([IndexType()] + [v.type for v in inputs])
        )
        return op

    @property
    def batch_size(self) -> int:
        return self.attributes["batchSize"]

    @property
    def body(self) -> Block:
        return self.body_block

    @property
    def batch_index(self) -> Value:
        return self.body_block.arguments[0]

    @property
    def input_args(self):
        return self.body_block.arguments[1:]

    def verify_op(self) -> None:
        args = self.body_block.arguments
        if not args or not isinstance(args[0].type, IndexType):
            raise IRError("lo_spn.task entry block must start with an index argument")
        if [a.type for a in args[1:]] != [v.type for v in self.operands]:
            raise IRError("lo_spn.task block arguments do not match inputs")


@lospn.op
class BodyOp(Operation):
    """Container for the pure per-sample arithmetic of a task."""

    name = "lo_spn.body"
    traits = frozenset({Trait.SINGLE_BLOCK})

    @classmethod
    def build(cls, inputs: Sequence[Value], result_types: Sequence[Type]) -> "BodyOp":
        op = cls(
            operands=list(inputs),
            result_types=list(result_types),
            regions=1,
        )
        op.regions[0].append_block(Block([v.type for v in inputs]))
        return op

    @property
    def body(self) -> Block:
        return self.body_block

    def verify_op(self) -> None:
        args = self.body_block.arguments
        if [a.type for a in args] != [v.type for v in self.operands]:
            raise IRError("lo_spn.body block arguments do not match inputs")
        term = self.body_block.terminator
        if term is None or term.op_name != YieldOp.name:
            raise IRError("lo_spn.body must terminate with lo_spn.yield")
        if [v.type for v in term.operands] != [r.type for r in self.results]:
            raise IRError("lo_spn.yield types do not match lo_spn.body results")


@lospn.op
class YieldOp(Operation):
    name = "lo_spn.yield"
    traits = frozenset({Trait.TERMINATOR})

    @classmethod
    def build(cls, values: Sequence[Value]) -> "YieldOp":
        return cls(operands=list(values))


class _BatchAccessBase(Operation):
    """Shared pieces of the four batch access ops."""

    @property
    def static_index(self) -> int:
        return self.attributes.get("staticIndex", 0)

    @property
    def transposed(self) -> bool:
        return self.attributes.get("transposed", False)


@lospn.op
class BatchExtractOp(_BatchAccessBase):
    """Extract one feature of one sample from an input *tensor*.

    Layout: ``transposed=False`` reads ``input[dynamicIndex, staticIndex]``
    (row-major samples); ``transposed=True`` reads
    ``input[staticIndex, dynamicIndex]``.
    """

    name = "lo_spn.batch_extract"

    @classmethod
    def build(
        cls,
        input: Value,
        dynamic_index: Value,
        static_index: int,
        transposed: bool = False,
    ) -> "BatchExtractOp":
        input_type = input.type
        if not isinstance(input_type, TensorType):
            raise IRError("lo_spn.batch_extract requires a tensor input")
        return cls(
            operands=[input, dynamic_index],
            result_types=[input_type.element_type],
            attributes={"staticIndex": static_index, "transposed": transposed},
        )

    @property
    def input(self) -> Value:
        return self.operands[0]

    @property
    def dynamic_index(self) -> Value:
        return self.operands[1]


@lospn.op
class BatchReadOp(_BatchAccessBase):
    """Read one feature of one sample from an input *memref*."""

    name = "lo_spn.batch_read"

    @classmethod
    def build(
        cls,
        input: Value,
        dynamic_index: Value,
        static_index: int,
        transposed: bool = False,
    ) -> "BatchReadOp":
        input_type = input.type
        if not isinstance(input_type, MemRefType):
            raise IRError("lo_spn.batch_read requires a memref input")
        return cls(
            operands=[input, dynamic_index],
            result_types=[input_type.element_type],
            attributes={"staticIndex": static_index, "transposed": transposed},
        )

    @property
    def input(self) -> Value:
        return self.operands[0]

    @property
    def dynamic_index(self) -> Value:
        return self.operands[1]


@lospn.op
class BatchCollectOp(_BatchAccessBase):
    """Collect per-sample results into the task's result tensor.

    Serves as the value-semantics result producer before bufferization:
    the op's tensor result becomes the task result. ``transposed=True``
    lays results out as [results x batch].
    """

    name = "lo_spn.batch_collect"

    @classmethod
    def build(
        cls,
        batch_index: Value,
        result_values: Sequence[Value],
        transposed: bool = True,
    ) -> "BatchCollectOp":
        result_values = list(result_values)
        if not result_values:
            raise IRError("lo_spn.batch_collect requires at least one value")
        elem = result_values[0].type
        shape = (len(result_values), None) if transposed else (None, len(result_values))
        tensor = TensorType(shape, elem)
        return cls(
            operands=[batch_index] + result_values,
            result_types=[tensor],
            attributes={"transposed": transposed},
        )

    @property
    def batch_index(self) -> Value:
        return self.operands[0]

    @property
    def result_values(self):
        return self.operands[1:]


@lospn.op
class BatchWriteOp(_BatchAccessBase):
    """Store per-sample results into an output memref."""

    name = "lo_spn.batch_write"

    @classmethod
    def build(
        cls,
        batch_mem: Value,
        batch_index: Value,
        result_values: Sequence[Value],
        transposed: bool = True,
    ) -> "BatchWriteOp":
        if not isinstance(batch_mem.type, MemRefType):
            raise IRError("lo_spn.batch_write requires a memref target")
        return cls(
            operands=[batch_mem, batch_index] + list(result_values),
            attributes={"transposed": transposed},
        )

    @property
    def batch_mem(self) -> Value:
        return self.operands[0]

    @property
    def batch_index(self) -> Value:
        return self.operands[1]

    @property
    def result_values(self):
        return self.operands[2:]


class _BinaryArithOp(Operation):
    traits = frozenset({Trait.PURE, Trait.COMMUTATIVE, Trait.SAME_OPERANDS_AND_RESULT_TYPE})

    @classmethod
    def build(cls, lhs: Value, rhs: Value):
        if lhs.type != rhs.type:
            raise IRError(f"'{cls.name}': operand types differ")
        return cls(operands=[lhs, rhs], result_types=[lhs.type])

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


@lospn.op
class MulOp(_BinaryArithOp):
    """Probability multiplication (an add in log space)."""

    name = "lo_spn.mul"


@lospn.op
class AddOp(_BinaryArithOp):
    """Probability addition (a log-add-exp in log space)."""

    name = "lo_spn.add"


@lospn.op
class MaxOp(_BinaryArithOp):
    """Probability maximum (the max-product semiring's "sum").

    Log storage is monotone, so the op is a plain floating-point max of
    the raw stored values in either space.
    """

    name = "lo_spn.max"


@lospn.op
class WeightedSumOp(Operation):
    """A sum layer: ``s`` weighted sums over one shared list of ``k`` children.

    ``weights`` is a dense ``[s, k]`` matrix of *linear* mixture weights
    (also for log-typed values); result ``j`` is
    ``sum_i weights[j, i] * child_i`` in the probability semiring of the
    value type. An ordinary sum node is a layer of one (``s == 1``); the
    ``num_sums`` sums of a RAT-SPN region or the class heads of a
    multi-head kernel share their children and form one op.

    Terms accumulate in child order — a row's result is a function of
    that row alone, whatever else is in the batch.
    """

    name = "lo_spn.weighted_sum"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, children: Sequence[Value], weights) -> "WeightedSumOp":
        children = list(children)
        weights = np.array(weights, dtype=np.float64, ndmin=2)
        if not children:
            raise IRError("lo_spn.weighted_sum requires at least one child")
        return cls(
            operands=children,
            result_types=[children[0].type] * weights.shape[0],
            attributes={"weights": weights},
        )

    @property
    def weights(self) -> np.ndarray:
        return self.attributes["weights"]

    def verify_op(self) -> None:
        weights = self.attributes.get("weights")
        if not isinstance(weights, np.ndarray) or weights.ndim != 2:
            raise IRError("lo_spn.weighted_sum requires a dense [s, k] 'weights'")
        if weights.shape != (len(self.results), len(self.operands)):
            raise IRError(
                f"lo_spn.weighted_sum weights are {weights.shape}, expected "
                f"({len(self.results)}, {len(self.operands)}) for "
                f"{len(self.results)} results over {len(self.operands)} children"
            )
        if not self.operands or not self.results:
            raise IRError("lo_spn.weighted_sum requires children and results")
        if not (np.isfinite(weights).all() and (weights >= 0).all()):
            raise IRError("lo_spn.weighted_sum weights must be finite and >= 0")
        ty = self.operands[0].type
        if any(v.type != ty for v in self.operands) or any(
            r.type != ty for r in self.results
        ):
            raise IRError("lo_spn.weighted_sum children and results must share one type")


@lospn.op
class SelectMaxOp(Operation):
    """Running-argmax select: ``t if a > b else f``.

    ``a``/``b`` are probability scores (same type), ``t``/``f`` arbitrary
    same-typed payloads (argmax indices in the MPE/sampling lowerings).
    The comparison is *strict*, so chained selects keep the first
    maximum on ties — matching the reference tracebacks' first-max-wins
    rule (and ``np.argmax``).
    """

    name = "lo_spn.select_max"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, a: Value, b: Value, t: Value, f: Value) -> "SelectMaxOp":
        if a.type != b.type:
            raise IRError("lo_spn.select_max: score operand types differ")
        if t.type != f.type:
            raise IRError("lo_spn.select_max: payload operand types differ")
        return cls(operands=[a, b, t, f], result_types=[t.type])


@lospn.op
class InputValueOp(Operation):
    """A raw feature value with a NaN substitution constant.

    Evaluates to the input where it is a number and to ``nanValue``
    where it is NaN. The MPE lowering substitutes leaf modes, the
    expectation lowering leaf moments; the result is a plain feature
    value (never log-typed).
    """

    name = "lo_spn.input_value"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(
        cls, value: Value, nan_value: float, result_type: ComputationType = None
    ) -> "InputValueOp":
        """``result_type`` reinterprets the raw input in the computation
        space (the bits pass through unchanged): the sampling lowering
        reads host-supplied Gumbel noise as log-space addends, the
        expectation lowering feature values as linear-space factors."""
        if is_log_type(value.type):
            raise IRError("lo_spn.input_value input must be a raw feature value")
        return cls(
            operands=[value],
            result_types=[result_type if result_type is not None else value.type],
            attributes={"nanValue": float(nan_value)},
        )

    @property
    def nan_value(self) -> float:
        return self.attributes["nanValue"]


@lospn.op
class ConstantOp(Operation):
    """A probability constant; for log types the payload is the log value."""

    name = "lo_spn.constant"
    traits = frozenset({Trait.PURE, Trait.CONSTANT_LIKE})

    @classmethod
    def build(cls, value: float, ty: ComputationType) -> "ConstantOp":
        return cls(attributes={"value": float(value)}, result_types=[ty])

    @property
    def value(self) -> float:
        return self.attributes["value"]


class _LeafOpBase(Operation):
    traits = frozenset({Trait.PURE})

    @property
    def support_marginal(self) -> bool:
        return self.attributes.get("supportMarginal", False)

    @property
    def input(self) -> Value:
        return self.operands[0]


@lospn.op
class HistogramOp(_LeafOpBase):
    """Histogram leaf: bucketized lookup (CPU: table lookup; GPU: selects)."""

    name = "lo_spn.histogram"

    @classmethod
    def build(
        cls,
        index: Value,
        bounds: Sequence[float],
        probabilities: Sequence[float],
        result_type: ComputationType,
        support_marginal: bool = False,
    ) -> "HistogramOp":
        return cls(
            operands=[index],
            result_types=[result_type],
            attributes={
                "bounds": tuple(float(b) for b in bounds),
                "probabilities": tuple(float(p) for p in probabilities),
                "bucketCount": len(probabilities),
                "supportMarginal": support_marginal,
            },
        )

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self.attributes["bounds"]

    @property
    def probabilities(self) -> Tuple[float, ...]:
        return self.attributes["probabilities"]


@lospn.op
class CategoricalOp(_LeafOpBase):
    """Categorical leaf: direct probability table lookup."""

    name = "lo_spn.categorical"

    @classmethod
    def build(
        cls,
        index: Value,
        probabilities: Sequence[float],
        result_type: ComputationType,
        support_marginal: bool = False,
    ) -> "CategoricalOp":
        return cls(
            operands=[index],
            result_types=[result_type],
            attributes={
                "probabilities": tuple(float(p) for p in probabilities),
                "supportMarginal": support_marginal,
            },
        )

    @property
    def probabilities(self) -> Tuple[float, ...]:
        return self.attributes["probabilities"]


@lospn.op
class GaussianOp(_LeafOpBase):
    """Gaussian leaf: PDF (or log-PDF) evaluation."""

    name = "lo_spn.gaussian"

    @classmethod
    def build(
        cls,
        evidence: Value,
        mean: float,
        stddev: float,
        result_type: ComputationType,
        support_marginal: bool = False,
    ) -> "GaussianOp":
        return cls(
            operands=[evidence],
            result_types=[result_type],
            attributes={
                "mean": float(mean),
                "stddev": float(stddev),
                "supportMarginal": support_marginal,
            },
        )

    @property
    def mean(self) -> float:
        return self.attributes["mean"]

    @property
    def stddev(self) -> float:
        return self.attributes["stddev"]


@lospn.op
class LogOp(Operation):
    """Convert a linear-space probability into log space."""

    name = "lo_spn.log"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, value: Value) -> "LogOp":
        if is_log_type(value.type):
            raise IRError("lo_spn.log input is already in log space")
        return cls(operands=[value], result_types=[LogType(value.type)])


@lospn.op
class ExpOp(Operation):
    """Convert a log-space probability back to linear space."""

    name = "lo_spn.exp"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, value: Value) -> "ExpOp":
        if not is_log_type(value.type):
            raise IRError("lo_spn.exp input must be in log space")
        return cls(operands=[value], result_types=[value.type.base])


LEAF_OP_NAMES = frozenset({HistogramOp.name, CategoricalOp.name, GaussianOp.name})

ARITH_OP_NAMES = frozenset(
    {MulOp.name, AddOp.name, MaxOp.name, WeightedSumOp.name}
)

#: Ops introduced by the non-joint query lowerings (MPE, sampling,
#: conditionals, expectations).
QUERY_OP_NAMES = frozenset({MaxOp.name, SelectMaxOp.name, InputValueOp.name})
