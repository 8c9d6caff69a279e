"""The ``vector`` dialect: SIMD registers and memory movement.

The SPNC CPU vectorizer rewrites the batch loop into vector form using
these ops. Two input-access strategies are representable, matching the
paper's design-space exploration (Fig. 6):

- ``vector.gather``: one strided gather per feature column, and
- ``vector.load_tile`` + ``vector.extract_column``: W contiguous row loads
  followed by in-register shuffles (the "Shuffle" configuration), which
  the paper reports as slightly faster than gathers.

Sum layers of batch-vectorized kernels work on rank-2 runtime-width
vectors (``vector<kx?xf32>``: ``k`` rows spanning the chunk):
``vector.stack`` builds one from ``k`` rank-1 values,
``vector.row_max`` folds the row axis away, ``vector.contract``
applies a dense weight matrix to the rows, and ``vector.broadcast`` /
``vector.extract`` move between the ranks. ``arith`` and ``math`` ops are
elementwise and take the rank-2 types as they are.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ir.dialect import Dialect
from ..ir.ops import IRError, Operation
from ..ir.traits import Trait
from ..ir.types import IndexType, MemRefType, Type, VectorType
from ..ir.value import Value

vector = Dialect("vector", "SIMD vectors and vector memory operations")


@vector.op
class BroadcastOp(Operation):
    """Splat a scalar into all lanes of a vector, or repeat a rank-1
    vector along a new leading row axis (``vector<?xT>`` to
    ``vector<kx?xT>``)."""

    name = "vector.broadcast"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, source: Value, vector_type: VectorType) -> "BroadcastOp":
        op = cls(operands=[source], result_types=[vector_type])
        op.verify_op()
        return op

    def verify_op(self) -> None:
        source, result = self.operands[0].type, self.results[0].type
        if not isinstance(result, VectorType):
            raise IRError("vector.broadcast must produce a vector")
        if isinstance(source, VectorType):
            if (
                source.element_type != result.element_type
                or result.rank <= source.rank
                or result.shape[result.rank - source.rank:] != source.shape
            ):
                raise IRError(
                    f"vector.broadcast cannot repeat {source} into {result}"
                )
        elif result.element_type != source:
            raise IRError("vector.broadcast element type mismatch")


@vector.op
class LoadOp(Operation):
    """Load ``W`` contiguous elements starting at a base index."""

    name = "vector.load"

    @classmethod
    def build(cls, buffer: Value, indices: Sequence[Value], vector_type: VectorType) -> "LoadOp":
        if not isinstance(buffer.type, MemRefType):
            raise IRError("vector.load requires a memref operand")
        return cls(operands=[buffer] + list(indices), result_types=[vector_type])

    @property
    def buffer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self):
        return self.operands[1:]


@vector.op
class StoreOp(Operation):
    """Store a vector to ``W`` contiguous elements at a base index."""

    name = "vector.store"

    @classmethod
    def build(cls, value: Value, buffer: Value, indices: Sequence[Value]) -> "StoreOp":
        if not isinstance(value.type, VectorType):
            raise IRError("vector.store requires a vector value")
        return cls(operands=[value, buffer] + list(indices))

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def buffer(self) -> Value:
        return self.operands[1]

    @property
    def indices(self):
        return self.operands[2:]


@vector.op
class GatherOp(Operation):
    """Gather one strided column: ``result[l] = buffer[base + l, column]``.

    Models an x86 gather of feature ``column`` for W consecutive samples of
    a row-major [batch x features] buffer.
    """

    name = "vector.gather"

    @classmethod
    def build(cls, buffer: Value, base: Value, column: int, vector_type: VectorType) -> "GatherOp":
        if not isinstance(buffer.type, MemRefType) or buffer.type.rank != 2:
            raise IRError("vector.gather requires a rank-2 memref")
        return cls(
            operands=[buffer, base],
            result_types=[vector_type],
            attributes={"column": column},
        )

    @property
    def buffer(self) -> Value:
        return self.operands[0]

    @property
    def base(self) -> Value:
        return self.operands[1]

    @property
    def column(self) -> int:
        return self.attributes["column"]


@vector.op
class LoadTileOp(Operation):
    """Load W full rows ``buffer[base : base+W, :]`` as a 2-D register tile.

    Models the "loads + shuffles" strategy: W vector loads bring in W
    contiguous rows; subsequent :class:`ExtractColumnOp`\\ s are the
    in-register shuffles producing per-feature vectors.
    """

    name = "vector.load_tile"

    @classmethod
    def build(cls, buffer: Value, base: Value, rows: int) -> "LoadTileOp":
        if not isinstance(buffer.type, MemRefType) or buffer.type.rank != 2:
            raise IRError("vector.load_tile requires a rank-2 memref")
        cols = buffer.type.shape[1]
        if cols is None:
            raise IRError("vector.load_tile requires a static feature dimension")
        tile = VectorType((rows, cols), buffer.type.element_type)
        return cls(operands=[buffer, base], result_types=[tile])

    @property
    def buffer(self) -> Value:
        return self.operands[0]

    @property
    def base(self) -> Value:
        return self.operands[1]


@vector.op
class ExtractColumnOp(Operation):
    """Shuffle one column out of a 2-D register tile into a 1-D vector."""

    name = "vector.extract_column"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, tile: Value, column: int) -> "ExtractColumnOp":
        tile_type = tile.type
        if not isinstance(tile_type, VectorType) or tile_type.rank != 2:
            raise IRError("vector.extract_column requires a 2-D vector tile")
        result = VectorType((tile_type.shape[0],), tile_type.element_type)
        return cls(
            operands=[tile],
            result_types=[result],
            attributes={"column": column},
        )

    @property
    def column(self) -> int:
        return self.attributes["column"]


@vector.op
class ExtractOp(Operation):
    """Extract one lane of a rank-1 vector (a scalar) or one row of a
    rank-2 vector (a rank-1 vector)."""

    name = "vector.extract"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, vec: Value, position: int) -> "ExtractOp":
        vec_type = vec.type
        if not isinstance(vec_type, VectorType) or vec_type.rank not in (1, 2):
            raise IRError("vector.extract requires a rank-1 or rank-2 vector")
        extent = vec_type.shape[0]
        if position < 0 or (extent is not None and position >= extent):
            raise IRError(
                f"vector.extract position {position} is outside {vec_type}"
            )
        if vec_type.rank == 1:
            result = vec_type.element_type
        else:
            result = VectorType(vec_type.shape[1:], vec_type.element_type)
        return cls(
            operands=[vec],
            result_types=[result],
            attributes={"position": position},
        )

    @property
    def position(self) -> int:
        return self.attributes["position"]


@vector.op
class InsertOp(Operation):
    """Insert a scalar into one lane, producing a new vector."""

    name = "vector.insert"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, scalar: Value, vec: Value, position: int) -> "InsertOp":
        return cls(
            operands=[scalar, vec],
            result_types=[vec.type],
            attributes={"position": position},
        )

    @property
    def position(self) -> int:
        return self.attributes["position"]


@vector.op
class ScalarizedCallOp(Operation):
    """A vector math function evaluated lane-by-lane.

    Produced by the veclib-disabled lowering path: without a vector math
    library, every lane must be extracted, the scalar libm function
    invoked, and the result re-inserted (paper Fig. 6's "AVX2 without
    VecLib" configuration, which is *slower* than scalar code). The op
    carries the function name (``log``, ``exp``, ``log1p``) as an
    attribute; the backend emits an explicit per-lane loop.
    """

    name = "vector.scalarized_call"
    traits = frozenset({Trait.PURE})

    SUPPORTED = ("log", "exp", "log1p", "sqrt")

    @classmethod
    def build(cls, fn: str, value: Value) -> "ScalarizedCallOp":
        if fn not in cls.SUPPORTED:
            raise IRError(f"unsupported scalarized function '{fn}'")
        if not isinstance(value.type, VectorType):
            raise IRError("vector.scalarized_call requires a vector operand")
        return cls(operands=[value], result_types=[value.type], attributes={"fn": fn})

    @property
    def fn(self) -> str:
        return self.attributes["fn"]


@vector.op
class GatherTableOp(Operation):
    """Indexed gather from a 1-D lookup table: ``result[l] = table[idx[l]]``.

    Used for vectorized discrete leaves (histogram / categorical): the
    integer index vector selects per-lane probabilities from the table.
    """

    name = "vector.gather_table"

    @classmethod
    def build(cls, table: Value, idx: Value) -> "GatherTableOp":
        table_type = table.type
        idx_type = idx.type
        if not isinstance(table_type, MemRefType) or table_type.rank != 1:
            raise IRError("vector.gather_table requires a rank-1 memref table")
        if not isinstance(idx_type, VectorType):
            raise IRError("vector.gather_table requires a vector of indices")
        result = VectorType(idx_type.shape, table_type.element_type)
        return cls(operands=[table, idx], result_types=[result])

    @property
    def table(self) -> Value:
        return self.operands[0]

    @property
    def index_vector(self) -> Value:
        return self.operands[1]


def _require_rows(value: Value, op_name: str) -> VectorType:
    ty = value.type
    if not isinstance(ty, VectorType) or ty.rank != 2 or ty.shape[0] is None:
        raise IRError(
            f"{op_name} requires a rank-2 vector with a static row count, got {ty}"
        )
    return ty


@vector.op
class StackOp(Operation):
    """Stack ``k`` rank-1 vectors of one type as the rows of a rank-2
    vector: ``result[i, :] = rows[i]``."""

    name = "vector.stack"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, rows: Sequence[Value]) -> "StackOp":
        rows = list(rows)
        if not rows:
            raise IRError("vector.stack requires at least one row")
        row_type = rows[0].type
        if not isinstance(row_type, VectorType):
            raise IRError("vector.stack requires vector rows")
        op = cls(
            operands=rows,
            result_types=[
                VectorType((len(rows),) + row_type.shape, row_type.element_type)
            ],
        )
        op.verify_op()
        return op

    def verify_op(self) -> None:
        if not self.operands:
            raise IRError("vector.stack requires at least one row")
        row_type = self.operands[0].type
        if not isinstance(row_type, VectorType) or row_type.rank != 1:
            raise IRError("vector.stack requires rank-1 vector rows")
        if any(v.type != row_type for v in self.operands):
            raise IRError("vector.stack rows must share one type")
        expected = VectorType(
            (len(self.operands),) + row_type.shape, row_type.element_type
        )
        if self.results[0].type != expected:
            raise IRError(
                f"vector.stack of {len(self.operands)} x {row_type} produces "
                f"{expected}, not {self.results[0].type}"
            )


@vector.op
class RowMaxOp(Operation):
    """The maximum over the rows of a rank-2 vector:
    ``result[j] = max(source[0, j], ..., source[k-1, j])``.

    A maximum does not depend on the order it is taken in, so the result
    of a column never depends on how a batch was split into chunks.
    """

    name = "vector.row_max"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, source: Value) -> "RowMaxOp":
        ty = _require_rows(source, cls.name)
        return cls(
            operands=[source],
            result_types=[VectorType(ty.shape[1:], ty.element_type)],
        )

    def verify_op(self) -> None:
        ty = _require_rows(self.operands[0], self.op_name)
        if self.results[0].type != VectorType(ty.shape[1:], ty.element_type):
            raise IRError("vector.row_max result must drop the row axis")


@vector.op
class ContractOp(Operation):
    """Apply a dense ``[s, k]`` weight matrix to the ``k`` rows of a
    rank-2 vector: ``result[j, :] = sum_i weights[j, i] * source[i, :]``.

    The sum accumulates in row order (``acc += weights[:, i] *
    source[i]``), never through a blocked matrix product: a column's
    result is then the same bits whatever the width of the vector, which
    is what keeps chunked, sharded and co-batched executions identical.
    """

    name = "vector.contract"
    traits = frozenset({Trait.PURE})

    @classmethod
    def build(cls, weights, source: Value) -> "ContractOp":
        ty = _require_rows(source, cls.name)
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise IRError("vector.contract requires a dense [s, k] weight matrix")
        op = cls(
            operands=[source],
            result_types=[
                VectorType((weights.shape[0],) + ty.shape[1:], ty.element_type)
            ],
            attributes={"weights": weights},
        )
        op.verify_op()
        return op

    @property
    def weights(self) -> np.ndarray:
        return self.attributes["weights"]

    def verify_op(self) -> None:
        ty = _require_rows(self.operands[0], self.op_name)
        weights = self.attributes.get("weights")
        if not isinstance(weights, np.ndarray) or weights.ndim != 2:
            raise IRError("vector.contract requires a dense [s, k] weight matrix")
        if weights.shape[1] != ty.shape[0] or weights.shape[0] == 0:
            raise IRError(
                f"vector.contract weights {weights.shape} do not match "
                f"the {ty.shape[0]} rows of {ty}"
            )
        expected = VectorType((weights.shape[0],) + ty.shape[1:], ty.element_type)
        if self.results[0].type != expected:
            raise IRError(f"vector.contract produces {expected}")
