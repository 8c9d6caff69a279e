"""Per-``lo_spn.task`` memory-access summaries and the shard-race check.

The static half of the paper's row-sharded execution (Section IV-B):
the chunked runtime makes shards *dynamically* bit-identical, this
analysis makes their disjointness a *statically checkable* fact.

For every task of a ``lo_spn.kernel`` the analysis computes a
:class:`MemoryAccessSummary`: which shared buffers (kernel arguments
and kernel-level allocations) the task writes, with the touched rows
of the static dimension as a symbolic :class:`Interval` (the
range-analysis lattice), and a *batch-confinement* bit per buffer —
whether the dynamic (batch) dimension of every read and write is
indexed by the task's batch induction variable. Accesses the
summarizer cannot model (calls, copies, vector gathers, non-constant
static indices) degrade to an *opaque* full-buffer, unconfined write,
which is sound: opaque accesses conflict with everything.

One rule is reported under the ``concurrency`` check:

- ``concurrency.shard-overlap`` (ERROR) — a task writes a shared buffer
  without confining the batch dimension to its batch index (e.g. a
  ``memref.store`` at a constant batch position). Row-sharded execution
  (PR 7) runs the same task on disjoint row ranges concurrently, so
  such a write races between shards. :func:`check_shard_plan` is the
  plan-level companion used to cross-check a concrete shard plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...diagnostics import Severity
from ..ops import Operation
from ..types import MemRefType
from ..value import Value
from .engine import AnalysisContext, AnalysisFinding, register_check
from .lattices import BOTTOM, TOP, Interval


@dataclass
class BufferAccess:
    """Summary of one task's accesses to one shared buffer."""

    writes: Interval = BOTTOM
    #: Every read/write indexes the batch dimension with the task's own
    #: batch induction variable (row-sharding is then race-free).
    batch_confined: bool = True
    #: The summarizer could not model some access — assume full overlap.
    opaque: bool = False

    def add_read(self, confined: bool) -> None:
        self.batch_confined = self.batch_confined and confined

    def add_write(self, rows: Interval, confined: bool) -> None:
        self.writes = self.writes.join(rows)
        self.batch_confined = self.batch_confined and confined

    def make_opaque(self) -> None:
        self.opaque = True
        self.writes = TOP
        self.batch_confined = False


@dataclass
class MemoryAccessSummary:
    """Write sets and batch confinement of one ``lo_spn.task`` over
    shared buffers."""

    index: int
    op: Operation
    #: canonical shared buffer value -> access summary
    accesses: Dict[Value, BufferAccess] = field(default_factory=dict)
    #: True when every access was modeled precisely.
    precise: bool = True

    def access(self, buffer: Value) -> BufferAccess:
        entry = self.accesses.get(buffer)
        if entry is None:
            entry = BufferAccess()
            self.accesses[buffer] = entry
        return entry


# -- summarization -------------------------------------------------------------


def _is_buffer(value: Value) -> bool:
    return isinstance(value.type, MemRefType)


def _constant_index(value: Value) -> Optional[int]:
    defining = value.defining_op
    if defining is None or defining.op_name != "arith.constant":
        return None
    payload = defining.attributes.get("value")
    if isinstance(payload, bool) or not isinstance(payload, (int, float)):
        return None
    if isinstance(payload, float) and not payload.is_integer():
        return None
    return int(payload)


def summarize_kernel(kernel: Operation) -> List[MemoryAccessSummary]:
    """Summarize every task of a ``lo_spn.kernel`` over shared buffers.

    Shared buffers are the kernel's entry-block arguments plus
    ``memref.alloc`` results in the kernel body (the inter-task
    intermediate tensors). Buffers allocated inside a task are private
    and never appear in a summary.
    """
    shared: Dict[int, Value] = {}
    if kernel.regions and kernel.regions[0].blocks:
        for arg in kernel.regions[0].entry_block.arguments:
            if _is_buffer(arg):
                shared[id(arg)] = arg
    for op in kernel.regions[0].entry_block.ops:
        if op.op_name == "memref.alloc" and op.results:
            shared[id(op.results[0])] = op.results[0]

    summaries: List[MemoryAccessSummary] = []
    for index, task in enumerate(
        op for op in kernel.walk() if op.op_name == "lo_spn.task"
    ):
        summaries.append(_summarize_task(index, task, shared))
    return summaries


def _summarize_task(
    index: int, task: Operation, shared: Dict[int, Value]
) -> MemoryAccessSummary:
    summary = MemoryAccessSummary(index=index, op=task)
    if not task.regions or not task.regions[0].blocks:
        return summary
    args = task.regions[0].entry_block.arguments
    batch_index = args[0] if args else None
    alias: Dict[int, Value] = {}
    for arg, operand in zip(args[1:], task.operands):
        if _is_buffer(arg) and id(operand) in shared:
            alias[id(arg)] = operand

    def canonical(value: Value) -> Optional[Value]:
        value = alias.get(id(value), value)
        return shared.get(id(value))

    for op in task.walk():
        if op is task:
            continue
        _summarize_op(op, summary, canonical, batch_index)
    return summary


def _summarize_op(op, summary, canonical, batch_index) -> None:
    name = op.op_name
    if name == "lo_spn.batch_read":
        buffer = canonical(op.operands[0])
        if buffer is None:
            return
        confined = len(op.operands) > 1 and op.operands[1] is batch_index
        summary.access(buffer).add_read(confined)
    elif name == "lo_spn.batch_write":
        buffer = canonical(op.operands[0])
        if buffer is None:
            return
        num_values = max(1, len(op.operands) - 2)
        rows = Interval(0, num_values - 1)
        confined = len(op.operands) > 1 and op.operands[1] is batch_index
        summary.access(buffer).add_write(rows, confined)
    elif name in ("memref.load", "memref.store"):
        buffer_pos = 0 if name == "memref.load" else 1
        buffer = canonical(op.operands[buffer_pos])
        if buffer is None:
            return
        rows, confined = _explicit_indices(op, buffer_pos, batch_index)
        access = summary.access(buffer)
        if name == "memref.load":
            access.add_read(confined)
        else:
            access.add_write(rows, confined)
    elif name == "memref.dim":
        return  # metadata only
    elif name in ("memref.copy",):
        for pos, write in ((0, False), (1, True)):
            buffer = canonical(op.operands[pos])
            if buffer is None:
                continue
            access = summary.access(buffer)
            if write:
                access.add_write(TOP, False)
            else:
                access.add_read(False)
        summary.precise = False
    else:
        # Anything else touching a shared buffer is unmodeled: calls,
        # vector loads/gathers, casts. Degrade to opaque.
        touched = False
        for operand in op.operands:
            if not _is_buffer(operand):
                continue
            buffer = canonical(operand)
            if buffer is None:
                continue
            summary.access(buffer).make_opaque()
            touched = True
        if touched:
            summary.precise = False


def _explicit_indices(
    op: Operation, buffer_pos: int, batch_index
) -> Tuple[Interval, bool]:
    """Row interval + batch confinement for ``memref.load``/``store``.

    Intermediate and result buffers are laid out ``[rows x batch]``:
    dimension 0 is the static row, dimension 1 the dynamic batch. The
    input buffer is ``[batch x features]``; its batch dimension is 0.
    """
    buffer_type = op.operands[buffer_pos].type
    indices = op.operands[buffer_pos + 1 :]
    if not isinstance(buffer_type, MemRefType) or len(indices) != buffer_type.rank:
        return TOP, False
    shape = buffer_type.shape
    batch_dim = next(
        (d for d, extent in enumerate(shape) if extent is None), None
    )
    rows = BOTTOM
    confined = True
    for dim, index_value in enumerate(indices):
        if dim == batch_dim:
            if index_value is not batch_index:
                confined = False
            continue
        constant = _constant_index(index_value)
        if constant is None:
            rows = TOP
        else:
            rows = rows.join(Interval.point(constant))
    if rows.is_bottom:
        rows = Interval.point(0)
    return rows, confined


# -- the registered check ------------------------------------------------------


def _describe(buffer: Value) -> str:
    from .buffer_safety import _describe_buffer

    return _describe_buffer(buffer)


def check_concurrency(root: Operation, ctx: AnalysisContext) -> None:
    """Registry entry point for the ``concurrency`` check."""
    kernels = (
        [root]
        if root.op_name == "lo_spn.kernel"
        else [op for op in root.walk() if op.op_name == "lo_spn.kernel"]
    )
    for kernel in kernels:
        _check_shard_confinement(summarize_kernel(kernel), ctx)


def _check_shard_confinement(
    summaries: Sequence[MemoryAccessSummary], ctx: AnalysisContext
) -> None:
    for summary in summaries:
        for buffer, access in summary.accesses.items():
            if access.writes.is_bottom or access.batch_confined:
                continue
            ctx.report(
                "concurrency.shard-overlap",
                Severity.ERROR,
                f"task #{summary.index} writes {_describe(buffer)} without "
                f"confining the batch dimension to its batch index — "
                f"row-sharded execution would race on the overlapping "
                f"element(s)",
                op=summary.op,
                task=summary.index,
                buffer=_describe(buffer),
                rows=(access.writes.lo, access.writes.hi),
            )


# -- shard-plan cross-check ----------------------------------------------------


def check_shard_plan(
    ranges: Sequence[Tuple[int, int]], total: Optional[int] = None
) -> List[AnalysisFinding]:
    """Statically verify a concrete shard plan is disjoint and covering.

    The runtime counterpart of the shard-confinement rule: given the
    ``(start, end)`` row ranges a sharded run would execute, report
    overlapping shards (two workers writing the same output rows) and —
    when ``total`` is given — coverage gaps (rows never computed).
    """
    findings: List[AnalysisFinding] = []
    ordered = sorted(ranges)
    for (a_start, a_end), (b_start, b_end) in zip(ordered, ordered[1:]):
        if b_start < a_end:
            findings.append(
                AnalysisFinding(
                    check="concurrency.shard-overlap",
                    severity=Severity.ERROR,
                    message=(
                        f"shard plan ranges [{a_start}, {a_end}) and "
                        f"[{b_start}, {b_end}) overlap on rows "
                        f"[{b_start}, {min(a_end, b_end)}) — concurrent "
                        f"shards would write the same output rows"
                    ),
                    detail={"ranges": [(a_start, a_end), (b_start, b_end)]},
                )
            )
    if total is not None:
        position = 0
        for start, end in ordered:
            if start > position:
                findings.append(
                    AnalysisFinding(
                        check="concurrency.shard-gap",
                        severity=Severity.ERROR,
                        message=(
                            f"shard plan never computes rows "
                            f"[{position}, {start})"
                        ),
                        detail={"gap": (position, start)},
                    )
                )
            position = max(position, end)
        if position < total:
            findings.append(
                AnalysisFinding(
                    check="concurrency.shard-gap",
                    severity=Severity.ERROR,
                    message=(
                        f"shard plan never computes rows "
                        f"[{position}, {total})"
                    ),
                    detail={"gap": (position, total)},
                )
            )
    return findings


register_check("concurrency", check_concurrency)
