"""Acyclic graph partitioning of LoSPN tasks (paper Section IV-A4).

Very large SPNs (the RAT-SPN stress test reaches hundreds of thousands of
operations) are infeasible to compile as a single unit, so the single big
``lo_spn.task`` is split into multiple smaller tasks. The algorithm
adapts the heuristic acyclic DAG partitioning of Moreira et al. [10] as
described in the paper:

- **Initial ordering**: instead of a random topological ordering, a
  depth-first, child-first traversal is used — a node enters the ordering
  as soon as all its children (operands) have been processed, so subtrees
  tend to land in the same partition. The ordering preserves the
  invariant that no node in partition ``V_j`` has an edge to ``V_i`` with
  ``i < j``, which guarantees the partition dependence graph is acyclic.
- **Balance slack**: partitions may exceed the balanced size by 1 %
  (configurable), enabling more refinement moves.
- **Size model**: an op weighs 1, except an n-ary ``lo_spn.weighted_sum``
  which weighs its ``s * k`` weighted terms (what the scalar lowering
  expands it to); partition sizes, capacities and the spine budget are
  sums of these weights.
- **Cost model**: all edges carrying one SSA value from partition ``V_j``
  into partition ``V_i`` have a *combined* cost of 1 — the value is
  stored once in ``V_j``'s task and loaded once in ``V_i``'s task. Values
  produced by constant-like ops are free (they are re-materialized in the
  consumer).
- **Refinement**: the *Simple Moves* heuristic — single-node moves
  between neighbouring partitions that reduce cut cost while preserving
  acyclicity and balance.
- **Spine extraction**: the combining arithmetic nearest the root (the
  weighted-sum chain joining otherwise-independent subtrees) is grown
  into a users-closed "spine" and pinned to the final partition. With
  the spine out of the way, the remaining ops are pure subtree content,
  and partition boundaries are snapped to *clean cuts* — positions where
  no SSA value is live across the boundary — so independent subtrees
  land in separate partitions with no cross imports. The resulting
  partition dependence graph is wide rather than a chain.

After assignment the kernel is rewritten: one ``lo_spn.task`` per
partition, with cross-partition values communicated through intermediate
result tensors (``batch_collect`` in the producer, ``batch_extract`` in
the consumers).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dialects import lospn
from ..ir import Builder, ModuleOp
from ..ir.ops import IRError, Operation
from ..ir.traits import Trait
from ..ir.types import TensorType
from ..ir.value import BlockArgument, Value


@dataclass
class PartitioningOptions:
    max_partition_size: int = 10_000
    balance_slack: float = 0.01
    refinement_rounds: int = 2


@dataclass
class PartitioningStats:
    num_partitions: int = 0
    #: Per partition, the summed :func:`op_size` of its ops.
    partition_sizes: List[int] = field(default_factory=list)
    initial_cut_cost: int = 0
    final_cut_cost: int = 0
    moves_applied: int = 0


def op_size(op: Operation) -> int:
    """Partition-size units of one op: the weighted terms of a sum
    layer, 1 for everything else."""
    if op.op_name == lospn.WeightedSumOp.name:
        return len(op.results) * len(op.operands)
    return 1


class GraphPartitioner:
    """Partitions the op list of one lo_spn.body into acyclic parts."""

    def __init__(
        self,
        ops: Sequence[Operation],
        options: PartitioningOptions,
        pinned_last: Sequence[Operation] = (),
    ):
        self.ops: List[Operation] = [
            op for op in ops if op.op_name != lospn.YieldOp.name
        ]
        self.options = options
        self.size: Dict[int, int] = {id(op): op_size(op) for op in self.ops}
        self.total_size = sum(self.size.values())
        # Ops that must stay in the final partition (the root producer, so
        # the kernel's single-row result tensor invariant holds).
        self.pinned_last: Set[int] = {id(op) for op in pinned_last}
        self.position: Dict[int, int] = {}
        self.assignment: Dict[int, int] = {}
        self.num_partitions = 0
        self.capacity = 0
        self.sizes: List[int] = []
        self.stats = PartitioningStats()

    # -- pipeline -------------------------------------------------------------

    def run(self) -> Dict[int, int]:
        order = self._child_first_ordering()
        self._compute_spine(order)
        self._initial_partitioning(order)
        self.stats.initial_cut_cost = self._total_cut_cost()
        self._refine()
        self._merge_exportless()
        self.stats.final_cut_cost = self._total_cut_cost()
        self.stats.num_partitions = self.num_partitions
        self.stats.partition_sizes = list(self.sizes)
        return self.assignment

    # -- initial ordering -------------------------------------------------------

    def _child_first_ordering(self) -> List[Operation]:
        """Depth-first post-order: children immediately precede parents."""
        op_set = {id(op) for op in self.ops}
        visited: Set[int] = set()
        order: List[Operation] = []
        # Roots: ops whose results have no users inside the op set.
        roots = [
            op
            for op in self.ops
            if not any(
                id(use.owner) in op_set for res in op.results for use in res.uses
            )
        ]
        stack: List[Tuple[Operation, bool]] = [(op, False) for op in reversed(roots)]
        while stack:
            op, expanded = stack.pop()
            if expanded:
                order.append(op)
                continue
            if id(op) in visited:
                continue
            visited.add(id(op))
            stack.append((op, True))
            for operand in reversed(op.operands):
                producer = operand.defining_op
                if producer is not None and id(producer) in op_set:
                    if id(producer) not in visited:
                        stack.append((producer, False))
        # Any ops unreachable from the roots (shouldn't happen) keep order.
        if len(order) != len(self.ops):
            remaining = [op for op in self.ops if id(op) not in visited]
            order.extend(remaining)
        return order

    # -- spine extraction -------------------------------------------------------

    def _compute_spine(self, order: List[Operation]) -> None:
        """Grow the pinned head producers into a users-closed spine.

        Starting from the pinned root producers, ops whose every in-DAG
        user is already in the spine are absorbed, largest approximate
        operand-closure first — so the weighted-sum chain near the root
        (whose closures span the whole graph) is absorbed before any
        subtree content. Growth stops at one balanced partition's worth
        of ops. The spine is users-closed, so pinning it to the final
        partition keeps every edge pointing forward.
        """
        total = self.total_size
        estimated = max(1, -(-total // self.options.max_partition_size))
        if estimated <= 1 or not self.pinned_last:
            return
        budget = -(-total // estimated)
        spine_size = sum(self.size[op_id] for op_id in self.pinned_last)
        if spine_size >= budget:
            return
        op_set = {id(op): op for op in self.ops}
        closure: Dict[int, int] = {}
        for op in order:  # child-first: producers are sized before users
            closure[id(op)] = self.size[id(op)] + sum(
                closure.get(id(o.defining_op), 0)
                for o in op.operands
                if o.defining_op is not None and id(o.defining_op) in op_set
            )
        users: Dict[int, List[Operation]] = {
            id(op): [
                use.owner
                for res in op.results
                for use in res.uses
                if id(use.owner) in op_set
            ]
            for op in self.ops
        }
        spine: Set[int] = set(self.pinned_last)
        heap: List[Tuple[int, int, int]] = []
        tie = 0

        def consider(op: Operation) -> None:
            nonlocal tie
            if id(op) in spine:
                return
            consumers = users[id(op)]
            if consumers and all(id(u) in spine for u in consumers):
                heapq.heappush(heap, (-closure[id(op)], tie, id(op)))
                tie += 1

        for op in self.ops:
            if id(op) in spine:
                for operand in op.operands:
                    producer = operand.defining_op
                    if producer is not None and id(producer) in op_set:
                        consider(producer)
        while heap and spine_size < budget:
            _, _, op_id = heapq.heappop(heap)
            if op_id in spine:
                continue
            if any(id(u) not in spine for u in users[op_id]):
                continue  # stale entry: a user left the frontier
            spine.add(op_id)
            spine_size += self.size[op_id]
            for operand in op_set[op_id].operands:
                producer = operand.defining_op
                if producer is not None and id(producer) in op_set:
                    consider(producer)
        self.pinned_last = spine

    # -- initial partitioning ------------------------------------------------------

    def _initial_partitioning(self, order: List[Operation]) -> None:
        for position, op in enumerate(order):
            self.position[id(op)] = position
        if self.total_size <= self.options.max_partition_size:
            self.num_partitions = 1
            self.sizes = [self.total_size]
            self.capacity = max(
                1, int(self.total_size * (1.0 + self.options.balance_slack))
            )
            for op in self.ops:
                self.assignment[id(op)] = 0
            return
        spine = self.pinned_last
        spine_size = sum(self.size[op_id] for op_id in spine)
        rest = [op for op in order if id(op) not in spine]
        # prefix[i]: summed size of rest[:i].
        prefix = [0]
        for op in rest:
            prefix.append(prefix[-1] + self.size[id(op)])
        total = prefix[-1]
        max_size = self.options.max_partition_size
        num_rest = max(1, -(-total // max_size)) if total else 0
        target = -(-total // num_rest) if num_rest else 1
        self.capacity = max(
            1,
            int(target * (1.0 + self.options.balance_slack)),
            spine_size,
        )
        clean = self._clean_cuts(rest)
        bounds: List[Tuple[int, int]] = []
        start = 0
        while start < len(rest):
            if total - prefix[start] <= self.capacity:
                end = len(rest)
            else:
                # Snap to the latest clean cut that still fills at least
                # half the target; fall back to a plain balanced cut.
                end = None
                hi = bisect_right(prefix, prefix[start] + self.capacity) - 2
                lo = bisect_left(prefix, prefix[start] + max(1, -(-target // 2))) - 1
                for cut in range(hi, lo - 1, -1):
                    if clean[cut]:
                        end = cut + 1
                        break
                if end is None:
                    end = bisect_right(prefix, prefix[start] + target) - 1
                end = max(end, start + 1)  # one oversized op still advances
            bounds.append((start, end))
            start = end
        self.num_partitions = len(bounds) + (1 if spine else 0)
        self.sizes = []
        for partition, (lo, hi) in enumerate(bounds):
            for index in range(lo, hi):
                self.assignment[id(rest[index])] = partition
            self.sizes.append(prefix[hi] - prefix[lo])
        if spine:
            last = len(bounds)
            for op in self.ops:
                if id(op) in spine:
                    self.assignment[id(op)] = last
            self.sizes.append(spine_size)

    def _merge_exportless(self) -> None:
        """Fold partitions that would emit no task into their successor.

        A partition whose every non-rematerializable value is consumed
        inside the partition itself (e.g. a slice of constants, or dead
        ops) has nothing to export, so the kernel rewrite would skip it
        and the emitted task count would diverge from
        ``stats.num_partitions``. Merging forward is always legal: such
        a partition has no outgoing edges, and incoming edges keep
        pointing forward.
        """
        if self.num_partitions <= 1:
            return
        exporting = [False] * self.num_partitions
        exporting[self.num_partitions - 1] = True  # holds the pinned heads
        for op in self.ops:
            if _rematerializable(op):
                continue
            part = self.assignment[id(op)]
            if exporting[part]:
                continue
            for res in op.results:
                if any(
                    self.assignment.get(id(use.owner)) not in (None, part)
                    for use in res.uses
                ):
                    exporting[part] = True
                    break
        if all(exporting):
            return
        successor: Dict[int, int] = {}
        new_index = sum(exporting)
        for part in range(self.num_partitions - 1, -1, -1):
            if exporting[part]:
                new_index -= 1
                current = new_index
            successor[part] = current
        for op in self.ops:
            self.assignment[id(op)] = successor[self.assignment[id(op)]]
        self.num_partitions = sum(exporting)
        self.sizes = [0] * self.num_partitions
        for op in self.ops:
            self.sizes[self.assignment[id(op)]] += self.size[id(op)]
        self.capacity = max(self.capacity, max(self.sizes))

    @staticmethod
    def _clean_cuts(rest: List[Operation]) -> List[bool]:
        """``clean[i]`` — no SSA value is live across the cut after
        ``rest[i]`` (values consumed only by the spine do not count)."""
        total = len(rest)
        positions = {id(op): i for i, op in enumerate(rest)}
        crossing = [0] * (total + 1)
        for consumer_pos, op in enumerate(rest):
            for operand in op.operands:
                producer = operand.defining_op
                if producer is None:
                    continue
                producer_pos = positions.get(id(producer))
                if producer_pos is not None and producer_pos < consumer_pos:
                    crossing[producer_pos] += 1
                    crossing[consumer_pos] -= 1
        live = 0
        clean = [False] * total
        for i in range(total):
            live += crossing[i]
            clean[i] = live == 0
        return clean

    # -- cost model ---------------------------------------------------------------

    def _value_cost(self, op: Operation) -> int:
        """Cut cost contributed by the results of ``op``."""
        if _rematerializable(op):
            return 0
        producer_part = self.assignment[id(op)]
        cost = 0
        for res in op.results:
            consumer_parts = {
                self.assignment[id(use.owner)]
                for use in res.uses
                if id(use.owner) in self.assignment
            }
            consumer_parts.discard(producer_part)
            if consumer_parts:
                cost += 1 + len(consumer_parts)  # store once + one load per task
        return cost

    def _total_cut_cost(self) -> int:
        return sum(self._value_cost(op) for op in self.ops)

    # -- refinement (Simple Moves) ---------------------------------------------------

    def _neighborhood_cost(self, op: Operation) -> int:
        cost = self._value_cost(op)
        for operand in op.operands:
            producer = operand.defining_op
            if producer is not None and id(producer) in self.assignment:
                cost += self._value_cost(producer)
        return cost

    def _move_legal(self, op: Operation, target: int) -> bool:
        if target < 0 or target >= self.num_partitions:
            return False
        if self.sizes[target] + self.size[id(op)] > self.capacity:
            return False
        source = self.assignment[id(op)]
        if target > source:
            # All users must live in partitions >= target.
            for res in op.results:
                for use in res.uses:
                    user_part = self.assignment.get(id(use.owner))
                    if user_part is not None and user_part < target:
                        return False
        else:
            # All producers must live in partitions <= target.
            for operand in op.operands:
                producer = operand.defining_op
                if producer is None:
                    continue
                producer_part = self.assignment.get(id(producer))
                if producer_part is not None and producer_part > target:
                    return False
        return True

    def _refine(self) -> None:
        if self.num_partitions < 2:
            return
        for _ in range(self.options.refinement_rounds):
            moves_this_round = 0
            for op in self.ops:
                if id(op) in self.pinned_last:
                    continue
                source = self.assignment[id(op)]
                best_target = None
                best_delta = 0
                for target in (source - 1, source + 1):
                    if not self._move_legal(op, target):
                        continue
                    before = self._neighborhood_cost(op)
                    self.assignment[id(op)] = target
                    after = self._neighborhood_cost(op)
                    self.assignment[id(op)] = source
                    delta = after - before
                    if delta < best_delta:
                        best_delta = delta
                        best_target = target
                if best_target is not None:
                    self.assignment[id(op)] = best_target
                    self.sizes[source] -= self.size[id(op)]
                    self.sizes[best_target] += self.size[id(op)]
                    moves_this_round += 1
            self.stats.moves_applied += moves_this_round
            if moves_this_round == 0:
                break


def _rematerializable(op: Operation) -> bool:
    """Ops cloned into consumer partitions instead of exported.

    Constants are free to re-materialize. ``lo_spn.input_value`` must be:
    its result is a *raw* feature value (not the computation type), and
    cross-partition tensors carry a single element type — exporting a raw
    value through a log-typed tensor would silently reinterpret it. Its
    only operand is a feature block argument, available in any partition.
    """
    return op.has_trait(Trait.CONSTANT_LIKE) or op.op_name == lospn.InputValueOp.name


# --- IR rewriting ------------------------------------------------------------------


def partition_kernel(
    module: ModuleOp, options: Optional[PartitioningOptions] = None
) -> Tuple[ModuleOp, PartitioningStats]:
    """Split each kernel's single task into per-partition tasks.

    Returns a new module; kernels whose task fits in one partition are
    copied unchanged (cloned).
    """
    options = options or PartitioningOptions()
    new_module = ModuleOp.build()
    builder = Builder.at_end(new_module.body)
    stats = PartitioningStats()
    for op in module.body_block.ops:
        if op.op_name != lospn.KernelOp.name:
            builder.insert(op.clone({}))
            continue
        stats = _partition_one_kernel(op, builder, options)
    return new_module, stats


def _partition_one_kernel(
    kernel: Operation, builder: Builder, options: PartitioningOptions
) -> PartitioningStats:
    tasks = kernel.tasks()
    if len(tasks) != 1:
        raise IRError("partitioning expects a kernel with exactly one task")
    task = tasks[0]
    bodies = [op for op in task.body.ops if op.op_name == lospn.BodyOp.name]
    if len(bodies) != 1:
        raise IRError("partitioning expects a task with exactly one body")
    body = bodies[0]

    dag_ops = [op for op in body.body.ops if op.op_name != lospn.YieldOp.name]
    # Pin every head's producer to the final partition so the kernel's
    # [num_heads x batch] result tensor invariant holds.
    pinned = [
        v.defining_op
        for v in body.body.terminator.operands
        if v.defining_op is not None
    ]
    partitioner = GraphPartitioner(dag_ops, options, pinned_last=pinned)
    assignment = partitioner.run()
    stats = partitioner.stats

    if partitioner.num_partitions <= 1:
        builder.insert(kernel.clone({}))
        return stats

    _rewrite_kernel(kernel, task, body, assignment, partitioner.num_partitions, builder)
    return stats


def _rewrite_kernel(
    kernel: Operation,
    task: Operation,
    body: Operation,
    assignment: Dict[int, int],
    num_partitions: int,
    builder: Builder,
) -> None:
    ct = body.results[0].type
    batch_size = task.batch_size

    # Map: feature block-arg of the old body -> feature index (staticIndex
    # of the batch_extract feeding it).
    feature_of_arg: Dict[Value, int] = {}
    for extract in task.body.ops:
        if extract.op_name != lospn.BatchExtractOp.name:
            continue
        for use in extract.results[0].uses:
            if use.owner is body:
                feature_of_arg[body.body.arguments[use.operand_index]] = (
                    extract.static_index
                )

    dag_ops = [op for op in body.body.ops if op.op_name != lospn.YieldOp.name]
    yield_op = body.body.terminator
    root_values: List[Value] = list(yield_op.operands)
    if len(set(map(id, root_values))) != len(root_values):
        raise IRError(
            "partitioning does not support duplicate head values in a "
            "multi-head kernel"
        )
    root_set = set(map(id, root_values))

    per_part_ops: List[List[Operation]] = [[] for _ in range(num_partitions)]
    for op in dag_ops:
        per_part_ops[assignment[id(op)]].append(op)

    # Values each partition must export: used by a later partition or the root.
    exports: List[List[Value]] = [[] for _ in range(num_partitions)]
    export_index: Dict[Value, Tuple[int, int]] = {}
    for op in dag_ops:
        if _rematerializable(op):
            continue
        part = assignment[id(op)]
        for res in op.results:
            needed = id(res) in root_set or any(
                id(use.owner) in assignment and assignment[id(use.owner)] != part
                for use in res.uses
            )
            if needed:
                export_index[res] = (part, len(exports[part]))
                exports[part].append(res)

    # The final partition's exports are exactly the head values; order
    # them like the kernel's result rows.
    for part, values in enumerate(exports):
        if values and all(id(v) in root_set for v in values):
            root_order = {id(v): i for i, v in enumerate(root_values)}
            values.sort(key=lambda v: root_order[id(v)])
            for i, v in enumerate(values):
                export_index[v] = (part, i)

    new_kernel = builder.create(
        lospn.KernelOp,
        kernel.sym_name,
        list(kernel.arg_types),
        list(kernel.result_types),
    )
    if "queryPlan" in kernel.attributes:
        # Host-side query plans (MPE traceback, sampling, ...) describe
        # head rows, which partitioning preserves — carry the plan over.
        new_kernel.attributes["queryPlan"] = kernel.attributes["queryPlan"]
    kb = Builder.at_end(new_kernel.body)
    input_arg = new_kernel.body.arguments[0]

    # Intermediate tensors indexed by partition.
    part_result: Dict[int, Value] = {}
    final_result: Optional[Value] = None

    for part in range(num_partitions):
        ops = per_part_ops[part]
        if not ops or not exports[part]:
            continue
        # Which external values does this partition consume?
        needed_features: List[int] = []
        needed_imports: List[Value] = []
        for op in ops:
            for operand in op.operands:
                if isinstance(operand, BlockArgument):
                    feature = feature_of_arg[operand]
                    if feature not in needed_features:
                        needed_features.append(feature)
                else:
                    producer = operand.defining_op
                    if producer is None or id(producer) not in assignment:
                        continue
                    if _rematerializable(producer):
                        # Cloned into this partition rather than imported;
                        # make its feature operands available here.
                        if assignment[id(producer)] != part:
                            for sub in producer.operands:
                                if isinstance(sub, BlockArgument):
                                    feature = feature_of_arg[sub]
                                    if feature not in needed_features:
                                        needed_features.append(feature)
                        continue
                    if assignment[id(producer)] != part and operand not in needed_imports:
                        needed_imports.append(operand)

        import_parts = sorted({export_index[v][0] for v in needed_imports})
        task_inputs: List[Value] = []
        if needed_features:
            task_inputs.append(input_arg)
        task_inputs.extend(part_result[p] for p in import_parts)

        is_final = any(id(res) in root_set for op in ops for res in op.results)
        num_exports = len(exports[part])
        result_tensor = TensorType((num_exports, None), ct)
        new_task = kb.create(
            lospn.TaskOp, task_inputs, batch_size, [result_tensor]
        )
        tb = Builder.at_end(new_task.body)
        batch_index = new_task.batch_index

        arg_cursor = 0
        feature_values: Dict[int, Value] = {}
        if needed_features:
            input_block_arg = new_task.input_args[arg_cursor]
            arg_cursor += 1
            for feature in needed_features:
                feature_values[feature] = tb.create(
                    lospn.BatchExtractOp,
                    input_block_arg,
                    batch_index,
                    static_index=feature,
                    transposed=False,
                ).result
        import_values: Dict[Value, Value] = {}
        for p in import_parts:
            tensor_arg = new_task.input_args[arg_cursor]
            arg_cursor += 1
            for value in needed_imports:
                src_part, idx = export_index[value]
                if src_part != p:
                    continue
                import_values[value] = tb.create(
                    lospn.BatchExtractOp,
                    tensor_arg,
                    batch_index,
                    static_index=idx,
                    transposed=True,
                ).result

        # Build the body: inputs are features + imported intermediate values.
        body_inputs: List[Value] = [feature_values[f] for f in needed_features]
        body_inputs.extend(import_values[v] for v in needed_imports)
        body_result_types = [v.type for v in exports[part]]
        new_body = tb.create(lospn.BodyOp, body_inputs, body_result_types)
        bb = Builder.at_end(new_body.body)

        value_map: Dict[Value, Value] = {}
        for i, feature in enumerate(needed_features):
            # Feature block-args of the original body that map to this feature.
            for old_arg, feat in feature_of_arg.items():
                if feat == feature:
                    value_map[old_arg] = new_body.body.arguments[i]
        offset = len(needed_features)
        for i, value in enumerate(needed_imports):
            value_map[value] = new_body.body.arguments[offset + i]

        cloned_remats: Dict[int, Operation] = {}
        for op in ops:
            # Re-materialize constant/input-value operands from other
            # partitions (their inputs — nothing, or feature args — are
            # available in every partition).
            for operand in op.operands:
                producer = operand.defining_op
                if (
                    producer is not None
                    and _rematerializable(producer)
                    and assignment.get(id(producer)) != part
                    and operand not in value_map
                ):
                    if id(producer) not in cloned_remats:
                        cloned_remats[id(producer)] = bb.insert(
                            producer.clone(value_map)
                        )
                    value_map[operand] = cloned_remats[id(producer)].results[0]
            bb.insert(op.clone(value_map))
        bb.create(
            lospn.YieldOp, [value_map.get(v, v) for v in exports[part]]
        )

        tb.create(
            lospn.BatchCollectOp,
            batch_index,
            list(new_body.results),
            transposed=True,
        )
        part_result[part] = new_task.results[0]
        if is_final:
            final_result = new_task.results[0]

    if final_result is None:
        raise IRError("partitioning lost the root value")
    kb.create(lospn.KernelReturnOp, [final_result])
