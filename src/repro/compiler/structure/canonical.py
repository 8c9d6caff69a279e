"""Canonical hashing of sub-SPNs inside a ``hi_spn.graph``.

The structure suite (graph CSE, pruning) needs one
shared answer to "are these two sub-DAGs the same distribution?". This
module value-numbers every SSA value in a graph: two values receive the
same *canonical class id* iff the sub-SPNs rooted at them are isomorphic
up to the algebraic identities HiSPN guarantees —

- ``hi_spn.product`` is commutative, so operand order is ignored;
- ``hi_spn.sum`` mixtures are order-free *as (child, weight) pairs*:
  the pairs are sorted jointly, so reordering children together with
  their weights does not change the class;
- leaves compare by parameters (via the dialect attribute keys), and
  block arguments by feature index.

Keys are interned bottom-up: a value's structural key only ever refers
to the *class ids* of its operands, never to nested keys, so hashing a
DAG is linear in its size (shared sub-DAGs are keyed once) and merging
by class id automatically merges whole isomorphic subtrees.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...dialects import hispn
from ...ir.attributes import attributes_key
from ...ir.ops import Operation
from ...ir.value import Value


class CanonicalIndex:
    """Value numbering of a ``hi_spn.graph`` body under SPN identities."""

    def __init__(self, graph: Operation):
        self.graph = graph
        #: id(value) -> canonical class id.
        self.class_of: Dict[int, int] = {}
        #: structural key -> canonical class id (the interning table).
        self._classes: Dict[Tuple, int] = {}
        #: class id -> first op observed producing that class (ops only;
        #: block arguments are their own singleton classes).
        self.representative: Dict[int, Operation] = {}
        self._build()

    # -- construction ------------------------------------------------------------

    def _build(self) -> None:
        block = self.graph.regions[0].entry_block
        for index, argument in enumerate(block.arguments):
            self._assign(argument, ("arg", index))
        for op in block.ops:
            if not op.results:
                continue  # the hi_spn.root terminator
            class_id = self._assign(op.results[0], self._op_key(op))
            self.representative.setdefault(class_id, op)

    def _assign(self, value: Value, key: Tuple) -> int:
        class_id = self._classes.setdefault(key, len(self._classes))
        self.class_of[id(value)] = class_id
        return class_id

    def _op_key(self, op: Operation) -> Tuple:
        operands = tuple(self.class_of[id(v)] for v in op.operands)
        if op.op_name == hispn.ProductOp.name:
            # Commutative: operand multiset, not operand order.
            return (op.op_name, tuple(sorted(operands)))
        if op.op_name == hispn.SumOp.name:
            # Mixtures are order-free as (child, weight) pairs.
            pairs = tuple(sorted(zip(operands, op.weights)))
            return (op.op_name, pairs)
        return (op.op_name, operands, attributes_key(op.attributes))

    # -- queries -----------------------------------------------------------------

    def class_id(self, value: Value) -> int:
        return self.class_of[id(value)]

    def num_classes(self) -> int:
        return len(self._classes)


def graph_ops(graph: Operation) -> List[Operation]:
    """The node ops of a graph body (every op except the root marker)."""
    return [
        op
        for op in graph.regions[0].entry_block.ops
        if op.op_name in hispn.NODE_OP_NAMES
    ]


def each_graph(module: Operation):
    """Yield every ``hi_spn.graph`` nested under ``module``."""
    for op in module.walk():
        if op.op_name == hispn.GraphOp.name:
            yield op


def sum_depth(graph: Operation) -> int:
    """Maximum number of sum ops on any root-to-leaf path.

    The pruning pass allocates its accuracy budget across sum *levels*:
    each pruned sum perturbs the log value of everything above it, and
    perturbations compound along a path, so the per-sum budget share is
    ``budget / sum_depth``.
    """
    depth_of: Dict[int, int] = {}
    deepest = 0
    for op in graph.regions[0].entry_block.ops:
        if op.op_name not in hispn.NODE_OP_NAMES:
            continue
        operand_depth = max(
            (depth_of.get(id(v), 0) for v in op.operands), default=0
        )
        here = operand_depth + (1 if op.op_name == hispn.SumOp.name else 0)
        depth_of[id(op.results[0])] = here
        deepest = max(deepest, here)
    return deepest
