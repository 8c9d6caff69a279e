"""Tree balancing of binarized LoSPN chains (-O3).

Binarizing variadic HiSPN sums/products (§IV-A3) produces left-leaning
chains: ``(((a ⊕ b) ⊕ c) ⊕ d)`` with depth N-1. This pass re-associates
maximal single-use chains of the same operation into balanced binary
trees of depth ⌈log2 N⌉, which

- shortens the dependency chains the backend must execute in order
  (better ILP on real hardware; fewer serialized NumPy ops here), and
- reduces worst-case rounding-error accumulation (error grows with the
  chain depth — see ``error_analysis``).

Re-association changes floating-point results within rounding tolerance;
the pass therefore only runs at -O3 (the paper's "differences between
optimization levels are small" regime), and the tests pin the tolerance.

The chains it finds are products (every query) and the sums of the
conditional, MPE and sampling lowerings. The sums of joint/marginal
queries are n-ary ``lo_spn.weighted_sum`` ops, not ``lo_spn.add``
chains: where those expand to binary log-adds
(``ScalarEmitter.weighted_sum``) they are folded as a balanced tree at
every optimization level.
"""

from __future__ import annotations

from typing import List, Set

from ..dialects import lospn
from ..ir import Builder, ModuleOp
from ..ir.ops import Operation
from ..ir.value import Value

_CHAIN_OPS = {lospn.MulOp.name: lospn.MulOp, lospn.AddOp.name: lospn.AddOp}


def _collect_chain(root: Operation, visited: Set[int]) -> List[Value]:
    """Leaves of the maximal same-op single-use chain rooted at ``root``."""
    kind = root.op_name
    leaves: List[Value] = []
    stack: List[Value] = [root.operands[0], root.operands[1]]
    visited.add(id(root))
    while stack:
        value = stack.pop()
        producer = value.defining_op
        if (
            producer is not None
            and producer.op_name == kind
            and value.has_one_use()
            and id(producer) not in visited
        ):
            visited.add(id(producer))
            stack.append(producer.operands[0])
            stack.append(producer.operands[1])
        else:
            leaves.append(value)
    leaves.reverse()  # keep original operand order (stable numerics)
    return leaves


def _build_balanced(builder: Builder, op_class, values: List[Value]) -> Value:
    if len(values) == 1:
        return values[0]
    mid = len(values) // 2
    left = _build_balanced(builder, op_class, values[:mid])
    right = _build_balanced(builder, op_class, values[mid:])
    return builder.create(op_class, left, right).result


def balance_chains(module: ModuleOp, min_chain: int = 4) -> int:
    """Re-associate mul/add chains into balanced trees; returns #chains."""
    balanced = 0
    for body in module.walk():
        if body.op_name != lospn.BodyOp.name:
            continue
        block = body.body_block
        visited: Set[int] = set()
        for op in list(block.ops):
            if op.op_name not in _CHAIN_OPS or id(op) in visited:
                continue
            # Only start at chain *roots*: ops whose (single) user is not
            # the same kind, or with multiple users.
            users = op.results[0].users
            if (
                len(users) == 1
                and users[0].op_name == op.op_name
                and op.results[0].has_one_use()
            ):
                continue
            leaves = _collect_chain(op, visited)
            if len(leaves) < min_chain:
                continue
            builder = Builder.before_op(op)
            replacement = _build_balanced(builder, _CHAIN_OPS[op.op_name], leaves)
            op.results[0].replace_all_uses_with(replacement)
            balanced += 1
        # Erase the now-dead original chain ops (reverse order: users first).
        for op in reversed(block.op_list()):
            if (
                op.op_name in _CHAIN_OPS
                and op.results
                and not op.results[0].has_uses
            ):
                op.erase()
    return balanced


def max_chain_depth(module: ModuleOp) -> int:
    """Longest mul/add dependency chain in any LoSPN body (diagnostic)."""
    deepest = 0
    for body in module.walk():
        if body.op_name != lospn.BodyOp.name:
            continue
        depths = {}
        for op in body.body_block.ops:
            if op.op_name in _CHAIN_OPS:
                operand_depths = [
                    depths.get(id(v.defining_op), 0) for v in op.operands
                ]
                depths[id(op)] = 1 + max(operand_depths, default=0)
                deepest = max(deepest, depths[id(op)])
    return deepest
