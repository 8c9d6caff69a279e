"""Export an optimized HiSPN graph back to a ``repro.spn`` node DAG.

The frontend translation (:func:`repro.compiler.frontend.build_hispn_module`)
maps node DAGs to HiSPN 1:1; this is its inverse, so a structurally
optimized module can be persisted through the existing
:mod:`repro.spn.serialization` binary format and recompiled later —
shared sub-SPNs stay shared (one :class:`Node` per SSA value).
"""

from __future__ import annotations

from typing import Dict, List

from ...dialects import hispn
from ...ir.ops import Operation
from ...spn.nodes import Categorical, Gaussian, Histogram, Node, Product, Sum
from ...ir.value import Value
from .canonical import each_graph


def graph_to_spn(graph: Operation) -> List[Node]:
    """Rebuild the node DAG of one ``hi_spn.graph``; one root per head."""
    block = graph.regions[0].entry_block
    nodes: Dict[int, Node] = {}

    def child(value: Value) -> Node:
        return nodes[id(value)]

    root_op = None
    for op in block.ops:
        if op.op_name == hispn.GaussianOp.name:
            node: Node = Gaussian(_variable(op), op.mean, op.stddev)
        elif op.op_name == hispn.CategoricalOp.name:
            node = Categorical(_variable(op), op.probabilities)
        elif op.op_name == hispn.HistogramOp.name:
            node = Histogram(_variable(op), op.bounds, op.probabilities)
        elif op.op_name == hispn.ProductOp.name:
            node = Product([child(v) for v in op.operands])
        elif op.op_name == hispn.SumOp.name:
            node = Sum([child(v) for v in op.operands], op.weights)
        elif op.op_name == hispn.RootOp.name:
            root_op = op
            continue
        else:  # pragma: no cover - the graph body vocabulary is closed
            raise TypeError(f"unhandled op '{op.op_name}' in hi_spn.graph")
        nodes[id(op.results[0])] = node
    if root_op is None:
        raise ValueError("hi_spn.graph has no root op")
    return [child(value) for value in root_op.operands]


def module_to_spn(module: Operation) -> List[Node]:
    """Roots of the first (and in practice only) graph in ``module``."""
    for graph in each_graph(module):
        return graph_to_spn(graph)
    raise ValueError("module contains no hi_spn.graph")


def _variable(op: Operation) -> int:
    argument = op.operands[0]
    index = getattr(argument, "arg_index", None)
    if index is None:
        raise TypeError(
            f"leaf '{op.op_name}' does not read a graph block argument"
        )
    return index
