"""Structure statistics: what would the optimization suite buy here?

Computed on HiSPN before any structure pass runs, so the report is an
*opportunity* profile: how much duplicate structure graph CSE would
merge, how much near-zero weight mass pruning could drop at a given
budget, and which dense sum layers (>= 2 sums over one list of >= 2
children) the lowering will emit as one ``lo_spn.weighted_sum``.
Surfaced as ``python -m repro analyze --structure-stats
<model>`` with both text and JSON output.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ...dialects import hispn
from ...ir.ops import Operation
from ..lower_to_lospn import sum_groups
from .canonical import CanonicalIndex, each_graph, graph_ops, sum_depth

#: Weight-histogram bucket edges (decades); weights below the smallest
#: edge land in the first bucket, the rest in [edge, next_edge).
_DECADES = (1e-8, 1e-6, 1e-4, 1e-2, 1e-1, 1.0)


def _weight_histogram(weights: List[float]) -> Dict[str, int]:
    histogram: Dict[str, int] = {"zero": 0}
    previous = 0.0
    for edge in _DECADES:
        histogram[f"[{previous:g}, {edge:g})"] = 0
        previous = edge
    histogram[">= 1"] = 0
    for weight in weights:
        if weight == 0.0:
            histogram["zero"] += 1
            continue
        previous = 0.0
        for edge in _DECADES:
            if weight < edge:
                histogram[f"[{previous:g}, {edge:g})"] += 1
                break
            previous = edge
        else:
            histogram[">= 1"] += 1
    return histogram


def graph_structure_stats(graph: Operation) -> Dict[str, object]:
    """Structure profile of one ``hi_spn.graph``."""
    ops = graph_ops(graph)
    counts: Dict[str, int] = {}
    weights: List[float] = []
    uses = 0
    shared = 0
    for op in ops:
        counts[op.op_name] = counts.get(op.op_name, 0) + 1
        if op.op_name == hispn.SumOp.name:
            weights.extend(op.weights)
        num_uses = op.results[0].num_uses
        uses += num_uses
        if num_uses > 1:
            shared += 1
    index = CanonicalIndex(graph)
    distinct = len(
        {index.class_id(op.results[0]) for op in ops}
    )
    layers = [
        members
        for members in sum_groups(graph).values()
        if len(members) >= 2 and len(members[0].operands) >= 2
    ]
    return {
        "ops": len(ops),
        "ops_by_kind": dict(sorted(counts.items())),
        "sum_depth": sum_depth(graph),
        # DAG reuse already present: mean users per node, shared-node count.
        "sharing_factor": round(uses / len(ops), 4) if ops else 0.0,
        "shared_nodes": shared,
        # CSE opportunity: ops minus canonical classes = mergeable duplicates.
        "duplicate_ops": len(ops) - distinct,
        "sum_weights": len(weights),
        "weight_histogram": _weight_histogram(weights),
        "dense_layers": [
            {"sums": len(layer), "children": len(layer[0].operands)}
            for layer in layers
        ],
    }


def structure_stats(module: Operation) -> Dict[str, object]:
    """Aggregate structure profile across every graph in ``module``."""
    graphs = [graph_structure_stats(graph) for graph in each_graph(module)]
    total_ops = sum(g["ops"] for g in graphs)
    duplicates = sum(g["duplicate_ops"] for g in graphs)
    return {
        "graphs": graphs,
        "total_ops": total_ops,
        "duplicate_ops": duplicates,
        "cse_reduction_estimate": (
            round(duplicates / total_ops, 4) if total_ops else 0.0
        ),
    }


def render_structure_stats(stats: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`structure_stats` output."""
    lines = [
        f"structure-stats: {stats['total_ops']} ops, "
        f"{stats['duplicate_ops']} duplicates "
        f"(CSE would remove ~{stats['cse_reduction_estimate'] * 100:.1f}%)"
    ]
    for number, graph in enumerate(stats["graphs"]):
        lines.append(
            f"  graph {number}: {graph['ops']} ops, "
            f"sum depth {graph['sum_depth']}, "
            f"sharing factor {graph['sharing_factor']:.2f} "
            f"({graph['shared_nodes']} shared nodes)"
        )
        for kind, count in graph["ops_by_kind"].items():
            lines.append(f"    {kind:24s} {count}")
        lines.append(
            f"    weight histogram ({graph['sum_weights']} sum weights):"
        )
        for bucket, count in graph["weight_histogram"].items():
            if count:
                lines.append(f"      {bucket:16s} {count}")
        for layer in graph["dense_layers"]:
            lines.append(
                f"    dense layer: {layer['sums']} sums x "
                f"{layer['children']} children"
            )
    return "\n".join(lines)
