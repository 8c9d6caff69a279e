"""Structure-level optimization suite for the HiSPN dialect.

Two separately registered passes that rewrite the SPN *structure*
before lowering (architecture §17):

- ``structure-cse`` (:mod:`.cse`) — graph-level CSE merging isomorphic
  sub-SPNs into shared references; exact.
- ``structure-prune`` (:mod:`.prune`) — near-zero-weight pruning with
  renormalization under an accuracy budget.

Both are built on the shared canonical sub-SPN hashing in
:mod:`.canonical`; :mod:`.stats` profiles the opportunities and
:mod:`.export` converts optimized graphs back to serializable node DAGs.
"""

from .canonical import CanonicalIndex, each_graph, graph_ops, sum_depth
from .cse import StructureCSEStage, cse_graph, cse_module
from .export import graph_to_spn, module_to_spn
from .prune import StructurePruneStage, prune_graph, prune_module
from .ranges import (
    path_multiplicities,
    per_sum_budget,
    sum_perturbation_bound,
    value_log_ranges,
)
from .stats import graph_structure_stats, render_structure_stats, structure_stats

__all__ = [
    "CanonicalIndex",
    "StructureCSEStage",
    "StructurePruneStage",
    "cse_graph",
    "cse_module",
    "each_graph",
    "graph_ops",
    "graph_structure_stats",
    "graph_to_spn",
    "module_to_spn",
    "path_multiplicities",
    "per_sum_budget",
    "prune_graph",
    "prune_module",
    "render_structure_stats",
    "structure_stats",
    "sum_depth",
    "sum_perturbation_bound",
    "value_log_ranges",
]
