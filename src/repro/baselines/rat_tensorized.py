"""Tensorized RAT-SPN execution (the paper's native-Tensorflow baseline).

RAT-SPNs are "natively implemented in Tensorflow" (Section V-B2): all
ten class heads share one graph and are evaluated in a single run, which
is why Tensorflow is much faster here than on generic per-node SPN
graphs. This executor reproduces that advantage: the shared sub-DAG
(identical across classes — only the head weights differ) is evaluated
exactly once per batch, with batched NumPy per node, producing all class
log-likelihoods in one pass.

For comparison, the SPNC compiler — as in the paper — must compile and
run ten distinct per-class kernels after the conversion to the SPFlow
representation, re-evaluating the shared structure each time.

This is a baseline, not a bound: it pays one NumPy dispatch sequence per
*node*. The compiled batch kernels pay one per *sum layer*
(``lo_spn.weighted_sum``) and beat it even per class
(``benchmarks/test_tab_ratspn_times.py`` gates that).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..spn.nodes import Leaf, Node, Product, Sum, topological_order
from .tfgraph import TFGPUModel


class TensorizedRatExecutor:
    """Evaluates all class heads of a RAT-SPN in one shared pass."""

    def __init__(self, class_roots: Sequence[Node]):
        self.class_roots = list(class_roots)
        # One shared topological order covering every class head.
        seen: Dict[int, Node] = {}
        order: List[Node] = []
        for root in self.class_roots:
            for node in topological_order(root):
                if id(node) not in seen:
                    seen[id(node)] = node
                    order.append(node)
        self.order = order
        self.num_nodes = len(order)

    def log_likelihoods(self, data: np.ndarray) -> np.ndarray:
        """[batch, num_classes] log likelihood matrix, one shared pass."""
        data = np.asarray(data, dtype=np.float64)
        values: Dict[int, np.ndarray] = {}
        for node in self.order:
            if isinstance(node, Leaf):
                values[id(node)] = node.log_density(data[:, node.variable])
            elif isinstance(node, Product):
                acc = values[id(node.children[0])].copy()
                for child in node.children[1:]:
                    acc += values[id(child)]
                values[id(node)] = acc
            elif isinstance(node, Sum):
                stacked = np.stack([values[id(c)] for c in node.children], axis=0)
                with np.errstate(divide="ignore"):
                    logw = np.log(np.asarray(node.weights))[:, None]
                shifted = stacked + logw
                peak = np.max(shifted, axis=0)
                with np.errstate(invalid="ignore"):
                    total = np.sum(np.exp(shifted - peak), axis=0)
                result = peak + np.log(total)
                values[id(node)] = np.where(np.isneginf(peak), -np.inf, result)
            else:  # pragma: no cover
                raise TypeError(f"unknown node {type(node).__name__}")
        return np.stack([values[id(root)] for root in self.class_roots], axis=1)

    def classify(self, data: np.ndarray) -> np.ndarray:
        return np.argmax(self.log_likelihoods(data), axis=1)


class TensorizedRatGPU(TensorizedRatExecutor):
    """TF-GPU variant of the tensorized executor.

    The tensorized graph consists of a modest number of *large* fused
    tensor ops (roughly one per RAT layer), so — unlike the per-node SPN
    graphs — it is compute-bound rather than launch-bound on the GPU.
    Timing uses the shared Python-world device constants.
    """

    def __init__(self, class_roots: Sequence[Node], model: Optional[TFGPUModel] = None,
                 layer_ops: Optional[int] = None):
        super().__init__(class_roots)
        self.model = model or TFGPUModel()
        # One fused kernel per tensorized layer; estimated from DAG depth.
        self.layer_ops = layer_ops if layer_ops is not None else 32
        self.last_simulated_seconds: Optional[float] = None

    def log_likelihoods(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        start = time.perf_counter()
        result = super().log_likelihoods(data)
        measured = time.perf_counter() - start
        model = self.model
        transfers = (
            2 * model.pcie_latency
            + (data.nbytes + result.nbytes) / model.pcie_bandwidth
        )
        self.last_simulated_seconds = (
            transfers
            + self.layer_ops * model.launch_overhead
            + measured * model.compute_scale
        )
        return result
