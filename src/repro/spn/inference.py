"""Reference SPN inference (the correctness oracle).

Implements batched bottom-up evaluation over the DAG with NumPy,
supporting joint probability and marginal inference. Marginalized
features are encoded as NaN in the input (matching the compiler's
``supportMarginal`` convention): a leaf whose evidence is missing
contributes probability 1 (log 0). The compiled entry points in
:mod:`repro.api` implement the same NaN rule, auto-routing batches
with NaN evidence to a marginal-supporting kernel.

Out-of-domain discrete evidence (a categorical value outside
``[0, K)``) has probability zero — the same rule the compiled
backends emit, see :class:`repro.spn.nodes.Categorical`.

Every compiled kernel — CPU scalar, CPU vectorized, GPU — is validated
against :func:`log_likelihood` in the tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .moments import categorical_moment, gaussian_moment, histogram_moment
from .nodes import Categorical, Gaussian, Histogram, Leaf, Node, Product, Sum, topological_order


def log_likelihood(root: Node, data: np.ndarray, marginal: Optional[bool] = None) -> np.ndarray:
    """Batched log joint/marginal probability of each row of ``data``.

    Args:
        root: SPN root node.
        data: array of shape [batch, num_features].
        marginal: treat NaN entries as marginalized. Defaults to
            auto-detection (enabled when the data contains NaNs).

    Returns:
        Array of shape [batch] with log probabilities.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must have shape [batch, num_features]")
    if marginal is None:
        marginal = bool(np.isnan(data).any())

    values: Dict[int, np.ndarray] = {}
    for node in topological_order(root):
        if isinstance(node, Leaf):
            column = data[:, node.variable]
            if marginal:
                missing = np.isnan(column)
                # Evaluate with a safe placeholder, then zero out the
                # contribution of marginalized features.
                safe = np.where(missing, 0.0, column)
                ll = node.log_density(safe)
                ll = np.where(missing, 0.0, ll)
            else:
                ll = node.log_density(column)
            values[id(node)] = ll
        elif isinstance(node, Product):
            acc = values[id(node.children[0])].copy()
            for child in node.children[1:]:
                acc += values[id(child)]
            values[id(node)] = acc
        elif isinstance(node, Sum):
            stacked = np.stack([values[id(c)] for c in node.children], axis=0)
            with np.errstate(divide="ignore"):  # a zero weight is log 0 = -inf
                log_weights = np.log(np.asarray(node.weights))[:, None]
            shifted = stacked + log_weights
            peak = np.max(shifted, axis=0)
            # log-sum-exp with -inf guard: rows where all terms are -inf.
            with np.errstate(invalid="ignore"):
                summed = np.sum(np.exp(shifted - peak), axis=0)
            result = peak + np.log(summed)
            result = np.where(np.isneginf(peak), -np.inf, result)
            values[id(node)] = result
        else:  # pragma: no cover - guarded by the node class hierarchy
            raise TypeError(f"unknown node type {type(node).__name__}")
    return values[id(root)]


def likelihood(root: Node, data: np.ndarray, marginal: Optional[bool] = None) -> np.ndarray:
    """Linear-space probability of each row (exp of :func:`log_likelihood`)."""
    return np.exp(log_likelihood(root, data, marginal=marginal))


def conditional_log_likelihood(
    root: Node, data: np.ndarray, query_variables: Sequence[int]
) -> np.ndarray:
    """Batched ``log P(Q = q | E = e)`` for a fixed query-variable set.

    ``query_variables`` indexes the features interpreted as the query
    ``Q``; all remaining features are evidence ``E``. Evidence NaNs are
    marginalized; a NaN on a query feature is an error (there is no
    defined conditional for an unobserved query value).

    Computed as ``log P(q, e) - log P(e)``, the second term obtained by
    marginalizing the query features out. Rows with zero-probability
    evidence (``log P(e) = -inf``) yield NaN — the conditional is
    undefined there — matching the compiled kernels.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must have shape [batch, num_features]")
    query_variables = sorted({int(v) for v in query_variables})
    if not query_variables:
        raise ValueError("need at least one query variable")
    if max(query_variables) >= data.shape[1]:
        raise ValueError("query variable out of range for the data")
    if np.isnan(data[:, query_variables]).any():
        raise ValueError("query variables must be observed (non-NaN)")

    joint = log_likelihood(root, data, marginal=True)
    evidence_only = data.copy()
    evidence_only[:, query_variables] = np.nan
    evidence = log_likelihood(root, evidence_only, marginal=True)
    with np.errstate(invalid="ignore"):
        return joint - evidence


def _leaf_moment(leaf: Leaf, moment: int) -> float:
    if isinstance(leaf, Gaussian):
        return gaussian_moment(leaf.mean, leaf.stdev, moment)
    if isinstance(leaf, Categorical):
        return categorical_moment(leaf.probabilities, moment)
    if isinstance(leaf, Histogram):
        return histogram_moment(leaf.bounds, leaf.densities, moment)
    raise TypeError(f"unknown leaf type {type(leaf).__name__}")  # pragma: no cover


def expectation(root: Node, evidence: np.ndarray, moment: int = 1) -> np.ndarray:
    """Posterior raw moments ``E[X_v^m | e]`` per row and feature.

    NaN features are unobserved (the moment is taken under the SPN
    posterior given the remaining evidence); observed features return
    their observed value raised to the ``moment``-th power. Features
    outside the root scope come back NaN. Rows whose evidence has zero
    probability yield NaN.

    Implemented with the standard (likelihood, moment) pair recursion in
    linear space: ``M_v(leaf on v) = x_v^m * L(leaf)`` (with the leaf's
    closed-form moment substituted for missing evidence and ``L = 1``),
    products multiply the sibling likelihoods in, sums mix with their
    weights, and ``E[X_v^m | e] = M_v(root) / L(root)``.
    """
    if moment not in (1, 2):
        raise ValueError("only moments 1 and 2 are supported")
    evidence = np.asarray(evidence, dtype=np.float64)
    if evidence.ndim != 2:
        raise ValueError("evidence must have shape [batch, num_features]")
    num_rows, num_features = evidence.shape

    lik: Dict[int, np.ndarray] = {}
    mom: Dict[Tuple[int, int], np.ndarray] = {}
    for node in topological_order(root):
        if isinstance(node, Leaf):
            column = evidence[:, node.variable]
            missing = np.isnan(column)
            safe = np.where(missing, 0.0, column)
            density = np.exp(node.log_density(safe))
            lik[id(node)] = np.where(missing, 1.0, density)
            observed_m = safe**moment
            substituted = np.where(missing, _leaf_moment(node, moment), observed_m)
            mom[(id(node), node.variable)] = substituted * lik[id(node)]
        elif isinstance(node, Product):
            acc = lik[id(node.children[0])].copy()
            for child in node.children[1:]:
                acc = acc * lik[id(child)]
            lik[id(node)] = acc
            for variable in node.scope:
                value = None
                for child in node.children:
                    factor = mom.get((id(child), variable), lik[id(child)])
                    value = factor if value is None else value * factor
                mom[(id(node), variable)] = value
        elif isinstance(node, Sum):
            weights = np.asarray(node.weights)
            lik[id(node)] = sum(
                w * lik[id(c)] for c, w in zip(node.children, weights)
            )
            for variable in node.scope:
                mom[(id(node), variable)] = sum(
                    w * mom.get((id(c), variable), lik[id(c)])
                    for c, w in zip(node.children, weights)
                )
        else:  # pragma: no cover - closed hierarchy
            raise TypeError(f"unknown node type {type(node).__name__}")

    out = np.full((num_rows, num_features), np.nan)
    denominator = lik[id(root)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for variable in root.scope:
            if variable < num_features:
                out[:, variable] = mom[(id(root), variable)] / denominator
    out[~np.isfinite(denominator) | (denominator <= 0.0)] = np.nan
    return out


def classify(roots, data: np.ndarray) -> np.ndarray:
    """Pick, per sample, the class whose SPN assigns the highest likelihood.

    This is the speaker-identification / RAT-SPN decision rule: one SPN per
    class, argmax over the per-class log likelihoods.
    """
    scores = np.stack([log_likelihood(root, data) for root in roots], axis=1)
    return np.argmax(scores, axis=1)
