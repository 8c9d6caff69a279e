"""Modeled-domain value ranges and budget allocation for pruning.

The lossy structure pass (pruning) promises a bound on the absolute
log-likelihood perturbation of the whole model — the *accuracy budget*. Weight-space reasoning alone cannot deliver such
a bound: a mixture component with a tiny weight can still be the only
component covering part of the input space, and dropping it collapses
the likelihood there to zero (log -inf). The sound criterion needs
*value ranges*: per-node bounds on the log density each sub-SPN can
produce over the modeled input domain — the same bounded domain the
computation-type decision uses (:mod:`repro.compiler.error_analysis`:
Gaussians over mean ± :data:`GAUSSIAN_DOMAIN_SIGMAS` standard
deviations, discrete leaves over their listed buckets).

Two differences from the error-analysis ranges, both required for
soundness of *structural* rewrites:

- **true support**: a zero-probability category makes a leaf's lower
  bound log 0 = -inf (the error analysis floors it, which is fine for
  rounding bounds but would let pruning delete a sub-SPN's entire
  support);
- **sum lower bounds add**: ``inf(sum w_k c_k) >= sum w_k inf(c_k)``,
  so the sum's lower bound is the log-sum-exp of the weighted child
  lower bounds rather than the single smallest child (tighter, and the
  tightness is what lets pruning keep a meaningful denominator).

Budget allocation: perturbations *add* across the children of a
product and compound through shared sub-DAGs, so a per-path split is
unsound — the right multiplicity of a sum op is the number of
root-to-op paths. With ``mult(s)`` path counts, an easy induction gives

    |dlog root| <= sum over sums s of mult(s) * own(s)

so a uniform per-sum allocation ``own = budget / sum_s mult(s)`` keeps
the root perturbation within ``budget`` over the modeled domain.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Tuple

from ...dialects import hispn
from ...ir.ops import Operation
from ..error_analysis import GAUSSIAN_DOMAIN_SIGMAS

_NEG_INF = float("-inf")


def log_sum_exp(terms: Iterable[float]) -> float:
    """Stable ``log(sum(exp(t)))``; empty or all ``-inf`` gives -inf."""
    terms = [t for t in terms if t != _NEG_INF]
    if not terms:
        return _NEG_INF
    peak = max(terms)
    if peak == math.inf:
        return math.inf
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


def support_leaf_range(op: Operation) -> Tuple[float, float]:
    """(log_min, log_max) of a leaf over the modeled domain, true support.

    Unlike :func:`repro.compiler.error_analysis._leaf_range`, a
    zero-probability bucket yields a genuine ``-inf`` lower bound: the
    leaf's support has a hole, and any rewrite relying on this leaf to
    keep the mixture positive must see that.
    """
    name = op.op_name
    if name == hispn.GaussianOp.name:
        peak = -math.log(op.stddev * math.sqrt(2.0 * math.pi))
        return peak - 0.5 * GAUSSIAN_DOMAIN_SIGMAS ** 2, peak
    if name in (hispn.CategoricalOp.name, hispn.HistogramOp.name):
        probs = list(op.probabilities)
        if not probs:
            return _NEG_INF, _NEG_INF
        lo = min(probs)
        hi = max(probs)
        return (
            math.log(lo) if lo > 0.0 else _NEG_INF,
            math.log(hi) if hi > 0.0 else _NEG_INF,
        )
    raise ValueError(f"not a leaf op: {name}")


def value_log_ranges(graph: Operation) -> Dict[int, Tuple[float, float]]:
    """Bottom-up (log_min, log_max) per node value, keyed by id(value)."""
    ranges: Dict[int, Tuple[float, float]] = {}
    for op in graph.regions[0].entry_block.ops:
        name = op.op_name
        if name not in hispn.NODE_OP_NAMES:
            continue
        if name in hispn.LEAF_OP_NAMES:
            bounds = support_leaf_range(op)
        elif name == hispn.ProductOp.name:
            children = [
                ranges.get(id(v), (_NEG_INF, math.inf)) for v in op.operands
            ]
            bounds = (
                sum(lo for lo, _ in children),
                sum(hi for _, hi in children),
            )
        elif name == hispn.SumOp.name:
            children = [
                ranges.get(id(v), (_NEG_INF, math.inf)) for v in op.operands
            ]
            logw = [
                math.log(w) if w > 0.0 else _NEG_INF for w in op.weights
            ]
            bounds = (
                log_sum_exp(w + lo for w, (lo, _) in zip(logw, children)),
                log_sum_exp(w + hi for w, (_, hi) in zip(logw, children)),
            )
        else:  # pragma: no cover - dialect is closed
            raise ValueError(f"unexpected op {name}")
        ranges[id(op.results[0])] = bounds
    return ranges


def path_multiplicities(graph: Operation) -> Dict[int, int]:
    """Root-to-op path counts, keyed by id(op). Unreachable ops get 0.

    A sub-SPN referenced from ``k`` places perturbs the root ``k``
    times over (log perturbations add across product children), so its
    budget share must shrink by the same factor. Counts are capped to
    keep pathological DAGs from overflowing — the cap only makes the
    allocation *more* conservative.
    """
    cap = 1 << 40
    count: Dict[int, int] = {}

    def bump(value, amount: int) -> None:
        op = value.defining_op
        if op is not None:
            count[id(op)] = min(cap, count.get(id(op), 0) + amount)

    for op in reversed(list(graph.regions[0].entry_block.ops)):
        if op.op_name == hispn.RootOp.name:
            for value in op.operands:
                bump(value, 1)
        elif op.op_name in (hispn.SumOp.name, hispn.ProductOp.name):
            here = count.get(id(op), 0)
            if here:
                for value in op.operands:
                    bump(value, here)
    return count


def per_sum_budget(graph: Operation, accuracy_budget: float) -> float:
    """Uniform per-sum log-perturbation allowance under the budget.

    ``budget / sum of path multiplicities over all reachable sums`` —
    the allocation under which the path-multiplicity induction bounds
    the root log perturbation by ``accuracy_budget``.
    """
    if accuracy_budget <= 0.0:
        return 0.0
    mults = path_multiplicities(graph)
    total = sum(
        mults.get(id(op), 0)
        for op in graph.regions[0].entry_block.ops
        if op.op_name == hispn.SumOp.name
    )
    if total == 0:
        return 0.0
    return accuracy_budget / total


def sum_perturbation_bound(
    dropped_mass: float, dropped_upper_log: float, kept_lower_log: float
) -> float:
    """Worst-case |dlog| of replacing a sum by its renormalized survivors.

    With dropped weight mass ``m``, ``U = log sum_D w_k sup(c_k)`` and
    ``L = log sum_keep w_j inf(c_j)`` over the modeled domain, the
    dropped share of the sum's value is at most
    ``alpha = e^U / (e^U + e^L)``, so after renormalization by
    ``1/(1-m)`` the log value moves within
    ``[log(1-alpha) - log(1-m), -log(1-m)]``.
    """
    if dropped_mass >= 1.0:
        return math.inf
    if dropped_upper_log == _NEG_INF:
        alpha = 0.0
    elif kept_lower_log == _NEG_INF:
        return math.inf
    else:
        alpha = 1.0 / (1.0 + math.exp(kept_lower_log - dropped_upper_log))
    if alpha >= 1.0:
        return math.inf
    up = -math.log1p(-dropped_mass)
    down = -math.log1p(-alpha) + math.log1p(-dropped_mass)
    return max(up, down)
