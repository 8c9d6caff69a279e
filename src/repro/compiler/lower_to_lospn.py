"""Lowering HiSPN → LoSPN (paper Section IV-A3).

The HiSPN query + DAG is turned into a ``lo_spn.kernel`` containing a
single ``lo_spn.task`` whose region holds the per-sample computation in a
``lo_spn.body``:

- variadic HiSPN products are **binarized** into two-operand
  ``lo_spn.mul`` chains,
- the weighted sums of joint/marginal queries are **grouped** into sum
  layers: every set of ``hi_spn.sum`` ops over one identical child list
  becomes a single n-ary ``lo_spn.weighted_sum`` with a dense weight
  matrix (an ordinary sum is a group of one). The expansion into
  elementary operations is the target lowering's business
  (``ScalarEmitter.weighted_sum``). Query modalities that need the
  individual weighted terms (argmax chains, moment pairs) still
  **decompose** their sums into constant-multiplications and additions,
- the abstract ``!hi_spn.probability`` type is resolved to a concrete
  computation type: log-space (``!lo_spn.log<T>``) by default, with the
  float width chosen from graph characteristics (depth — a proxy for how
  small intermediate probabilities become and how much rounding error
  accumulates).

The resulting module uses the tensor form of LoSPN; bufferization later
switches it to memrefs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dialects import hispn, lospn
from ..ir import Builder, ModuleOp
from ..ir.ops import IRError, Operation
from ..ir.passes import Pass
from ..ir.types import FloatType, TensorType, f32, f64
from ..ir.value import Value
from ..spn.moments import (
    categorical_mode,
    categorical_moment,
    gaussian_mode,
    gaussian_moment,
    histogram_mode,
    histogram_moment,
)

#: Graphs deeper than this get f64 in log space: each level can lose a few
#: ulps in log-add-exp, and beyond ~60 levels f32's 24-bit mantissa starts
#: showing relative errors above 1e-4 at the root.
DEPTH_F64_THRESHOLD = 60


@dataclass
class TypeDecision:
    """The computation-type choice for a query (Section III-A)."""

    use_log_space: bool
    float_type: FloatType

    @property
    def computation_type(self):
        if self.use_log_space:
            return lospn.LogType(self.float_type)
        return self.float_type


def graph_depth(graph: hispn.GraphOp) -> int:
    depths: Dict[int, int] = {}
    max_depth = 0
    for op in graph.body.ops:
        if op.op_name == hispn.RootOp.name:
            continue
        operand_depths = [
            depths.get(id(v.defining_op), 0)
            for v in op.operands
            if v.defining_op is not None
        ]
        depth = 1 + max(operand_depths, default=0)
        depths[id(op)] = depth
        max_depth = max(max_depth, depth)
    return max_depth


def decide_computation_type(
    query: hispn.JointQueryOp,
    use_log_space: bool = True,
    force_float_type: Optional[FloatType] = None,
) -> TypeDecision:
    """Pick the concrete datatype for the abstract probability type.

    With a ``relativeError`` bound attached to the query, the full error
    analysis (:mod:`error_analysis`) selects the cheapest format whose
    predicted error satisfies the bound and which cannot underflow.
    Without one, the lightweight depth heuristic applies.
    """
    if force_float_type is not None:
        return TypeDecision(use_log_space, force_float_type)

    relative_error = query.relative_error
    if relative_error > 0.0:
        from .error_analysis import select_format

        selected = select_format(
            query, relative_error, prefer_log_space=use_log_space
        ).selected
        return TypeDecision(
            selected.log_space, f32 if selected.float_width == 32 else f64
        )

    depth = graph_depth(query.graph)
    if use_log_space:
        float_type = f64 if depth > DEPTH_F64_THRESHOLD else f32
    else:
        # Linear space underflows quickly; wide type is the only option.
        float_type = f64
    return TypeDecision(use_log_space, float_type)


class LoweringError(IRError):
    pass


def lower_to_lospn(
    module: ModuleOp,
    use_log_space: bool = True,
    force_float_type: Optional[FloatType] = None,
    kernel_name: str = "spn_kernel",
) -> ModuleOp:
    """Lower every HiSPN query in ``module`` to a new LoSPN module.

    Each query modality has its own lowering, but all of them produce
    the same shape of kernel — one ``lo_spn.task`` with per-feature
    ``batch_extract``s, a per-sample ``body``, and a transposed
    ``batch_collect`` — so every downstream stage (bufferize, vectorize,
    CPU/GPU lowering, interpreter) is modality-agnostic. Query-specific
    host-side post-processing (MPE traceback, sampling, conditional
    subtraction, moment normalization) is described by a JSON
    ``queryPlan`` attribute on the kernel.
    """
    new_module = ModuleOp.build()
    builder = Builder.at_end(new_module.body)
    lowered_any = False
    handlers = {
        hispn.JointQueryOp.name: _lower_joint_query,
        hispn.MPEQueryOp.name: _lower_mpe_query,
        hispn.SampleQueryOp.name: _lower_sample_query,
        hispn.ConditionalQueryOp.name: _lower_conditional_query,
        hispn.ExpectationQueryOp.name: _lower_expectation_query,
    }
    for op in module.body_block.ops:
        handler = handlers.get(op.op_name)
        if handler is not None:
            handler(op, builder, use_log_space, force_float_type, kernel_name)
            lowered_any = True
    if not lowered_any:
        raise LoweringError("module contains no hi_spn query to lower")
    return new_module


class _Scaffold:
    """The modality-independent kernel skeleton.

    Builds the kernel/task/extract/body nesting and exposes the body
    builder plus per-feature block arguments; ``finish`` wires the yielded
    head values through the transposed batch-collect and kernel return.
    """

    def __init__(
        self,
        query,
        builder: Builder,
        kernel_name: str,
        ct,
        num_results: int,
        num_input_columns: Optional[int] = None,
        used_features: Optional[List[int]] = None,
    ):
        input_type = query.input_type
        num_columns = (
            query.num_features if num_input_columns is None else num_input_columns
        )
        input_tensor_type = TensorType((None, num_columns), input_type)
        result_tensor_type = TensorType((num_results, None), ct)

        self.kernel = builder.create(
            lospn.KernelOp,
            kernel_name,
            [input_tensor_type],
            [result_tensor_type],
        )
        kernel_builder = Builder.at_end(self.kernel.body)
        input_arg = self.kernel.body.arguments[0]

        self.task = kernel_builder.create(
            lospn.TaskOp,
            [input_arg],
            query.batch_size,
            [result_tensor_type],
        )
        self.task_builder = Builder.at_end(self.task.body)
        self.batch_index = self.task.batch_index
        task_input = self.task.input_args[0]

        if used_features is None:
            # Only extract features actually consumed by leaves.
            used_features = sorted(
                {
                    arg.arg_index
                    for arg in query.graph.body.arguments
                    if arg.has_uses
                }
            )
        feature_values: Dict[int, Value] = {}
        for feature in used_features:
            extract = self.task_builder.create(
                lospn.BatchExtractOp,
                task_input,
                self.batch_index,
                static_index=feature,
                transposed=False,
            )
            feature_values[feature] = extract.result

        body_inputs = [feature_values[f] for f in used_features]
        self.body = self.task_builder.create(
            lospn.BodyOp, body_inputs, [ct] * num_results
        )
        self.body_builder = Builder.at_end(self.body.body)
        self.arg_of_feature = {
            feature: self.body.body.arguments[i]
            for i, feature in enumerate(used_features)
        }
        self._kernel_builder = kernel_builder

    def finish(self, head_values: List[Value], query_plan: Optional[dict] = None):
        self.body_builder.create(lospn.YieldOp, head_values)
        self.task_builder.create(
            lospn.BatchCollectOp, self.batch_index, list(self.body.results), transposed=True
        )
        self._kernel_builder.create(lospn.KernelReturnOp, [self.task.results[0]])
        if query_plan is not None:
            self.kernel.attributes["queryPlan"] = json.dumps(
                query_plan, sort_keys=True
            )
        return self.kernel


def _lower_joint_query(
    query: hispn.JointQueryOp,
    builder: Builder,
    use_log_space: bool,
    force_float_type: Optional[FloatType],
    kernel_name: str,
) -> None:
    decision = decide_computation_type(query, use_log_space, force_float_type)
    ct = decision.computation_type
    num_heads = len(query.graph.root_op.operands)
    scaffold = _Scaffold(query, builder, kernel_name, ct, num_heads)

    graph = query.graph
    groups = sum_groups(graph)
    bb = scaffold.body_builder
    mapping: Dict[Value, Value] = {}
    root_values: Optional[List[Value]] = None
    for op in graph.body.ops:
        if op.op_name == hispn.RootOp.name:
            root_values = [mapping[v] for v in op.operands]
        elif op.op_name == hispn.SumOp.name:
            members = groups.get(op)
            if members is None:
                continue  # lowered with the first sum of its group
            layer = bb.create(
                lospn.WeightedSumOp,
                [mapping[v] for v in op.operands],
                [member.weights for member in members],
            )
            for member, result in zip(members, layer.results):
                mapping[member.results[0]] = result
        else:
            mapping.update(
                _lower_node(
                    op,
                    bb,
                    mapping,
                    scaffold.arg_of_feature,
                    ct,
                    query.support_marginal,
                )
            )
    if root_values is None:
        raise LoweringError("hi_spn.graph has no root")
    scaffold.finish(root_values)


def sum_groups(graph: hispn.GraphOp) -> Dict[Operation, List[Operation]]:
    """The graph's sum layers, keyed by the first sum of each.

    Sums over one identical operand list form a layer (the ``num_sums``
    sums of a RAT-SPN region, the class heads of a multi-head kernel);
    any other sum is a layer of one. All members share their operands,
    so the whole layer can be emitted where its first member stands.
    """
    by_children: Dict[tuple, List[Operation]] = {}
    for op in graph.body.ops:
        if op.op_name == hispn.SumOp.name:
            by_children.setdefault(tuple(op.operands), []).append(op)
    return {members[0]: members for members in by_children.values()}


def _lower_node(
    op: Operation,
    builder: Builder,
    mapping: Dict[Value, Value],
    arg_of_feature: Dict[int, Value],
    ct,
    support_marginal: bool,
) -> Dict[Value, Value]:
    """Lower one leaf or product (sums are the caller's: they differ per
    query modality)."""
    name = op.op_name
    if name == hispn.GaussianOp.name:
        evidence = arg_of_feature[op.operands[0].arg_index]
        lowered = builder.create(
            lospn.GaussianOp, evidence, op.mean, op.stddev, ct, support_marginal
        )
        return {op.results[0]: lowered.result}
    if name == hispn.CategoricalOp.name:
        index = arg_of_feature[op.operands[0].arg_index]
        lowered = builder.create(
            lospn.CategoricalOp, index, op.probabilities, ct, support_marginal
        )
        return {op.results[0]: lowered.result}
    if name == hispn.HistogramOp.name:
        index = arg_of_feature[op.operands[0].arg_index]
        lowered = builder.create(
            lospn.HistogramOp, index, op.bounds, op.probabilities, ct, support_marginal
        )
        return {op.results[0]: lowered.result}
    if name == hispn.ProductOp.name:
        operands = [mapping[v] for v in op.operands]
        acc = operands[0]
        for operand in operands[1:]:
            acc = builder.create(lospn.MulOp, acc, operand).result
        return {op.results[0]: acc}
    raise LoweringError(f"cannot lower HiSPN op '{name}'")


_LEAF_OP_NAMES = (
    hispn.GaussianOp.name,
    hispn.CategoricalOp.name,
    hispn.HistogramOp.name,
)


def _single_root(graph: hispn.GraphOp, kind: str) -> Value:
    roots = graph.root_op.operands
    if len(roots) != 1:
        raise LoweringError(
            f"{kind} lowering supports single-root graphs only, got {len(roots)} roots"
        )
    return roots[0]


def _graph_plan(graph: hispn.GraphOp):
    """Describe the DAG as JSON-serializable plan nodes.

    Node ids are the op's position in ``graph.body.ops``; every leaf entry
    carries its distribution parameters and mode so host-side traceback
    (MPE completion, sample leaf draws) never needs the original SPN.
    """
    nodes: List[dict] = []
    id_of: Dict[Value, int] = {}
    root_id: Optional[int] = None
    for pos, op in enumerate(graph.body.ops):
        name = op.op_name
        if name == hispn.RootOp.name:
            root_id = id_of[op.operands[0]]
            continue
        entry: dict = {"id": pos}
        if name == hispn.GaussianOp.name:
            entry.update(
                kind="leaf",
                variable=op.operands[0].arg_index,
                mode=gaussian_mode(op.mean, op.stddev),
                leaf={"type": "gaussian", "mean": op.mean, "stdev": op.stddev},
            )
        elif name == hispn.CategoricalOp.name:
            probabilities = list(op.probabilities)
            entry.update(
                kind="leaf",
                variable=op.operands[0].arg_index,
                mode=float(categorical_mode(probabilities)),
                leaf={"type": "categorical", "probabilities": probabilities},
            )
        elif name == hispn.HistogramOp.name:
            bounds = list(op.bounds)
            densities = list(op.probabilities)
            entry.update(
                kind="leaf",
                variable=op.operands[0].arg_index,
                mode=histogram_mode(bounds, densities),
                leaf={"type": "histogram", "bounds": bounds, "densities": densities},
            )
        elif name == hispn.ProductOp.name:
            entry.update(
                kind="product", children=[id_of[v] for v in op.operands]
            )
        elif name == hispn.SumOp.name:
            entry.update(
                kind="sum",
                children=[id_of[v] for v in op.operands],
                weights=list(op.weights),
            )
        else:
            raise LoweringError(f"cannot plan HiSPN op '{name}'")
        id_of[op.results[0]] = pos
        nodes.append(entry)
    if root_id is None:
        raise LoweringError("hi_spn.graph has no root")
    return nodes, id_of, root_id


def _weighted_terms(
    builder: Builder, operands: List[Value], weights, ct, use_log_space: bool
) -> List[Value]:
    terms: List[Value] = []
    for operand, weight in zip(operands, weights):
        if use_log_space:
            payload = math.log(weight) if weight > 0 else -math.inf
        else:
            payload = weight
        const = builder.create(lospn.ConstantOp, payload, ct)
        terms.append(builder.create(lospn.MulOp, operand, const.result).result)
    return terms


def _add_chain(builder: Builder, terms: List[Value]) -> Value:
    acc = terms[0]
    for term in terms[1:]:
        acc = builder.create(lospn.AddOp, acc, term).result
    return acc


def _argmax_chain(builder: Builder, terms: List[Value], ct) -> Tuple[Value, Value]:
    """Running max + argmax over ``terms``.

    The argmax is carried as a raw float payload (the child position) in a
    ``ct``-typed constant; the strict ``>`` in select_max keeps the first
    maximum on ties, matching ``np.argmax`` and the reference traceback.
    """
    best = terms[0]
    index = builder.create(lospn.ConstantOp, 0.0, ct).result
    for position, term in enumerate(terms[1:], start=1):
        candidate = builder.create(lospn.ConstantOp, float(position), ct).result
        index = builder.create(
            lospn.SelectMaxOp, term, best, candidate, index
        ).result
        best = builder.create(lospn.MaxOp, term, best).result
    return best, index


def _lower_mpe_query(
    query,
    builder: Builder,
    use_log_space: bool,
    force_float_type: Optional[FloatType],
    kernel_name: str,
) -> None:
    """Max-product upward pass with per-sum argmax choice rows.

    Head 0 is the max-product score; head ``r`` (r >= 1) holds, for every
    sample, which child won sum node ``row == r`` — the host traceback
    walks these rows top-down and completes missing features with the
    winning leaf's mode.
    """
    decision = decide_computation_type(query, use_log_space, force_float_type)
    ct = decision.computation_type
    graph = query.graph
    root_value = _single_root(graph, "mpe")
    nodes, id_of, root_id = _graph_plan(graph)
    entry_of = {entry["id"]: entry for entry in nodes}

    num_sums = sum(
        1 for op in graph.body.ops if op.op_name == hispn.SumOp.name
    )
    scaffold = _Scaffold(query, builder, kernel_name, ct, 1 + num_sums)
    bb = scaffold.body_builder

    mapping: Dict[Value, Value] = {}
    choice_rows: List[Value] = []
    for op in graph.body.ops:
        name = op.op_name
        if name == hispn.RootOp.name:
            continue
        if name in _LEAF_OP_NAMES:
            entry = entry_of[id_of[op.results[0]]]
            arg = scaffold.arg_of_feature[op.operands[0].arg_index]
            # Missing features evaluate at the leaf's mode: the leaf then
            # contributes its maximum density, which is exactly the
            # max-product semantics for an unobserved variable.
            evidence = bb.create(
                lospn.InputValueOp, arg, float(entry["mode"])
            ).result
            if name == hispn.GaussianOp.name:
                lowered = bb.create(
                    lospn.GaussianOp, evidence, op.mean, op.stddev, ct, False
                )
            elif name == hispn.CategoricalOp.name:
                lowered = bb.create(
                    lospn.CategoricalOp, evidence, op.probabilities, ct, False
                )
            else:
                lowered = bb.create(
                    lospn.HistogramOp,
                    evidence,
                    op.bounds,
                    op.probabilities,
                    ct,
                    False,
                )
            mapping[op.results[0]] = lowered.result
        elif name == hispn.ProductOp.name:
            acc = mapping[op.operands[0]]
            for child in op.operands[1:]:
                acc = bb.create(lospn.MulOp, acc, mapping[child]).result
            mapping[op.results[0]] = acc
        elif name == hispn.SumOp.name:
            terms = _weighted_terms(
                bb,
                [mapping[v] for v in op.operands],
                op.weights,
                ct,
                decision.use_log_space,
            )
            best, index = _argmax_chain(bb, terms, ct)
            mapping[op.results[0]] = best
            entry_of[id_of[op.results[0]]]["row"] = 1 + len(choice_rows)
            choice_rows.append(index)
        else:
            raise LoweringError(f"cannot lower HiSPN op '{name}'")

    plan = {
        "kind": "mpe",
        "num_features": query.num_features,
        "root": root_id,
        "log_space": decision.use_log_space,
        "nodes": nodes,
    }
    scaffold.finish([mapping[root_value]] + choice_rows, plan)


def _lower_sample_query(
    query,
    builder: Builder,
    use_log_space: bool,
    force_float_type: Optional[FloatType],
    kernel_name: str,
) -> None:
    """Gumbel-max ancestral sampling.

    The upward pass is the ordinary marginal likelihood (evidence NaNs
    marginalize); each sum additionally emits an argmax choice row over
    its weighted children perturbed by per-edge Gumbel noise, which the
    host supplies in extra input columns ``F .. F+A-1``. Reading the
    noise through ``input_value`` with a log result type reinterprets the
    raw floats as log-space addends, so ``mul`` adds them to the scores.
    Gumbel-max needs that additive domain — sampling always runs in log
    space regardless of the session's space option.
    """
    float_type = force_float_type
    if float_type is None:
        float_type = f64 if graph_depth(query.graph) > DEPTH_F64_THRESHOLD else f32
    ct = lospn.LogType(float_type)
    graph = query.graph
    root_value = _single_root(graph, "sample")
    nodes, id_of, root_id = _graph_plan(graph)
    entry_of = {entry["id"]: entry for entry in nodes}

    num_features = query.num_features
    next_column = num_features
    sum_ops = [op for op in graph.body.ops if op.op_name == hispn.SumOp.name]
    for op in sum_ops:
        entry = entry_of[id_of[op.results[0]]]
        entry["noise_columns"] = list(
            range(next_column, next_column + len(op.operands))
        )
        next_column += len(op.operands)

    used = sorted(
        {arg.arg_index for arg in graph.body.arguments if arg.has_uses}
    )
    used += list(range(num_features, next_column))
    scaffold = _Scaffold(
        query,
        builder,
        kernel_name,
        ct,
        1 + len(sum_ops),
        num_input_columns=next_column,
        used_features=used,
    )
    bb = scaffold.body_builder

    mapping: Dict[Value, Value] = {}
    choice_rows: List[Value] = []
    for op in graph.body.ops:
        if op.op_name == hispn.RootOp.name:
            continue
        if op.op_name == hispn.SumOp.name:
            entry = entry_of[id_of[op.results[0]]]
            terms = _weighted_terms(
                bb, [mapping[v] for v in op.operands], op.weights, ct, True
            )
            mapping[op.results[0]] = _add_chain(bb, terms)
            noisy: List[Value] = []
            for term, column in zip(terms, entry["noise_columns"]):
                gumbel = bb.create(
                    lospn.InputValueOp,
                    scaffold.arg_of_feature[column],
                    0.0,
                    ct,
                ).result
                noisy.append(bb.create(lospn.MulOp, term, gumbel).result)
            _, index = _argmax_chain(bb, noisy, ct)
            entry["row"] = 1 + len(choice_rows)
            choice_rows.append(index)
        else:
            mapping.update(
                _lower_node(op, bb, mapping, scaffold.arg_of_feature, ct, True)
            )

    plan = {
        "kind": "sample",
        "num_features": num_features,
        "num_aux": next_column - num_features,
        "root": root_id,
        "nodes": nodes,
    }
    scaffold.finish([mapping[root_value]] + choice_rows, plan)


def _lower_conditional_query(
    query,
    builder: Builder,
    use_log_space: bool,
    force_float_type: Optional[FloatType],
    kernel_name: str,
) -> None:
    """P(Q | E) as two marginal heads in one body.

    Head 0 evaluates the full marginal (query values observed, evidence
    NaNs marginalized); head 1 re-evaluates the graph with every
    query-variable leaf replaced by the marginalization constant, giving
    P(E). The host wrapper subtracts (log) or divides (linear).
    """
    decision = decide_computation_type(query, use_log_space, force_float_type)
    ct = decision.computation_type
    graph = query.graph
    root_value = _single_root(graph, "conditional")
    query_set = set(query.query_variables)

    scaffold = _Scaffold(query, builder, kernel_name, ct, 2)
    bb = scaffold.body_builder

    def translate(drop_query_leaves: bool) -> Value:
        mapping: Dict[Value, Value] = {}
        for op in graph.body.ops:
            if op.op_name == hispn.RootOp.name:
                continue
            if (
                drop_query_leaves
                and op.op_name in _LEAF_OP_NAMES
                and op.operands[0].arg_index in query_set
            ):
                payload = 0.0 if decision.use_log_space else 1.0
                const = bb.create(lospn.ConstantOp, payload, ct)
                mapping[op.results[0]] = const.result
            elif op.op_name == hispn.SumOp.name:
                terms = _weighted_terms(
                    bb,
                    [mapping[v] for v in op.operands],
                    op.weights,
                    ct,
                    decision.use_log_space,
                )
                mapping[op.results[0]] = _add_chain(bb, terms)
            else:
                mapping.update(
                    _lower_node(
                        op, bb, mapping, scaffold.arg_of_feature, ct, True
                    )
                )
        return mapping[root_value]

    joint_head = translate(False)
    evidence_head = translate(True)
    plan = {
        "kind": "conditional",
        "num_features": query.num_features,
        "query_variables": sorted(query_set),
    }
    scaffold.finish([joint_head, evidence_head], plan)


def _leaf_substitution(op: Operation, moment: int) -> float:
    """The value substituted for a missing feature in a moment kernel.

    For the first moment this is the leaf's mean; for the second it is
    ``sqrt(E[x^2])`` so that squaring inside the kernel reproduces the
    leaf's raw second moment.
    """
    if op.op_name == hispn.GaussianOp.name:
        raw = gaussian_moment(op.mean, op.stddev, moment)
    elif op.op_name == hispn.CategoricalOp.name:
        raw = categorical_moment(list(op.probabilities), moment)
    else:
        raw = histogram_moment(list(op.bounds), list(op.probabilities), moment)
    if moment == 1:
        return float(raw)
    return math.sqrt(max(raw, 0.0))


def _lower_expectation_query(
    query,
    builder: Builder,
    use_log_space: bool,
    force_float_type: Optional[FloatType],
    kernel_name: str,
) -> None:
    """Conditional expectations E[x_v^m | E] for every variable in scope.

    Runs the (L, M_v) pair recursion: L is the marginal likelihood and
    M_v the unnormalized moment integral for variable ``v``. Head 0 is
    L at the root; head ``1+i`` is M for the i-th scope variable, and the
    host wrapper normalizes ``M_v / L``. Moments can be negative (e.g.
    negative means), which log space cannot represent — expectation
    kernels always run in linear f64.
    """
    ct = f64
    moment = query.moment
    graph = query.graph
    root_value = _single_root(graph, "expectation")

    scope: Dict[Value, frozenset] = {}
    for op in graph.body.ops:
        if op.op_name == hispn.RootOp.name:
            continue
        if op.op_name in _LEAF_OP_NAMES:
            scope[op.results[0]] = frozenset({op.operands[0].arg_index})
        else:
            scope[op.results[0]] = frozenset().union(
                *(scope[v] for v in op.operands)
            )
    variables = sorted(scope[root_value])

    scaffold = _Scaffold(query, builder, kernel_name, ct, 1 + len(variables))
    bb = scaffold.body_builder

    lik: Dict[Value, Value] = {}
    mom: Dict[Tuple[Value, int], Value] = {}
    for op in graph.body.ops:
        name = op.op_name
        if name == hispn.RootOp.name:
            continue
        result = op.results[0]
        if name in _LEAF_OP_NAMES:
            lik.update(
                _lower_node(op, bb, {}, scaffold.arg_of_feature, ct, True)
            )
            variable = op.operands[0].arg_index
            substitution = _leaf_substitution(op, moment)
            factor = bb.create(
                lospn.InputValueOp,
                scaffold.arg_of_feature[variable],
                substitution,
                ct,
            ).result
            if moment == 2:
                factor = bb.create(lospn.MulOp, factor, factor).result
            mom[(result, variable)] = bb.create(
                lospn.MulOp, factor, lik[result]
            ).result
        elif name == hispn.ProductOp.name:
            acc = lik[op.operands[0]]
            for child in op.operands[1:]:
                acc = bb.create(lospn.MulOp, acc, lik[child]).result
            lik[result] = acc
            for variable in scope[result]:
                acc_m: Optional[Value] = None
                for child in op.operands:
                    value = (
                        mom[(child, variable)]
                        if variable in scope[child]
                        else lik[child]
                    )
                    acc_m = (
                        value
                        if acc_m is None
                        else bb.create(lospn.MulOp, acc_m, value).result
                    )
                mom[(result, variable)] = acc_m
        elif name == hispn.SumOp.name:
            consts = [
                bb.create(lospn.ConstantOp, float(w), ct).result
                for w in op.weights
            ]
            lik[result] = _add_chain(
                bb,
                [
                    bb.create(lospn.MulOp, lik[c], const).result
                    for c, const in zip(op.operands, consts)
                ],
            )
            for variable in scope[result]:
                mom[(result, variable)] = _add_chain(
                    bb,
                    [
                        bb.create(
                            lospn.MulOp,
                            mom.get((c, variable), lik[c]),
                            const,
                        ).result
                        for c, const in zip(op.operands, consts)
                    ],
                )
        else:
            raise LoweringError(f"cannot lower HiSPN op '{name}'")

    heads = [lik[root_value]] + [mom[(root_value, v)] for v in variables]
    plan = {
        "kind": "expectation",
        "num_features": query.num_features,
        "moment": moment,
        "variables": variables,
    }
    scaffold.finish(heads, plan)


class LowerToLoSPNPass(Pass):
    """Pass wrapper (note: produces a *new* module; use the function in
    pipelines that thread module values instead)."""

    name = "lower-to-lospn"

    def __init__(self, use_log_space: bool = True):
        super().__init__()
        self.use_log_space = use_log_space
        self.result: Optional[ModuleOp] = None

    def run(self, op: Operation) -> None:
        self.result = lower_to_lospn(op, self.use_log_space)
