"""Tests for the structure-level optimization suite (architecture §17)."""

import math

import numpy as np
import pytest

from repro.compiler.frontend import build_hispn_module
from repro.compiler.pipeline import CompilerOptions, OptionsError, compile_spn
from repro.compiler.structure import (
    CanonicalIndex,
    cse_module,
    each_graph,
    graph_ops,
    module_to_spn,
    path_multiplicities,
    per_sum_budget,
    prune_graph,
    prune_module,
    structure_stats,
    sum_perturbation_bound,
    value_log_ranges,
)
from repro.ir import verify
from repro.spn import (
    Categorical,
    Gaussian,
    JointProbability,
    Product,
    Sum,
    deserialize,
    serialize,
)
from repro.spn.inference import log_likelihood
from repro.spn.nodes import num_nodes, structurally_equal

from ..conftest import make_gaussian_spn


def _module(spn, batch_size=8):
    return build_hispn_module(spn, JointProbability(batch_size=batch_size))


def _graph(module):
    return next(each_graph(module))


def _duplicated_spn():
    """Two structurally identical mixture components, built separately."""

    def component():
        return Product([Gaussian(0, 0.0, 1.0), Gaussian(1, 1.0, 2.0)])

    return Sum([component(), component()], [0.5, 0.5])


class TestCanonicalIndex:
    def test_duplicate_subtrees_share_class(self):
        module = _module(_duplicated_spn())
        graph = _graph(module)
        index = CanonicalIndex(graph)
        products = [
            op for op in graph_ops(graph) if op.op_name == "hi_spn.product"
        ]
        assert len(products) == 2
        assert index.class_id(products[0].results[0]) == index.class_id(
            products[1].results[0]
        )

    def test_product_is_commutative(self):
        a, b = Gaussian(0, 0.0, 1.0), Gaussian(1, 0.0, 1.0)
        spn = Sum([Product([a, b]), Product([b, a])], [0.5, 0.5])
        graph = _graph(_module(spn))
        index = CanonicalIndex(graph)
        products = [
            op for op in graph_ops(graph) if op.op_name == "hi_spn.product"
        ]
        classes = {index.class_id(op.results[0]) for op in products}
        assert len(classes) == 1

    def test_sum_pairs_sorted_jointly(self):
        a, b = Gaussian(0, 0.0, 1.0), Gaussian(0, 2.0, 1.0)
        left = Sum([a, b], [0.3, 0.7])
        right = Sum([b, a], [0.7, 0.3])  # same mixture, children reordered
        spn = Product([left, right])
        graph = _graph(_module(spn))
        index = CanonicalIndex(graph)
        sums = [op for op in graph_ops(graph) if op.op_name == "hi_spn.sum"]
        classes = {index.class_id(op.results[0]) for op in sums}
        assert len(classes) == 1

    def test_different_weights_differ(self):
        a, b = Gaussian(0, 0.0, 1.0), Gaussian(0, 2.0, 1.0)
        spn = Product([Sum([a, b], [0.3, 0.7]), Sum([a, b], [0.4, 0.6])])
        graph = _graph(_module(spn))
        index = CanonicalIndex(graph)
        sums = [op for op in graph_ops(graph) if op.op_name == "hi_spn.sum"]
        classes = {index.class_id(op.results[0]) for op in sums}
        assert len(classes) == 2


class TestCSE:
    def test_merges_duplicates_and_preserves_semantics(self, rng):
        spn = _duplicated_spn()
        module = _module(spn)
        before = len(graph_ops(_graph(module)))
        assert cse_module(module)
        verify(module)
        after = len(graph_ops(_graph(module)))
        assert after < before
        # One product and two leaves survive (plus the root sum).
        assert after == 4
        x = rng.normal(0.0, 1.0, size=(16, 2))
        merged = log_likelihood(module_to_spn(module)[0], x)
        np.testing.assert_allclose(merged, log_likelihood(spn, x))

    def test_compiled_cse_is_bit_exact(self, rng):
        spn = _duplicated_spn()
        x = rng.normal(0.0, 1.0, size=(16, 2)).astype(np.float32)
        query = JointProbability(batch_size=16)
        plain = compile_spn(spn, query, CompilerOptions(opt_level=1))
        opt = compile_spn(
            spn, query, CompilerOptions(opt_level=1, structure_opt="cse")
        )
        with plain.executable as p, opt.executable as o:
            np.testing.assert_array_equal(p(x), o(x))


class TestRanges:
    def test_leaf_and_sum_ranges(self):
        spn = Sum(
            [Gaussian(0, 0.0, 1.0), Categorical(0, [0.5, 0.5, 0.0])],
            [0.5, 0.5],
        )
        graph = _graph(_module(spn))
        ranges = value_log_ranges(graph)
        ops = {op.op_name: op for op in graph_ops(graph)}
        g_lo, g_hi = ranges[id(ops["hi_spn.gaussian"].results[0])]
        assert g_hi == pytest.approx(-0.5 * math.log(2.0 * math.pi))
        assert g_lo == pytest.approx(g_hi - 18.0)
        # The categorical has a zero bucket: true-support lower bound.
        c_lo, c_hi = ranges[id(ops["hi_spn.categorical"].results[0])]
        assert c_lo == -math.inf
        assert c_hi == pytest.approx(math.log(0.5))
        s_lo, s_hi = ranges[id(ops["hi_spn.sum"].results[0])]
        # Sum lower bound: weighted children can still reach the
        # Gaussian floor even when the categorical side is zero.
        assert s_lo == pytest.approx(math.log(0.5) + g_lo)
        assert s_hi == pytest.approx(
            math.log(0.5 * math.exp(g_hi) + 0.25)
        )

    def test_path_multiplicities_count_shared_uses(self):
        shared = Sum(
            [Gaussian(0, 0.0, 1.0), Gaussian(0, 2.0, 1.0)], [0.5, 0.5]
        )
        spn = Product([shared, shared])
        graph = _graph(_module(spn))
        mults = path_multiplicities(graph)
        sums = [op for op in graph_ops(graph) if op.op_name == "hi_spn.sum"]
        assert len(sums) == 1  # frontend keeps the DAG shared
        assert mults[id(sums[0])] == 2
        # The shared sum counts twice, so its budget share halves.
        assert per_sum_budget(graph, 0.1) == pytest.approx(0.05)

    def test_perturbation_bound_edges(self):
        assert sum_perturbation_bound(0.0, -math.inf, 0.0) == 0.0
        assert sum_perturbation_bound(0.5, 0.0, -math.inf) == math.inf
        assert sum_perturbation_bound(1.0, 0.0, 0.0) == math.inf
        small = sum_perturbation_bound(1e-6, math.log(1e-6), 0.0)
        assert 0.0 < small < 1e-5


class TestPrune:
    def test_zero_weights_always_dropped(self):
        spn = Sum(
            [Gaussian(0, 0.0, 1.0), Gaussian(0, 2.0, 1.0)], [1.0, 0.0]
        )
        graph = _graph(_module(spn))
        assert prune_graph(graph, accuracy_budget=0.0)
        # The zero-weight edge is gone; the single-operand shell folds,
        # leaving just the surviving Gaussian.
        assert [op.op_name for op in graph_ops(graph)] == ["hi_spn.gaussian"]

    def test_tiny_weight_dropped_within_budget(self):
        spn = Sum(
            [Gaussian(0, 0.0, 1.0), Gaussian(0, 2.0, 1.0)],
            [1.0 - 1e-12, 1e-12],
        )
        graph = _graph(_module(spn))
        assert prune_graph(graph, accuracy_budget=0.05)
        assert [op.op_name for op in graph_ops(graph)] == ["hi_spn.gaussian"]

    def test_support_loss_is_blocked(self):
        # The tiny component is the *only* cover of category 1: the
        # kept child's guaranteed value is zero, so no budget justifies
        # dropping it (pointwise log error would be -inf).
        spn = Sum(
            [Categorical(0, [1.0, 0.0]), Categorical(0, [0.0, 1.0])],
            [1.0 - 1e-12, 1e-12],
        )
        graph = _graph(_module(spn))
        assert not prune_graph(graph, accuracy_budget=10.0)

    def test_mass_above_budget_kept(self):
        spn = Sum(
            [Gaussian(0, 0.0, 1.0), Gaussian(0, 2.0, 1.0)], [0.6, 0.4]
        )
        graph = _graph(_module(spn))
        assert not prune_graph(graph, accuracy_budget=0.01)
        sums = [op for op in graph_ops(graph) if op.op_name == "hi_spn.sum"]
        assert len(sums) == 1 and len(sums[0].operands) == 2

    def test_renormalized_and_within_budget(self, rng):
        budget = 0.05
        spn = Sum(
            [Gaussian(0, 0.0, 1.0), Gaussian(0, 1.0, 1.0), Gaussian(0, 2.0, 1.0)],
            [0.7, 0.3 - 1e-13, 1e-13],
        )
        module = _module(spn)
        assert prune_module(module, budget)
        pruned = module_to_spn(module)[0]
        assert isinstance(pruned, Sum)
        assert sum(pruned.weights) == pytest.approx(1.0)
        x = rng.normal(0.5, 1.5, size=(64, 1))
        gap = np.abs(
            log_likelihood(pruned, x) - log_likelihood(spn, x)
        ).max()
        assert gap <= budget


class TestOptions:
    def test_default_ladder(self):
        assert CompilerOptions(opt_level=2).structure_passes() == ()
        assert CompilerOptions(opt_level=3).structure_passes() == (
            "cse",
            "prune",
        )

    def test_explicit_spellings(self):
        options = CompilerOptions(
            structure_opt="prune,cse", accuracy_budget=0.01
        )
        assert options.structure_passes() == ("prune", "cse")
        assert CompilerOptions(
            opt_level=3, structure_opt="none"
        ).structure_passes() == ()

    def test_unknown_pass_rejected(self):
        # "compress" (low-rank sum-layer factoring) was removed.
        for spec in ("cse,typo", "compress"):
            with pytest.raises(OptionsError):
                CompilerOptions(structure_opt=spec, accuracy_budget=0.01)

    def test_budget_goes_to_prune(self):
        options = CompilerOptions(structure_opt="cse,prune", accuracy_budget=0.04)
        assert options.structure_budget_share() == pytest.approx(0.04)
        cse_only = CompilerOptions(structure_opt="cse", accuracy_budget=0.04)
        assert cse_only.structure_budget_share() == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(OptionsError):
            CompilerOptions(accuracy_budget=-0.5)

    def test_fingerprint_tracks_structure_options(self):
        base = CompilerOptions(opt_level=2)
        with_cse = CompilerOptions(opt_level=2, structure_opt="cse")
        budgeted = CompilerOptions(
            opt_level=2, structure_opt="prune", accuracy_budget=0.01
        )
        prints = {
            base.cache_fingerprint(),
            with_cse.cache_fingerprint(),
            budgeted.cache_fingerprint(),
        }
        assert len(prints) == 3


class TestStats:
    def test_duplicates_reported(self):
        stats = structure_stats(_module(_duplicated_spn()))
        assert stats["total_ops"] == 7
        assert stats["duplicate_ops"] == 3  # one product + two leaves
        graph = stats["graphs"][0]
        assert graph["ops_by_kind"]["hi_spn.sum"] == 1
        assert graph["sum_depth"] == 1

    def test_weight_histogram_buckets(self):
        spn = Sum(
            [Gaussian(0, 0.0, 1.0), Gaussian(0, 1.0, 1.0), Gaussian(0, 2.0, 1.0)],
            [0.0, 1e-7, 1.0 - 1e-7],
        )
        graph = structure_stats(_module(spn))["graphs"][0]
        histogram = graph["weight_histogram"]
        assert histogram["zero"] == 1
        assert histogram["[1e-08, 1e-06)"] == 1
        assert histogram["[0.1, 1)"] == 1

    def test_dense_layers_are_the_lowering_sum_groups(self):
        # Two sums over one list of 3 children form a dense layer; a
        # sum over a different list and a lone 1-child sum do not.
        children = [Gaussian(0, float(i), 1.0) for i in range(3)]
        layer = [Sum(children, [0.2, 0.3, 0.5]), Sum(children, [0.6, 0.3, 0.1])]
        other = Sum(children[:2], [0.5, 0.5])
        single = Sum([Gaussian(0, 4.0, 1.0)], [1.0])
        spn = Sum([*layer, other, single], [0.25] * 4)
        graph = structure_stats(_module(spn))["graphs"][0]
        assert graph["dense_layers"] == [{"sums": 2, "children": 3}]


class TestSerializationRoundTrip:
    def _roundtrip(self, root):
        query = JointProbability(batch_size=8)
        payload = serialize(root, query)
        restored, _ = deserialize(payload)
        return restored

    def test_cse_shared_subtrees_survive(self, rng):
        module = _module(_duplicated_spn())
        cse_module(module)
        optimized = module_to_spn(module)[0]
        restored = self._roundtrip(optimized)
        assert structurally_equal(restored, optimized)
        # Sharing is preserved: the merged product is one node, not two.
        assert num_nodes(restored) == num_nodes(optimized) == 4
        x = rng.normal(0.0, 1.0, size=(16, 2))
        np.testing.assert_array_equal(
            log_likelihood(restored, x), log_likelihood(optimized, x)
        )

    def test_pruned_model_roundtrip(self, rng):
        spn = Sum(
            [Gaussian(0, 0.0, 1.0), Gaussian(0, 2.0, 1.0)],
            [1.0 - 1e-12, 1e-12],
        )
        module = _module(spn)
        prune_module(module, 0.05)
        optimized = module_to_spn(module)[0]
        restored = self._roundtrip(optimized)
        assert structurally_equal(restored, optimized)


class TestEndToEnd:
    def test_full_suite_within_budget(self, rng):
        budget = 0.05
        spn = make_gaussian_spn()
        x = rng.normal(0.5, 1.0, size=(32, 2)).astype(np.float32)
        query = JointProbability(batch_size=32)
        reference = compile_spn(spn, query, CompilerOptions(opt_level=1))
        optimized = compile_spn(
            spn,
            query,
            CompilerOptions(
                opt_level=1,
                structure_opt="cse,prune",
                accuracy_budget=budget,
            ),
        )
        with reference.executable as r, optimized.executable as o:
            gap = np.abs(np.asarray(r(x)) - np.asarray(o(x))).max()
        assert gap <= budget

    def test_opt3_runs_structure_passes(self):
        result = compile_spn(
            _duplicated_spn(),
            JointProbability(batch_size=8),
            CompilerOptions(opt_level=3),
        )
        names = [record.name for record in result.timings.records]
        assert "structure-cse" in names and "structure-prune" in names

    def test_per_pass_op_deltas_recorded(self):
        result = compile_spn(
            _duplicated_spn(),
            JointProbability(batch_size=8),
            CompilerOptions(opt_level=1, structure_opt="cse"),
        )
        record = next(
            r for r in result.timings.records if r.name == "structure-cse"
        )
        assert record.ops_after < record.ops_before
