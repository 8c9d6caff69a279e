"""Tests for chain balancing, pipeline specs and DOT export."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.compiler.balance import balance_chains, max_chain_depth
from repro.compiler.frontend import build_hispn_module
from repro.compiler.lower_to_lospn import lower_to_lospn
from repro.ir import verify
from repro.ir.pipeline_spec import parse_pipeline, register_pass, registered_passes
from repro.spn import (
    ConditionalProbability,
    Gaussian,
    JointProbability,
    Product,
    Sum,
    log_likelihood,
)
from repro.spn.visualize import to_dot, write_dot

from ..conftest import make_gaussian_spn


def wide_product(width=16):
    return Product([Gaussian(i, float(i), 1.0) for i in range(width)])


def wide_sum(width=16):
    return Sum(
        [Gaussian(0, float(i), 1.0) for i in range(width)],
        [1.0 / width] * width,
    )


class TestBalanceChains:
    def _lowered(self, spn):
        return lower_to_lospn(
            build_hispn_module(spn, JointProbability(batch_size=8))
        )

    def test_product_chain_depth_reduced(self):
        module = self._lowered(wide_product(16))
        before = max_chain_depth(module)
        assert before == 15  # left-leaning binarized chain
        assert balance_chains(module) == 1
        verify(module)
        after = max_chain_depth(module)
        assert after == 4  # ceil(log2(16))

    def test_sum_chain_depth_reduced(self):
        # Joint sums are n-ary layers; the conditional lowering still
        # decomposes its sums into binary add chains.
        module = lower_to_lospn(
            build_hispn_module(
                wide_sum(16),
                ConditionalProbability(query_variables=(0,), batch_size=8),
            )
        )
        before = max_chain_depth(module)
        assert before == 16  # 1 weighting mul + 15 left-leaning adds
        balance_chains(module)
        verify(module)
        assert max_chain_depth(module) < before

    def test_short_chains_untouched(self):
        module = self._lowered(make_gaussian_spn())
        assert balance_chains(module, min_chain=4) == 0

    def test_semantics_preserved_within_tolerance(self, rng):
        spn = wide_product(12)
        x = rng.normal(size=(40, 12)).astype(np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))

        module = self._lowered(spn)
        balance_chains(module)
        verify(module)
        from repro.compiler.bufferization import (
            bufferize,
            insert_deallocations,
            remove_result_copies,
        )
        from repro.compiler.cpu.lowering import lower_kernel_to_cpu
        from repro.backends.cpu.codegen import generate_cpu_module

        module = bufferize(module)
        remove_result_copies(module)
        insert_deallocations(module)
        generated = generate_cpu_module(lower_kernel_to_cpu(module))
        out = np.empty((1, 40), dtype=np.float32)
        with np.errstate(all="ignore"):
            generated.get("spn_kernel")(x, out)
        np.testing.assert_allclose(out[0], ref, rtol=2e-3, atol=1e-5)

    def test_o3_pipeline_runs_balancing(self, rng):
        spn = wide_sum(10)
        x = rng.normal(size=(20, 1)).astype(np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        result = compile_spn(
            spn, JointProbability(batch_size=8), CompilerOptions(opt_level=3)
        )
        assert "balance-chains" in result.stage_seconds
        np.testing.assert_allclose(result.executable(x), ref, rtol=2e-3, atol=1e-5)

    def test_multi_use_values_are_chain_boundaries(self, rng):
        """An interior value with a second user splits the chain, and the
        rewrite stays semantics-preserving."""
        from repro.dialects import lospn
        from repro.ir import Builder

        spn = wide_product(8)
        module = self._lowered(spn)
        body = [op for op in module.walk() if op.op_name == "lo_spn.body"][0]
        muls = [op for op in body.body_block.ops if op.op_name == "lo_spn.mul"]
        interior = muls[3]
        # Second user: square the interior value and yield that instead
        # (prob^2 in log space = doubled log value).
        term = body.body_block.terminator
        builder = Builder.before_op(term)
        extra = builder.create(
            lospn.MulOp, interior.results[0], interior.results[0]
        )
        term.set_operand(0, extra.result)
        chains = balance_chains(module)
        verify(module)
        assert chains >= 1

        # Execute and compare against the expected squared sub-product.
        from repro.backends.cpu.codegen import generate_cpu_module
        from repro.compiler.bufferization import bufferize, remove_result_copies
        from repro.compiler.cpu.lowering import lower_kernel_to_cpu

        buffered = bufferize(module)
        remove_result_copies(buffered)
        generated = generate_cpu_module(lower_kernel_to_cpu(buffered))
        x = rng.normal(size=(6, 8)).astype(np.float32)
        out = np.empty((1, 6), dtype=np.float32)
        with np.errstate(all="ignore"):
            generated.get("spn_kernel")(x, out)
        # interior == product of the first 5 leaves (left-leaning chain).
        partial = Product([Gaussian(i, float(i), 1.0) for i in range(5)])
        expected = 2.0 * log_likelihood(partial, x.astype(np.float64)[:, :5])
        np.testing.assert_allclose(out[0], expected, rtol=2e-3, atol=1e-4)


class TestPipelineSpec:
    def test_parse_and_run(self, gaussian_spn, query):
        module = lower_to_lospn(build_hispn_module(gaussian_spn, query))
        manager = parse_pipeline("cse,dce")
        timing = manager.run(module)
        assert set(timing.seconds) == {"cse", "dce"}

    def test_builtin_passes_registered(self):
        names = registered_passes()
        for expected in ("canonicalize", "cse", "dce", "licm", "hispn-simplify"):
            assert expected in names

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError):
            parse_pipeline("canonicalize,frobnicate")

    def test_duplicate_registration_rejected(self):
        from repro.ir.transforms.cse import CSEPass

        with pytest.raises(ValueError):
            register_pass("cse", CSEPass)

    def test_whitespace_and_empty_segments_tolerated(self):
        manager = parse_pipeline(" cse , , dce ")
        assert len(manager.passes) == 2


class TestVisualize:
    def test_dot_structure(self, gaussian_spn):
        dot = to_dot(gaussian_spn)
        assert dot.startswith("digraph spn {")
        assert dot.count('label="+"') == 1
        assert dot.count("&times;") == 2
        assert dot.count("N(x") == 4
        assert 'label="0.3"' in dot and 'label="0.7"' in dot

    def test_discrete_labels(self):
        from ..conftest import make_discrete_spn

        dot = to_dot(make_discrete_spn())
        assert "Cat(x0" in dot
        assert "Hist(x1" in dot

    def test_truncation(self):
        spn = wide_product(30)
        dot = to_dot(spn, max_nodes=10)
        assert "trunc" in dot
        assert dot.count("[shape=box") <= 10

    def test_write_dot(self, tmp_path, gaussian_spn):
        path = str(tmp_path / "spn.dot")
        write_dot(gaussian_spn, path)
        with open(path) as handle:
            assert "digraph" in handle.read()
