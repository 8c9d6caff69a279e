"""Tests for multi-head compilation (several class SPNs in one kernel)."""

import numpy as np
import pytest

from repro import CPUCompiler, GPUCompiler
from repro.compiler import CompilerOptions, compile_spn
from repro.compiler.frontend import build_hispn_module
from repro.spn import (
    Gaussian,
    JointProbability,
    Product,
    RatSpnConfig,
    Sum,
    build_rat_spn,
    log_likelihood,
)


@pytest.fixture(scope="module")
def rat_heads():
    return build_rat_spn(
        RatSpnConfig(
            num_features=8,
            num_classes=3,
            depth=2,
            num_repetitions=2,
            num_sums=2,
            num_input_distributions=2,
            seed=4,
        )
    )


@pytest.fixture
def inputs(rng):
    return rng.normal(size=(33, 8)).astype(np.float32)


def reference(heads, inputs):
    return np.stack(
        [log_likelihood(h, inputs.astype(np.float64)) for h in heads], axis=0
    )


class TestFrontend:
    def test_shared_subgraphs_translate_once(self, rat_heads):
        module = build_hispn_module(rat_heads, JointProbability(batch_size=8))
        root_op = [op for op in module.walk() if op.op_name == "hi_spn.root"][0]
        assert len(root_op.operands) == 3
        # All heads share children: per-head translation would triple the
        # sum count; shared translation keeps one op per distinct node.
        from repro.spn import num_nodes

        distinct = len(
            {id(n) for head in rat_heads for n in __import__(
                "repro.spn.nodes", fromlist=["topological_order"]
            ).topological_order(head)}
        )
        graph_ops = [
            op
            for op in module.walk()
            if op.op_name.startswith("hi_spn.")
            and op.op_name not in ("hi_spn.joint_query", "hi_spn.graph", "hi_spn.root")
        ]
        assert len(graph_ops) == distinct

    def test_empty_head_list_rejected(self):
        with pytest.raises(ValueError):
            build_hispn_module([], JointProbability())


class TestExecution:
    @pytest.mark.parametrize(
        "options",
        [
            CompilerOptions(),
            CompilerOptions(vectorize="lanes", superword_factor=2),
            CompilerOptions(max_partition_size=20, verify_each="structural"),
            CompilerOptions(target="gpu"),
            CompilerOptions(target="gpu", max_partition_size=20),
            CompilerOptions(opt_level=3),
        ],
        ids=["scalar", "vector", "partitioned", "gpu", "gpu-partitioned", "O3"],
    )
    def test_matches_per_head_reference(self, rat_heads, inputs, options):
        ref = reference(rat_heads, inputs)
        result = compile_spn(rat_heads, JointProbability(batch_size=16), options)
        out = result.executable(inputs)
        assert out.shape == (3, 33)
        np.testing.assert_allclose(out, ref, rtol=5e-3, atol=5e-4)

    def test_signature_reports_heads(self, rat_heads):
        result = compile_spn(rat_heads, JointProbability(batch_size=16))
        assert result.executable.signature.num_results == 3

    def test_single_head_list_behaves_like_scalar_form(self, inputs, rng):
        spn = Sum(
            [
                Product([Gaussian(0, 0, 1)] + [Gaussian(i, 0, 1) for i in range(1, 8)]),
                Product([Gaussian(i, 1, 1) for i in range(8)]),
            ],
            [0.5, 0.5],
        )
        single = compile_spn(spn, JointProbability(batch_size=16)).executable(inputs)
        as_list = compile_spn([spn], JointProbability(batch_size=16)).executable(inputs)
        # A one-head kernel squeezes to the plain per-sample vector.
        assert as_list.shape == (33,)
        np.testing.assert_allclose(as_list, single)

    def test_marginal_multi_head(self, rat_heads, rng):
        x = rng.normal(size=(20, 8))
        x[::4, 2] = np.nan
        ref = np.stack([log_likelihood(h, x) for h in rat_heads], axis=0)
        result = compile_spn(
            rat_heads,
            JointProbability(batch_size=16, support_marginal=True),
        )
        out = result.executable(x.astype(np.float32))
        np.testing.assert_allclose(out, ref, rtol=5e-3, atol=5e-4)

    def test_partitioned_head_rows_in_order(self, rat_heads, inputs):
        """Partition pinning must keep the head-row order intact."""
        ref = reference(rat_heads, inputs)
        for psize in (10, 25, 60):
            result = compile_spn(
                rat_heads,
                JointProbability(batch_size=16),
                CompilerOptions(max_partition_size=psize),
            )
            out = result.executable(inputs)
            np.testing.assert_allclose(out, ref, rtol=5e-3, atol=5e-4)


class TestAPI:
    def test_cpu_compiler_accepts_lists(self, rat_heads, inputs):
        compiler = CPUCompiler(batch_size=16)
        out = compiler.log_likelihood(list(rat_heads), inputs)
        np.testing.assert_allclose(
            out, reference(rat_heads, inputs), rtol=5e-3, atol=5e-4
        )
        # Cached under the tuple key.
        assert compiler.compile(list(rat_heads)) is compiler.compile(list(rat_heads))

    def test_classify_helper(self, rat_heads, inputs):
        compiler = CPUCompiler(batch_size=16)
        predictions = compiler.classify(rat_heads, inputs)
        expected = np.argmax(reference(rat_heads, inputs), axis=0)
        np.testing.assert_array_equal(predictions, expected)

    def test_gpu_multi_head_single_transfer(self, rat_heads, inputs):
        """The multi-head kernel uploads the input once and downloads one
        result tensor — the advantage over per-class kernels."""
        compiler = GPUCompiler(batch_size=64)
        compiler.log_likelihood(list(rat_heads), inputs)
        result = compiler.compile(list(rat_heads))
        profile = result.executable.last_profile
        assert len(profile.transfers) == 2  # one h2d + one d2h
