"""Sum layers: ``lo_spn.weighted_sum`` on every execution path.

A group of sums over one child list lowers to a single n-ary op. The
scalar, fixed-lane and GPU paths expand it with one shared binary-chain
recipe; batch-vectorized kernels stack the children and run one
max-shifted ``exp`` → ordered contraction → ``log`` (where that
replaces at least ``STACK_MIN_LOG_ADDS`` log-adds). Every path must
agree with the reference evaluator, stay NaN-free on impossible
evidence, and — for the batch form — produce the same bits whatever the
chunk width or thread count.
"""

import warnings

import numpy as np
import pytest

from repro.backends.cpu.codegen import generate_cpu_module
from repro.compiler import CompilerOptions, compile_spn
from repro.compiler.bufferization import bufferize
from repro.compiler.cpu.lowering import CPULoweringOptions, lower_kernel_to_cpu
from repro.compiler.emitters import STACK_MIN_LOG_ADDS
from repro.compiler.frontend import build_hispn_module
from repro.compiler.lower_to_lospn import lower_to_lospn
from repro.ir import parse_module, print_op, verify
from repro.ir.interpreter import Interpreter
from repro.spn import (
    Categorical,
    Gaussian,
    JointProbability,
    Product,
    Sum,
    log_likelihood,
)
from repro.testing.generators import SPNGenerator

CONFIGS = {
    "cpu-off": dict(vectorize="off", opt_level=0),
    "cpu-lanes": dict(vectorize="lanes", opt_level=1),
    "cpu-batch-o0": dict(vectorize="batch", opt_level=0),
    "cpu-batch-o1": dict(vectorize="batch", opt_level=1),
    "cpu-batch-o2": dict(vectorize="batch", opt_level=2),
    "cpu-o2-partitioned": dict(vectorize="batch", opt_level=2, max_partition_size=40),
    "cpu-o3-partitioned": dict(vectorize="batch", opt_level=3, max_partition_size=40),
    "gpu-sim": dict(target="gpu"),
}

FAN_INS = (1, 2, 9, 36, 144)
GROUPS = (1, 6, 10)
#: The diagonal every configuration runs; batch -O2 runs the full grid.
DIAGONAL = ((1, 1), (2, 6), (9, 10), (36, 6), (144, 1))


def layer(fan_in, group, seed=0, zero_weights=False):
    generator = SPNGenerator([seed, fan_in, group])
    return generator.sum_layer(fan_in, group, zero_weights=zero_weights)[0]


def inputs_for(rows=21, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    # Feature values in the range the generated leaves cover, some far out.
    x = rng.uniform(-3.0, 4.0, size=(rows, 2))
    x[::7] *= 50.0
    return x.astype(dtype)


def run(spn, x, query=None, **options):
    query = query or JointProbability(batch_size=8)
    result = compile_spn(spn, query, CompilerOptions(**options))
    with result.executable as executable:
        return np.asarray(executable(x), dtype=np.float64)


def assert_matches(out, ref, rtol=2e-4, atol=2e-4):
    assert not np.isnan(out).any()
    both_impossible = np.isneginf(out) & np.isneginf(ref)
    assert (np.isneginf(out) == np.isneginf(ref)).all()
    np.testing.assert_allclose(
        out[~both_impossible], ref[~both_impossible], rtol=rtol, atol=atol
    )


def lowered_batch(spn, query=None):
    """The batch-lowered (func/vector) module of a joint query."""
    module = lower_to_lospn(
        build_hispn_module(spn, query or JointProbability(batch_size=8))
    )
    return lower_kernel_to_cpu(
        bufferize(module), CPULoweringOptions(vectorize="batch")
    )


def op_names(module):
    return [op.op_name for op in module.walk()]


class TestEveryPath:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("fan_in,group", DIAGONAL)
    def test_matches_reference(self, config, fan_in, group):
        spn = layer(fan_in, group)
        x = inputs_for()
        ref = log_likelihood(spn, x.astype(np.float64))
        assert_matches(run(spn, x, **CONFIGS[config]), ref)

    @pytest.mark.parametrize("fan_in", FAN_INS)
    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("zero_weights", [False, True])
    def test_batch_grid(self, fan_in, group, zero_weights):
        spn = layer(fan_in, group, seed=1, zero_weights=zero_weights)
        x = inputs_for(seed=1)
        ref = log_likelihood(spn, x.astype(np.float64))
        assert_matches(run(spn, x, **CONFIGS["cpu-batch-o2"]), ref)

    @pytest.mark.parametrize(
        "config", ["cpu-off", "cpu-batch-o0", "cpu-batch-o2", "gpu-sim"]
    )
    def test_f64_kernels(self, config):
        spn = layer(36, 6, seed=2)
        x = inputs_for(dtype=np.float64)
        query = JointProbability(
            batch_size=8, input_dtype="f64", relative_error=1e-12
        )
        ref = log_likelihood(spn, x)
        out = run(spn, x, query, **CONFIGS[config])
        assert_matches(out, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize(
        "config", ["cpu-off", "cpu-lanes", "cpu-batch-o0", "cpu-batch-o2", "gpu-sim"]
    )
    @pytest.mark.parametrize("fan_in,group", [(2, 6), (36, 6)])
    def test_linear_space(self, config, fan_in, group):
        spn = layer(fan_in, group, seed=3)
        x = np.random.default_rng(3).uniform(-1.0, 3.0, size=(13, 2)).astype(
            np.float32
        )
        ref = log_likelihood(spn, x.astype(np.float64))
        out = run(spn, x, use_log_space=False, **CONFIGS[config])
        with np.errstate(divide="ignore"):
            assert_matches(np.log(out), ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("vectorize", ["lanes", "batch"])
    @pytest.mark.parametrize("fan_in,group", [(9, 1), (36, 6)])
    def test_without_vector_library(self, vectorize, fan_in, group):
        """``--no-veclib`` scalarizes the math ops lane by lane, on the
        rank-2 vectors of the stacked form too."""
        spn = layer(fan_in, group, seed=12)
        x = inputs_for(seed=12)
        ref = log_likelihood(spn, x.astype(np.float64))
        out = run(spn, x, vectorize=vectorize, use_vector_library=False)
        assert_matches(out, ref)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_nan_evidence_through_marginal_kernels(self, config):
        spn = layer(9, 6, seed=4)
        x = inputs_for(seed=4)
        x[1, 0] = x[2, 1] = np.nan
        x[3] = np.nan  # everything marginalized: probability 1, log 0
        query = JointProbability(batch_size=8, support_marginal=True)
        ref = log_likelihood(spn, x.astype(np.float64), marginal=True)
        out = run(spn, x, query, **CONFIGS[config])
        assert_matches(out, ref)
        assert abs(out[3]) < 1e-5


class TestImpossibleEvidence:
    """Rows on which every child of a sum is impossible: the result is
    ``-inf`` — never NaN, and without a floating-point warning."""

    @staticmethod
    def model(fan_in):
        # Category 2 has probability zero in every child.
        children = [
            Product(
                [
                    Categorical(0, [0.25 + 0.5 * (i % 2), 0.75 - 0.5 * (i % 2), 0.0]),
                    Gaussian(1, float(i % 5), 1.0),
                ]
            )
            for i in range(fan_in)
        ]
        sums = [
            Sum(children, np.linspace(1.0, 2.0, fan_in) ** (j + 1)) for j in range(3)
        ]
        return Sum(sums, [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("fan_in", [2, 9])
    def test_all_children_impossible(self, config, fan_in):
        spn = self.model(fan_in)
        x = np.array([[0.0, 0.5], [2.0, 0.5], [1.0, -1.0], [2.0, 3.0]], np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        assert np.isneginf(ref[[1, 3]]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run(spn, x, **CONFIGS[config])
        assert_matches(out, ref)

    @pytest.mark.parametrize("vectorize", ["off", "lanes", "batch"])
    def test_generated_kernel_is_warning_free_without_errstate(self, vectorize):
        """The generated code itself never computes ``-inf - -inf`` (the
        executable's blanket ``errstate`` is not what keeps it quiet)."""
        spn = self.model(9)
        query = JointProbability(batch_size=4)
        module = lower_to_lospn(build_hispn_module(spn, query))
        module = lower_kernel_to_cpu(
            bufferize(module), CPULoweringOptions(vectorize=vectorize)
        )
        kernel = generate_cpu_module(module).get("spn_kernel")
        x = np.array([[2.0, 0.5]] * 4, np.float32)
        out = np.empty((1, 4), np.float32)
        with np.errstate(invalid="raise"):
            kernel(x, out)
        assert np.isneginf(out).all()

    def test_zero_weights_drop_their_child(self):
        children = [Gaussian(0, float(i), 1.0) for i in range(6)]
        spn = Sum(children, [1, 0, 2, 0, 0, 3])
        assert spn.weights.count(0.0) == 3
        x = np.linspace(-2, 6, 17, dtype=np.float32)[:, None]
        ref = log_likelihood(spn, x.astype(np.float64))
        for config in ("cpu-off", "cpu-batch-o2", "gpu-sim"):
            assert_matches(run(spn, x, **CONFIGS[config]), ref)


class TestNegligibleWeights:
    """A child weighted zero (or below the compute type's range) counts
    for nothing, wherever its value lies: it must not set the shift of a
    stacked sum and underflow the children that do count."""

    FAR = 100.0  # sigmas between neighbouring children

    def children(self, count=8):
        return [Gaussian(0, self.FAR * i, 1.0) for i in range(count)]

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_dominant_child_weighted_zero(self, config, dtype):
        spn = Sum(self.children(), [0, 1, 1, 0, 1, 1, 1, 1])
        # Rows sitting on child 0 and child 3: the nearest child with a
        # weight is FAR sigmas (5000 nats) below the peak.
        x = np.array([[0.0], [0.5], [3 * self.FAR], [self.FAR]])
        query = JointProbability(
            batch_size=8,
            input_dtype=dtype,
            relative_error=1e-12 if dtype == "f64" else 0.0,
        )
        ref = log_likelihood(spn, x)
        assert np.isfinite(ref).all()
        out = run(spn, x.astype(np.float64 if dtype == "f64" else np.float32), query, **CONFIGS[config])
        assert_matches(out, ref, rtol=1e-6, atol=1e-6)

    def test_weight_below_f32_range(self):
        # 1e-50 rounds to 0 in f32, yet on x = 0 its child is the only
        # one within 5000 nats: the sum is log(1e-50) + log N(0; 0, 1).
        spn = Sum(self.children(), [1e-50, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1])
        x = np.array([[0.0], [self.FAR]], np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        assert ref[0] == pytest.approx(np.log(1e-50) - 0.5 * np.log(2 * np.pi), rel=1e-9)
        for config in ("cpu-off", "cpu-batch-o2", "gpu-sim"):
            assert_matches(run(spn, x, **CONFIGS[config]), ref, rtol=1e-6, atol=1e-6)

    def test_only_the_sparse_sums_of_a_group_leave_the_stack(self):
        children = self.children(6)
        heads = [
            Sum(children, [1, 2, 3, 4, 5, 6]),
            Sum(children, [0, 1, 1, 0, 1, 1]),
            Sum(children, [6, 5, 4, 3, 2, 1]),
        ]
        spn = Sum(heads, [0.2, 0.3, 0.5])
        module = lowered_batch(spn)
        (contract,) = [op for op in module.walk() if op.op_name == "vector.contract"]
        assert contract.weights.shape == (2, 6)
        assert op_names(module).count("math.log1p") == 5 + 2
        x = np.array([[0.0], [3 * self.FAR], [2 * self.FAR + 1.0]], np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        assert_matches(run(spn, x, **CONFIGS["cpu-batch-o2"]), ref, rtol=1e-6, atol=1e-6)

    def test_linear_space_keeps_zero_weights_in_the_contraction(self):
        spn = Sum(
            [Gaussian(0, float(i), 1.0) for i in range(8)], [1, 0, 2, 0, 0, 3, 1, 1]
        )
        module = lower_to_lospn(
            build_hispn_module(spn, JointProbability(batch_size=8)),
            use_log_space=False,
        )
        module = lower_kernel_to_cpu(
            bufferize(module), CPULoweringOptions(vectorize="batch")
        )
        # No shift to misplace: w * p with w = 0 is exact.
        assert op_names(module).count("vector.contract") == 1


class TestLoweringShape:
    def test_layers_stack_from_a_number_of_log_adds_up(self):
        """The selection is on the log-adds a layer would take,
        ``s * (k - 1)`` — a property of the model."""
        wide = op_names(lowered_batch(layer(STACK_MIN_LOG_ADDS + 1, 1)))
        assert wide.count("vector.stack") == 1
        assert wide.count("vector.contract") == 1
        assert "math.log1p" not in wide
        narrow = op_names(lowered_batch(layer(STACK_MIN_LOG_ADDS, 1)))
        assert "vector.stack" not in narrow
        assert narrow.count("math.log1p") == STACK_MIN_LOG_ADDS - 1

        def group(fan_in, size):
            children = [Gaussian(0, float(i), 1.0) for i in range(fan_in)]
            heads = [Sum(children, np.arange(1.0, fan_in + 1) + j) for j in range(size)]
            return op_names(lowered_batch(Sum(heads, [1.0] * size)))

        assert STACK_MIN_LOG_ADDS == 6
        assert group(3, 3).count("vector.contract") == 1  # 6 log-adds
        assert "vector.stack" not in group(3, 2)  # 4 log-adds

    def test_one_stacked_log_sum_exp_per_layer(self):
        names = op_names(lowered_batch(layer(36, 10)))
        # The 36 x 10 layer and the root over its 10 sums: two layers,
        # each one stack / max / exp / contract / log.
        for name in ("vector.stack", "vector.row_max", "math.exp",
                     "vector.contract", "math.log"):
            assert names.count(name) == 2, name
        assert names.count("vector.extract") == 10 + 1

    def test_binary_log_add_has_no_guard(self):
        """8 ops per log-add (was 11): max, min, clamp constant + max,
        sub, exp, log1p, add — no compare, no select."""
        spn = Sum([Gaussian(0, 0.0, 1.0), Gaussian(0, 1.0, 2.0)], [0.4, 0.6])
        module = lower_to_lospn(build_hispn_module(spn, JointProbability()))
        names = op_names(lower_kernel_to_cpu(bufferize(module)))
        assert names.count("arith.maxf") == 2 and names.count("arith.minf") == 1
        assert "arith.select" not in names and "arith.cmpf" not in names

    def test_scalar_lanes_and_gpu_share_the_chain_recipe(self):
        from repro.compiler.gpu.lowering import lower_kernel_to_gpu

        module = lambda: bufferize(  # noqa: E731
            lower_to_lospn(build_hispn_module(layer(9, 6), JointProbability()))
        )
        scalar = op_names(lower_kernel_to_cpu(module()))
        gpu = op_names(lower_kernel_to_gpu(module()))
        adds = 6 * 8 + 5  # the layer's log-adds + the root's
        assert scalar.count("math.log1p") == gpu.count("math.log1p") == adds
        assert "vector.stack" not in scalar and "vector.stack" not in gpu

    @pytest.mark.parametrize("fan_in,depth", [(2, 1), (9, 4), (144, 8)])
    def test_binary_log_adds_fold_as_a_balanced_tree(self, fan_in, depth):
        """``k - 1`` adds at rounding depth ``ceil(log2 k)``, at every
        optimization level (joint sums never pass through -O3's
        ``balance-chains``, which works on ``lo_spn.add`` chains)."""
        spn = Sum(
            [Gaussian(0, float(i), 1.0) for i in range(fan_in)], [1.0] * fan_in
        )
        module = lower_kernel_to_cpu(
            bufferize(lower_to_lospn(build_hispn_module(spn, JointProbability())))
        )
        ops = list(module.walk())
        assert sum(op.op_name == "math.log1p" for op in ops) == fan_in - 1

        def log_adds_above(value):
            op = value.defining_op
            if op is None:
                return 0
            below = max((log_adds_above(v) for v in op.operands), default=0)
            return below + (op.op_name == "math.log1p")

        assert max(log_adds_above(op.results[0]) for op in ops if op.results) == depth

    def test_weighted_sum_is_a_partition_unit_of_s_times_k(self):
        from repro.compiler.partitioning import op_size

        module = lower_to_lospn(build_hispn_module(layer(9, 6), JointProbability()))
        sizes = sorted(
            op_size(op) for op in module.walk() if op.op_name == "lo_spn.weighted_sum"
        )
        assert sizes == [6, 54]


class TestBatchCompositionInvariance:
    """A row's result depends on that row alone: chunk width and thread
    count are scheduling decisions, invisible in the bits."""

    W = 16

    @pytest.fixture(scope="class")
    def spn(self):
        return layer(36, 6, seed=5)

    @pytest.mark.parametrize("dtype,relative_error", [("f32", 0.0), ("f64", 1e-12)])
    def test_bit_identical_across_chunk_widths(self, spn, dtype, relative_error):
        x = inputs_for(rows=3 * self.W + 5, seed=5)
        outputs = []
        for width in (1, self.W - 1, self.W, self.W + 1, 4 * self.W):
            query = JointProbability(batch_size=width, relative_error=relative_error)
            outputs.append(run(spn, x, query, vectorize="batch", opt_level=2))
        for other in outputs[1:]:
            assert np.array_equal(outputs[0], other)

    @pytest.mark.parametrize("opt_level", [1, 2])
    def test_bit_identical_across_threads(self, spn, opt_level):
        x = inputs_for(rows=9 * self.W + 3, seed=6)
        query = JointProbability(batch_size=self.W)
        one = run(spn, x, query, vectorize="batch", opt_level=opt_level)
        two = run(
            spn, x, query, vectorize="batch", opt_level=opt_level, num_threads=2
        )
        assert np.array_equal(one, two)

    def test_row_result_independent_of_cobatched_rows(self, spn):
        x = inputs_for(rows=40, seed=7)
        query = JointProbability(batch_size=64)
        result = compile_spn(spn, query, CompilerOptions(opt_level=2))
        with result.executable as executable:
            together = executable(x)
            alone = np.concatenate([executable(x[i : i + 1]) for i in range(40)])
        assert np.array_equal(together, alone)


class TestVectorOpsAgreeWithInterpreter:
    @pytest.mark.parametrize("reuse", [False, True])
    @pytest.mark.parametrize("fan_in,group", [(9, 1), (36, 6)])
    def test_codegen_matches_interpreter(self, reuse, fan_in, group):
        spn = layer(fan_in, group, seed=8)
        module = lowered_batch(spn)
        verify(module)
        x = inputs_for(rows=11, seed=8)
        expected = np.empty((1, 11), np.float32)
        Interpreter(module).call("spn_kernel", x, expected)
        generated = generate_cpu_module(module, reuse_vector_registers=reuse)
        out = np.empty((1, 11), np.float32)
        generated.get("spn_kernel")(x, out)
        # Same ops in the same order on the same dtype: the same bits.
        assert np.array_equal(out, expected)

    def test_generated_source_is_deterministic(self):
        spn = layer(36, 6, seed=9)
        sources = {
            generate_cpu_module(lowered_batch(spn), reuse_vector_registers=True).source
            for _ in range(2)
        }
        assert len(sources) == 1


class TestRoundTrip:
    @pytest.mark.parametrize("relative_error", [0.0, 1e-12])
    def test_rank2_vector_types_are_a_fixed_point(self, relative_error):
        query = JointProbability(batch_size=8, relative_error=relative_error)
        module = lowered_batch(layer(9, 6, seed=10), query)
        text = print_op(module)
        element = "f64" if relative_error else "f32"
        assert f"vector<9x?x{element}>" in text
        assert f"vector<6x?x{element}>" in text
        reparsed = parse_module(text)
        verify(reparsed)
        assert print_op(reparsed) == text

    def test_weighted_sum_round_trips_with_its_weights(self):
        module = lower_to_lospn(
            build_hispn_module(layer(9, 6, seed=11), JointProbability())
        )
        text = print_op(module)
        assert "tensor<6x9xf64>" in text
        reparsed = parse_module(text)
        verify(reparsed)
        assert print_op(reparsed) == text
        before = [op for op in module.walk() if op.op_name == "lo_spn.weighted_sum"]
        after = [op for op in reparsed.walk() if op.op_name == "lo_spn.weighted_sum"]
        assert all(
            np.array_equal(a.weights, b.weights) for a, b in zip(before, after)
        )
