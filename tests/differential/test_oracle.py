"""Tests for the differential-testing subsystem itself.

Covers the seeded generators (validity, reproducibility, adversarial
coverage), the oracle's comparison rules and tolerance calibration, a
short clean fuzz run over every backend configuration, the
injected-bug detection path (shrinking + reproducer dump) and the
``python -m repro fuzz`` CLI entry point.
"""

import json
import os
import shlex

import numpy as np
import pytest

import repro.compiler.emitters as emitters
from repro.compiler import compile_spn
from repro.spn.inference import log_likelihood
from repro.spn.nodes import Categorical, Gaussian, Histogram, num_nodes
from repro.spn.serialization import deserialize_from_file
from repro.spn.validity import assert_valid
from repro.testing.generators import Case, CaseGenerator, SPNGenerator
from repro.testing.oracle import (
    DEFAULT_CONFIGS,
    DifferentialOracle,
    Divergence,
    IRFuzzer,
    compute_tolerance,
    outputs_match,
    run_interpreter,
)
from repro.tools.cli import _query_variables_from, build_parser
from repro.tools.cli import main as cli_main


class TestSPNGenerator:
    def test_same_seed_same_structure(self):
        a, na = SPNGenerator(42).spn()
        b, nb = SPNGenerator(42).spn()
        assert na == nb
        assert num_nodes(a) == num_nodes(b)

    def test_generated_spns_are_valid(self):
        for seed in range(25):
            spn, _ = SPNGenerator(seed).spn()
            assert_valid(spn)

    @pytest.mark.parametrize("shape", ["balanced", "deep", "wide"])
    def test_every_shape_is_valid(self, shape):
        for seed in range(5):
            spn, _ = SPNGenerator(seed).spn(shape=shape)
            assert_valid(spn)

    def test_leaf_kinds_all_reachable(self):
        gen = SPNGenerator(0)
        kinds = {type(gen.leaf(0)) for _ in range(50)}
        assert kinds == {Gaussian, Categorical, Histogram}

    def test_multi_head_shares_feature_count(self):
        roots, num_features = SPNGenerator(3).multi_head(3)
        assert len(roots) == 3
        for root in roots:
            assert_valid(root)


class TestCaseGenerator:
    def test_cases_are_reproducible(self):
        a = CaseGenerator(seed=7).case(11)
        b = CaseGenerator(seed=7).case(11)
        assert np.array_equal(a.inputs, b.inputs, equal_nan=True)
        assert a.query == b.query

    def test_independent_of_generation_order(self):
        direct = CaseGenerator(seed=7).case(11)
        generator = CaseGenerator(seed=7)
        generator.case(0), generator.case(5)
        again = generator.case(11)
        assert np.array_equal(direct.inputs, again.inputs, equal_nan=True)

    def test_nan_cases_compile_marginal_kernels(self):
        for case in CaseGenerator(seed=0).cases(60):
            if np.isnan(case.inputs).any():
                assert case.query.support_marginal

    def test_adversarial_coverage(self):
        """Over a modest budget, the generator must hit NaN evidence,
        out-of-domain values, tail batch sizes and both input dtypes."""
        cases = list(CaseGenerator(seed=0).cases(80))
        assert any(np.isnan(c.inputs).any() for c in cases)
        assert any(c.inputs.shape[0] == 1 for c in cases)
        assert any(
            c.inputs.shape[0] == c.query.batch_size + 1 for c in cases
        )
        assert {c.query.input_dtype for c in cases} == {"f32", "f64"}
        assert any(c.query.relative_error > 0 for c in cases)
        assert any(np.nanmax(np.abs(c.inputs)) >= 1e4 for c in cases)


class TestComparisonRules:
    def test_both_neg_inf_agree(self):
        tol = np.array([1e-9])
        assert outputs_match(
            np.array([-np.inf]), np.array([-np.inf]), tol
        ).all()

    def test_one_sided_neg_inf_diverges(self):
        tol = np.array([np.inf])  # even infinite tolerance can't excuse it
        assert not outputs_match(
            np.array([-np.inf]), np.array([-3.0]), tol
        ).any()

    def test_nan_diverges(self):
        tol = np.array([np.inf])
        assert not outputs_match(
            np.array([np.nan]), np.array([-3.0]), tol
        ).any()

    def test_within_tolerance_agrees(self):
        tol = np.array([1e-3, 1e-3])
        assert outputs_match(
            np.array([-1.0, -2.0]), np.array([-1.0005, -2.0]), tol
        ).all()

    def test_tolerance_scales_with_log_magnitude(self):
        case = CaseGenerator(seed=0).case(0)
        small = compute_tolerance(
            case.spn, case.query, np.array([-10.0])
        )
        large = compute_tolerance(
            case.spn, case.query, np.array([-1.0e8])
        )
        assert large[0] > small[0]


class TestDifferentialOracle:
    def test_short_fuzz_run_is_clean(self, tmp_path):
        oracle = DifferentialOracle(artifact_dir=str(tmp_path))
        report = oracle.fuzz(6, seed=0)
        assert report.ok, report.summary()
        assert report.cases_run == 6
        assert report.configs_compared == 6 * len(DEFAULT_CONFIGS)

    def test_interpreter_config_matches_reference(self):
        case = CaseGenerator(seed=1).case(2)
        observed = run_interpreter(case, row_limit=4)
        reference = log_likelihood(
            case.spn,
            case.inputs[:4].astype(np.float64),
            marginal=case.query.support_marginal,
        )
        tolerance = compute_tolerance(case.spn, case.query, reference)
        assert outputs_match(observed, reference, tolerance).all()

    def test_injected_bug_is_caught_and_shrunk(self, tmp_path, monkeypatch):
        """A deliberate semantic defect (perturbed Gaussian normalization
        constant) must be detected, shrunk to a minimal witness and
        dumped as a replayable reproducer."""
        monkeypatch.setattr(emitters, "LOG_2PI", emitters.LOG_2PI + 1e-3)
        oracle = DifferentialOracle(
            configs=[DEFAULT_CONFIGS[0]], artifact_dir=str(tmp_path)
        )
        report = oracle.fuzz(6, seed=0, ir_share=0)
        assert not report.ok
        divergence = report.divergences[0]
        original = CaseGenerator(seed=0).case(divergence.case.index)
        # Shrunk: a single input row, no more nodes than the original.
        assert divergence.case.inputs.shape[0] == 1
        assert num_nodes(divergence.case.spn) <= num_nodes(original.spn)

        path = divergence.reproducer_path
        assert path is not None and path.startswith(str(tmp_path))
        files = set(os.listdir(path))
        assert {"model.spnb", "inputs.npy", "diagnostic.json",
                "module.mlir", "README.txt"} <= files
        with open(os.path.join(path, "diagnostic.json")) as handle:
            diagnostic = json.load(handle)
        assert diagnostic["code"] == "differential-divergence"
        # The dump is self-contained: model + inputs replay the failure.
        spn, query = deserialize_from_file(os.path.join(path, "model.spnb"))
        inputs = np.load(os.path.join(path, "inputs.npy"))
        replayed = oracle.run_config(
            DEFAULT_CONFIGS[0],
            Case(seed=0, index=0, spn=spn, num_features=inputs.shape[1],
                 query=query, inputs=inputs),
        )
        reference = log_likelihood(
            spn, inputs.astype(np.float64), marginal=query.support_marginal
        )
        tolerance = compute_tolerance(spn, query, reference)
        assert not outputs_match(replayed, reference, tolerance).all()

    def test_backend_crash_reported_as_divergence(self, tmp_path):
        case = CaseGenerator(seed=0).case(0)
        oracle = DifferentialOracle(
            configs=[DEFAULT_CONFIGS[0]], artifact_dir=str(tmp_path)
        )

        def boom(spec, case):
            raise RuntimeError("backend exploded")

        oracle.run_config = boom
        divergences = oracle.check_case(case)
        assert len(divergences) == 1
        assert "backend exploded" in divergences[0].describe()


class TestSumLayerCases:
    """The sum-layer stream: shapes the random generator rarely reaches."""

    def test_cases_cover_both_sides_of_the_stacking_threshold(self):
        from repro.testing.generators import LAYER_SHAPES

        generator = CaseGenerator(seed=0)
        labels = {generator.layer_case(i).label for i in range(len(LAYER_SHAPES))}
        assert labels == {f"layer {k}x{s}" for k, s in LAYER_SHAPES}
        fan_ins = {k for k, _ in LAYER_SHAPES}
        log_adds = {s * (k - 1) for k, s in LAYER_SHAPES}
        assert min(log_adds) < emitters.STACK_MIN_LOG_ADDS <= max(log_adds)
        assert {1, 2, 9, 36, 144} <= fan_ins
        assert {1, 6, 10} <= {s for _, s in LAYER_SHAPES}

    def test_layer_cases_are_reproducible_and_leave_the_main_stream_alone(self):
        first = CaseGenerator(seed=3).layer_case(5)
        again = CaseGenerator(seed=3).layer_case(5)
        assert np.array_equal(first.inputs, again.inputs, equal_nan=True)
        assert first.query == again.query
        assert num_nodes(first.spn) == num_nodes(again.spn)

    def test_every_config_agrees_on_the_layer_cases(self, tmp_path):
        from repro.testing.generators import LAYER_SHAPES

        oracle = DifferentialOracle(artifact_dir=str(tmp_path), shrink=False)
        report = oracle.fuzz_layers(len(LAYER_SHAPES), seed=0, ir=False)
        assert report.ok, report.summary()
        assert report.cases_run == len(LAYER_SHAPES)
        assert report.configs_compared == len(LAYER_SHAPES) * len(DEFAULT_CONFIGS)

    def test_layer_ops_are_in_the_ir_fuzz_corpus(self, tmp_path):
        """Round trip + pass permutations over the scalar and the batch
        lowering of sum-layer cases (weighted_sum, rank-2 vector ops)."""
        from repro.testing.oracle import _lowered_module

        fuzzer = IRFuzzer(artifact_dir=str(tmp_path))
        generator = CaseGenerator(seed=1)
        failures = []
        for index in (2, 3, 4):  # 9x10, 36x6, 144x1
            case = generator.layer_case(index)
            failures.extend(fuzzer.fuzz_case(case, permute=("off", "batch")))
            batch = _lowered_module(case, "batch")
            assert any(op.op_name == "vector.contract" for op in batch.walk())
            failures.extend(fuzzer.check_roundtrip(case, batch, "batch"))
        assert failures == []

    def test_conditional_reproducer_replays_its_query(self, tmp_path):
        """The README replay line and options.json carry the case's
        query, so a non-joint reproducer recompiles the same kernel."""
        case = CaseGenerator(seed=0, query_kinds=("conditional",)).case(1)
        variables = tuple(int(v) for v in case.query.query_variables)
        spec = DEFAULT_CONFIGS[0]
        rows = case.inputs.shape[0]
        divergence = Divergence(
            case=case,
            config=spec.name,
            reference=np.zeros(rows),
            observed=np.ones(rows),
            tolerance=np.zeros(rows),
        )
        oracle = DifferentialOracle(configs=[spec], artifact_dir=str(tmp_path))
        path = oracle._dump(spec, divergence)

        with open(os.path.join(path, "README.txt")) as handle:
            replay = next(
                line for line in handle if "python -m repro run" in line
            )
        argv = shlex.split(replay)[3:]  # drop "python -m repro"
        args = build_parser().parse_args(argv)
        assert args.query == "conditional"
        assert _query_variables_from(args) == variables
        with open(os.path.join(path, "options.json")) as handle:
            options = json.load(handle)
        assert options["query"] == "conditional"
        assert tuple(options["query_variables"]) == variables

    def test_matrix_covers_the_allocating_batch_codegen_path(self):
        """-O0 batch kernels have no scratch registers: stack/contract
        allocate (``np.stack``, ``+=``) instead of writing ``out=``."""
        spec = next(s for s in DEFAULT_CONFIGS if s.name == "cpu-o0-batch")
        assert spec.options == {"vectorize": "batch", "opt_level": 0}
        case = CaseGenerator(seed=0).layer_case(3)  # 36 x 6
        result = compile_spn(case.spn, case.query, spec.compiler_options())
        with result.executable as executable:
            assert "np.stack(" in executable.source
            assert "out=" not in executable.source


class TestIRFuzzer:
    def test_roundtrip_and_permutations_clean(self, tmp_path):
        fuzzer = IRFuzzer(artifact_dir=str(tmp_path))
        failures = []
        for case in CaseGenerator(seed=0).cases(4):
            failures.extend(fuzzer.fuzz_case(case))
        assert failures == []

    def test_parse_failure_is_reported(self, tmp_path, monkeypatch):
        import repro.testing.oracle as oracle_module
        from repro.testing.oracle import _lowered_module

        def injected(text):
            raise ValueError("injected parse failure")

        monkeypatch.setattr(oracle_module, "parse_module", injected)
        fuzzer = IRFuzzer(artifact_dir=str(tmp_path))
        case = CaseGenerator(seed=0).case(0)
        module = _lowered_module(case, "off")
        failures = fuzzer.check_roundtrip(case, module, "off")
        assert len(failures) == 1
        assert "round-trip" in failures[0]
        assert "injected parse failure" in failures[0]


class TestFuzzCLI:
    def test_flag_alias_and_clean_exit(self, capsys):
        code = cli_main(["--fuzz", "3", "--seed", "0", "--no-ir",
                         "--configs", "cpu-o2-batch"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 divergence(s)" in out

    def test_divergence_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(emitters, "LOG_2PI", emitters.LOG_2PI + 1e-3)
        monkeypatch.setenv("SPNC_ARTIFACT_DIR", str(tmp_path))
        code = cli_main(["fuzz", "2", "--seed", "0", "--no-ir",
                         "--configs", "cpu-o0-scalar"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGENCE" in out
        assert os.listdir(tmp_path)  # reproducer landed

    def test_unknown_config_rejected(self, capsys):
        assert cli_main(["fuzz", "1", "--configs", "nope"]) == 2
