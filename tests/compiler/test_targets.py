"""Target registry, declarative pipelines, goldens and the stage-name freeze."""

import os

import numpy as np
import pytest

from repro.compiler import (
    STAGE_NAMES,
    CompilerOptions,
    build_compile_pipeline,
    compile_spn,
    get_target,
    registered_targets,
)
from repro.compiler.stages import CPULoweringPass, FrontendPass
from repro.compiler.targets import CLEANUP_LADDER, cleanup_passes, common_pipeline
from repro.diagnostics import OptionsError
from repro.ir.pipeline_spec import build_pipeline, pipeline_string
from repro.runtime import CPUExecutable, Executable
from repro.runtime.gpu_executable import GPUExecutable
from repro.spn.query import JointProbability
from repro.tools.cli import main

from ..conftest import make_gaussian_spn

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_pipelines.txt")

VECTORIZE_MODES = ("off", "lanes", "batch")

QUERY_MODALITIES = ("mpe", "sample", "conditional", "expectation")


def golden_lines():
    """The pipeline snapshot for every (target, opt, vectorize) combo,
    followed by every non-joint query modality at the default config."""
    lines = []
    for target_name in registered_targets():
        target = get_target(target_name)
        for opt_level in range(4):
            for vectorize in VECTORIZE_MODES:
                options = CompilerOptions(
                    target=target_name, opt_level=opt_level, vectorize=vectorize
                )
                lines.append(
                    f"{target_name} -O{opt_level} vectorize={vectorize}: "
                    f"{target.pipeline(options)}"
                )
    for target_name in registered_targets():
        target = get_target(target_name)
        for kind in QUERY_MODALITIES:
            options = CompilerOptions(
                target=target_name,
                query=kind,
                query_variables=(0,) if kind == "conditional" else (),
            )
            lines.append(
                f"{target_name} -O1 query={kind}: "
                f"{target.pipeline(options, options.make_query())}"
            )
    return lines


def read_golden():
    with open(GOLDEN_PATH) as handle:
        return handle.read().splitlines()


class TestGoldenPipelines:
    def test_snapshots_match_golden_file(self):
        # Regenerate with: PYTHONPATH=src python -m repro pipelines \
        #   > tests/compiler/golden_pipelines.txt
        assert golden_lines() == read_golden()

    def test_covers_full_matrix(self):
        targets = len(registered_targets())
        assert len(read_golden()) == targets * 4 * len(VECTORIZE_MODES) + (
            targets * len(QUERY_MODALITIES)
        )

    def test_every_spec_round_trips(self):
        for line in read_golden():
            spec = line.split(": ", 1)[1]
            passes = build_pipeline(spec)
            assert pipeline_string(passes) == spec

    def test_pipelines_cli_matches_golden(self, capsys):
        assert main(["pipelines"]) == 0
        assert capsys.readouterr().out.splitlines() == read_golden()

    def test_pipelines_cli_single_target(self, capsys):
        assert main(["pipelines", "--target", "gpu"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [line for line in read_golden() if line.startswith("gpu ")]

    def test_pipelines_cli_unknown_target(self, capsys):
        assert main(["pipelines", "--target", "tpu"]) == 2
        assert "unknown target" in capsys.readouterr().err


class TestStageNameFreeze:
    # The public timing vocabulary: benchmarks/ (Figs. 10-13) and the
    # EXPERIMENTS figures read CompilationResult.stage_seconds by these
    # names. Renaming a stage requires updating the benchmark readers
    # AND this tuple — that is the point of the test.
    FROZEN = (
        "frontend",
        "hispn-simplify",
        "structure-cse",
        "structure-prune",
        "lower-to-lospn",
        "lospn-cse",
        "graph-partitioning",
        "balance-chains",
        "bufferize",
        "buffer-optimization",
        "buffer-deallocation",
        "cpu-lowering",
        "gpu-lowering",
        "gpu-copy-elimination",
        "canonicalize",
        "cse",
        "licm",
        "dce",
        "canonicalize-2",
        "cse-2",
        "canonicalize-3",
        "codegen",
        "gpu-codegen",
    )

    def test_stage_names_are_frozen(self):
        assert STAGE_NAMES == self.FROZEN

    def test_golden_pipelines_stay_inside_vocabulary(self):
        for line in read_golden():
            spec = line.split(": ", 1)[1]
            for pass_ in build_pipeline(spec):
                assert pass_.name in STAGE_NAMES, pass_.name

    def test_partitioned_pipeline_stays_inside_vocabulary(self):
        options = CompilerOptions(max_partition_size=4)
        _, spec = build_compile_pipeline(options)
        for pass_ in build_pipeline(spec):
            assert pass_.name in STAGE_NAMES, pass_.name

    def test_codegen_stages_in_vocabulary(self):
        for target_name in registered_targets():
            assert get_target(target_name).spec.codegen_stage in STAGE_NAMES

    def test_compile_emits_only_frozen_names(self):
        spn = make_gaussian_spn()
        for target in ("cpu", "gpu"):
            result = compile_spn(
                spn,
                JointProbability(batch_size=8),
                CompilerOptions(target=target, opt_level=3, max_partition_size=3),
            )
            assert set(result.stage_seconds) <= set(STAGE_NAMES)


class TestSharedOptLadder:
    def test_one_table_drives_both_legs(self):
        # The -O ladder lives in exactly one place; both legs derive
        # from it (the GPU leg just drops LICM).
        assert cleanup_passes(1) == ["canonicalize", "cse", "licm", "dce"]
        assert cleanup_passes(1, licm=False) == ["canonicalize", "cse", "dce"]
        assert cleanup_passes(3)[-3:] == ["canonicalize", "cse", "canonicalize"]
        assert cleanup_passes(0) == []
        assert set(CLEANUP_LADDER) == {1, 2, 3}

    def test_legs_share_suffix_structure(self):
        for opt_level in range(4):
            cpu = CompilerOptions(opt_level=opt_level)
            gpu = CompilerOptions(target="gpu", opt_level=opt_level)
            cpu_leg = get_target("cpu").target_leg(cpu, JointProbability())
            gpu_leg = get_target("gpu").target_leg(gpu, JointProbability())
            strip = lambda leg: [
                item
                for item in leg[1:]
                if item not in ("gpu-copy-elimination", "licm")
            ]
            assert strip(cpu_leg) == strip(gpu_leg)

    def test_common_leg_is_target_independent(self):
        cpu = CompilerOptions(opt_level=2)
        gpu = CompilerOptions(target="gpu", opt_level=2)
        assert common_pipeline(cpu) == common_pipeline(gpu)


class TestTargetRegistry:
    def test_registered_targets(self):
        assert registered_targets() == ["cpu", "gpu"]

    def test_unknown_target_rejected_by_options(self):
        with pytest.raises(OptionsError):
            CompilerOptions(target="tpu")

    def test_get_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            get_target("tpu")

    def test_result_records_pipeline(self):
        options = CompilerOptions(opt_level=1)
        result = compile_spn(
            make_gaussian_spn(), JointProbability(batch_size=8), options
        )
        _, spec = build_compile_pipeline(options, JointProbability(batch_size=8))
        assert result.pipeline == spec


class TestPipelineOverride:
    def test_override_matches_declarative_bitwise(self, rng):
        spn = make_gaussian_spn()
        query = JointProbability(batch_size=16)
        inputs = rng.normal(size=(32, 2))
        for target in ("cpu", "gpu"):
            base_options = CompilerOptions(target=target, opt_level=2)
            _, spec = build_compile_pipeline(base_options, query)
            override_options = CompilerOptions(
                target=target, opt_level=2, pipeline=spec
            )
            base = compile_spn(spn, query, base_options).executable(inputs)
            override = compile_spn(spn, query, override_options).executable(inputs)
            assert np.array_equal(base, override)

    def test_custom_pipeline_under_every_pass(self, rng):
        from repro.spn.inference import log_likelihood

        spn = make_gaussian_spn()
        query = JointProbability(batch_size=16)
        options = CompilerOptions(
            pipeline=(
                "frontend,lower-to-lospn,bufferize,buffer-deallocation,"
                "cpu-lowering{vectorize=off},canonicalize,cse,dce"
            ),
            verify_each="every-pass",
        )
        result = compile_spn(spn, query, options)
        inputs = rng.normal(size=(8, 2))
        np.testing.assert_allclose(
            result.executable(inputs),
            log_likelihood(spn, inputs.astype(np.float64)),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_invalid_pipeline_is_an_options_error(self):
        options = CompilerOptions(pipeline="frontend,no-such-pass")
        with pytest.raises(OptionsError, match="invalid pipeline"):
            compile_spn(make_gaussian_spn(), JointProbability(batch_size=8), options)

    def test_pipeline_in_cache_fingerprint(self):
        plain = CompilerOptions()
        overridden = CompilerOptions(pipeline="frontend,lower-to-lospn,bufferize")
        assert plain.cache_fingerprint() != overridden.cache_fingerprint()

    def test_cli_pipeline_override(self, tmp_path, capsys, rng):
        from repro.spn import serialize_to_file

        path = str(tmp_path / "model.spnb")
        serialize_to_file(
            make_gaussian_spn(), JointProbability(batch_size=16), path
        )
        assert main(["compile", path, "--print-pipeline"]) == 0
        spec = capsys.readouterr().out.strip()
        assert spec.startswith("frontend,")
        assert (
            main(["compile", path, "--pipeline", spec, "--verify-each",
                  "every-pass"])
            == 0
        )
        assert "codegen" in capsys.readouterr().out


class TestInstrumentation:
    def test_timings_carry_op_deltas(self):
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=8),
            CompilerOptions(opt_level=2),
        )
        assert result.timings is not None
        by_name = {record.name: record for record in result.timings.records}
        assert by_name["frontend"].op_delta > 0  # builds the module
        assert all(
            record.ops_before is not None
            for record in result.timings.records
            if record.name != "codegen"
        )
        # stage_seconds is the accumulated view of the same records
        # (codegen included: the driver times it into the same record).
        assert set(result.stage_seconds) == set(result.timings.seconds)
        assert "codegen" in result.stage_seconds

    def test_unified_report_names_stages(self):
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=8),
            CompilerOptions(),
        )
        report = result.timings.report()
        assert "cpu-lowering" in report
        assert "ops" in report


class TestExecutableContract:
    def test_shared_base(self):
        assert issubclass(CPUExecutable, Executable)
        assert issubclass(GPUExecutable, Executable)
        assert CPUExecutable.target == "cpu"
        assert GPUExecutable.target == "gpu"

    def test_uniform_lifecycle(self, rng):
        spn = make_gaussian_spn()
        inputs = rng.normal(size=(8, 2))
        for target in ("cpu", "gpu"):
            result = compile_spn(
                spn,
                JointProbability(batch_size=8),
                CompilerOptions(target=target),
            )
            executable = result.executable
            assert isinstance(executable, Executable)
            assert executable.target == target
            with executable as handle:
                handle(inputs)
            with pytest.raises(RuntimeError, match="closed"):
                executable(inputs)

    def test_source_available_on_both(self):
        spn = make_gaussian_spn()
        for target in ("cpu", "gpu"):
            result = compile_spn(
                spn, JointProbability(batch_size=8), CompilerOptions(target=target)
            )
            assert "def " in result.executable.source


class TestFrontendBinding:
    def test_unbound_frontend_raises(self):
        from repro.ir import ModuleOp
        from repro.ir.pipeline_spec import parse_pipeline

        manager = parse_pipeline("frontend")
        with pytest.raises(Exception, match="unbound"):
            manager.run(ModuleOp.build())

    def test_bound_frontend_builds_module(self):
        from repro.ir import ModuleOp
        from repro.ir.pipeline_spec import build_pipeline

        (frontend,) = build_pipeline("frontend")
        assert isinstance(frontend, FrontendPass)
        frontend.bind(make_gaussian_spn(), JointProbability(batch_size=8))
        module = ModuleOp.build()
        from repro.ir.passes import PassManager

        PassManager().add(frontend).run(module)
        assert any(
            op.op_name == "hi_spn.query" or "hi_spn" in op.op_name
            for op in module.body_block.ops
        )


class TestOracleEquivalence:
    def test_small_corpus_matches_reference(self):
        # Differential proof that the declarative driver is
        # behaviour-preserving: every backend config against the
        # reference evaluator on generated cases.
        from repro.testing.oracle import DEFAULT_CONFIGS, DifferentialOracle

        oracle = DifferentialOracle(
            DEFAULT_CONFIGS, shrink=False, dump_reproducers=False
        )
        report = oracle.fuzz(3, seed=7, ir_share=0.0)
        assert report.ok, report.summary()


def test_lanes_option_survives_round_trip():
    options = CompilerOptions(vectorize="lanes", vector_isa="avx512")
    _, spec = build_compile_pipeline(options)
    assert "cpu-lowering{vectorize=lanes vector-isa=avx512}" in spec
    passes = build_pipeline(spec)
    lowering = next(p for p in passes if isinstance(p, CPULoweringPass))
    assert lowering.vectorize == "lanes"
    assert lowering.vector_isa == "avx512"
