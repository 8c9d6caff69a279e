"""Tests for the command-line driver."""

import numpy as np
import pytest

from repro.spn import JointProbability, log_likelihood, serialize_to_file
from repro.tools.cli import main

from ..conftest import make_gaussian_spn


@pytest.fixture
def model_path(tmp_path):
    path = str(tmp_path / "model.spnb")
    serialize_to_file(make_gaussian_spn(), JointProbability(batch_size=32), path)
    return path


@pytest.fixture
def inputs_path(tmp_path, rng):
    path = str(tmp_path / "inputs.npy")
    np.save(path, rng.normal(size=(12, 2)).astype(np.float32))
    return path


class TestInfo:
    def test_prints_statistics(self, model_path, capsys):
        assert main(["info", model_path]) == 0
        out = capsys.readouterr().out
        assert "nodes:      7" in out
        assert "features:   2" in out
        assert "batch size: 32" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.spnb")]) == 1
        assert "error" in capsys.readouterr().err


class TestCompile:
    def test_reports_stages(self, model_path, capsys):
        assert main(["compile", model_path, "--vectorize"]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out
        assert "codegen" in out

    def test_dump_ir(self, model_path, capsys):
        assert main(["compile", model_path, "--dump-ir", "lower-to-lospn"]) == 0
        out = capsys.readouterr().out
        assert "lo_spn.kernel" in out

    def test_dump_unknown_stage(self, model_path, capsys):
        assert main(["compile", model_path, "--dump-ir", "nope"]) == 1
        assert "available" in capsys.readouterr().err

    def test_emit_source(self, model_path, capsys):
        assert main(["compile", model_path, "--emit-source"]) == 0
        assert "def spn_kernel" in capsys.readouterr().out

    def test_gpu_target(self, model_path, capsys):
        assert main(["compile", model_path, "--target", "gpu"]) == 0
        assert "gpu-lowering" in capsys.readouterr().out

    def test_partitioning_flag(self, model_path, capsys):
        assert main(["compile", model_path, "--partition", "3"]) == 0
        out = capsys.readouterr().out
        assert "task(s)" in out
        assert "graph-partitioning" in out

    def test_partition_parallel_flag_is_gone(self, model_path, capsys):
        # Partition-level task parallelism was removed; row sharding
        # (--threads) is the only CPU runtime parallelism.
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", model_path, "--partition", "3",
                  "--partition-parallel"])
        assert excinfo.value.code == 2
        assert "--partition-parallel" in capsys.readouterr().err


class TestRun:
    def test_run_writes_output(self, model_path, inputs_path, tmp_path, capsys):
        out_path = str(tmp_path / "out.npy")
        assert main(["run", model_path, inputs_path, "-o", out_path]) == 0
        produced = np.load(out_path)
        inputs = np.load(inputs_path)
        expected = log_likelihood(make_gaussian_spn(), inputs.astype(np.float64))
        np.testing.assert_allclose(produced, expected, rtol=2e-3, atol=1e-5)

    def test_run_prints_without_output(self, model_path, inputs_path, capsys):
        assert main(["run", model_path, inputs_path]) == 0
        assert capsys.readouterr().out.strip()

    def test_run_gpu_reports_simulated_time(
        self, model_path, inputs_path, tmp_path, capsys
    ):
        out_path = str(tmp_path / "out.npy")
        assert main([
            "run", model_path, inputs_path, "-o", out_path, "--target", "gpu"
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated GPU time" in out
        assert "data movement" in out


class TestSample:
    def test_sample_writes_array(self, model_path, tmp_path, capsys):
        out_path = str(tmp_path / "samples.npy")
        assert main(["sample", model_path, "25", "-o", out_path, "--seed", "7"]) == 0
        samples = np.load(out_path)
        assert samples.shape == (25, 2)
        assert not np.isnan(samples).any()

    def test_sample_seed_reproducible(self, model_path, tmp_path):
        a_path = str(tmp_path / "a.npy")
        b_path = str(tmp_path / "b.npy")
        main(["sample", model_path, "10", "-o", a_path, "--seed", "3"])
        main(["sample", model_path, "10", "-o", b_path, "--seed", "3"])
        np.testing.assert_array_equal(np.load(a_path), np.load(b_path))


class TestOpt:
    IR_TEXT = (
        '"builtin.module"() ({\n'
        '  "func.func"() ({\n'
        '    %0 = "arith.constant"() {value = 2.0 : f64} : () -> f64\n'
        '    %1 = "arith.constant"() {value = 3.0 : f64} : () -> f64\n'
        '    %2 = "arith.addf"(%0, %1) : (f64, f64) -> f64\n'
        '    "func.return"(%2) : (f64) -> ()\n'
        '  }) {arg_types = [], result_types = [f64], sym_name = "f"} : () -> ()\n'
        '}) : () -> ()'
    )

    def test_opt_folds_constants(self, tmp_path, capsys):
        path = tmp_path / "m.mlir"
        path.write_text(self.IR_TEXT)
        assert main(["opt", str(path), "--pipeline", "canonicalize"]) == 0
        out = capsys.readouterr().out
        assert "5.0" in out
        assert "arith.addf" not in out

    def test_opt_unknown_pass(self, tmp_path, capsys):
        path = tmp_path / "m.mlir"
        path.write_text(self.IR_TEXT)
        assert main(["opt", str(path), "--pipeline", "frobnicate"]) == 1
        assert "unknown pass" in capsys.readouterr().err

    def test_opt_analysis_violation_is_clean_error(self, tmp_path, capsys):
        # An ERROR-severity finding under instrumentation must surface
        # as a one-line error and exit code 1, not a traceback.
        fixture = "tests/analysis/fixtures/buffer_safety_bug.mlir"
        assert main([
            "opt", fixture, "--pipeline", "canonicalize",
            "--verify-each", "every-pass",
        ]) == 1
        err = capsys.readouterr().err
        assert "buffer-safety.use-after-free" in err

    def test_opt_prints_accumulated_warnings(self, tmp_path, capsys):
        # WARNING-severity findings never abort, but they must be
        # echoed to stderr: a leaked alloc in a function that already
        # deallocates is a mid-phase buffer-safety warning.
        ir = (
            '"builtin.module"() ({\n'
            '  "func.func"() ({\n'
            '    %0 = "memref.alloc"() {memref_type = memref<4xf64>} : () -> memref<4xf64>\n'
            '    %1 = "memref.alloc"() {memref_type = memref<8xf64>} : () -> memref<8xf64>\n'
            '    "memref.dealloc"(%0) : (memref<4xf64>) -> ()\n'
            '    "func.return"() : () -> ()\n'
            '  }) {arg_types = [], result_types = [], sym_name = "f"} : () -> ()\n'
            '}) : () -> ()'
        )
        path = tmp_path / "leak.mlir"
        path.write_text(ir)
        assert main([
            "opt", str(path), "--pipeline", "cse",
            "--verify-each", "every-pass",
        ]) == 0
        assert "buffer-safety.leak" in capsys.readouterr().err

    def test_opt_timing_report(self, tmp_path, capsys):
        path = tmp_path / "m.mlir"
        path.write_text(self.IR_TEXT)
        assert main([
            "opt", str(path), "--pipeline", "cse,dce", "--timing", "--verify-each"
        ]) == 0
        captured = capsys.readouterr()
        assert "pass timing" in captured.err
