"""Error-path coverage: options validation, verifier branches, staged verify."""

import pytest

from repro import CompilerOptions, CPUCompiler, OptionsError, compile_spn
from repro.dialects.arith import AddFOp, ConstantOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import (
    Block,
    Builder,
    ModuleOp,
    VerificationError,
    f32,
    verify,
)
from repro.spn import JointProbability

from ..conftest import make_gaussian_spn


class TestCompilerOptionsValidation:
    def test_valid_defaults(self):
        CompilerOptions()  # must not raise

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            CompilerOptions(target="tpu")

    def test_opt_level_out_of_range(self):
        with pytest.raises(ValueError, match="opt_level"):
            CompilerOptions(opt_level=4)
        with pytest.raises(ValueError, match="opt_level"):
            CompilerOptions(opt_level=-1)

    def test_unknown_vector_isa(self):
        with pytest.raises(ValueError, match="vector ISA"):
            CompilerOptions(vector_isa="sse9")

    def test_unknown_fallback_policy(self):
        with pytest.raises(ValueError, match="fallback"):
            CPUCompiler(fallback="panic")

    def test_errors_are_structured(self):
        # vectorize takes only "off" | "lanes" | "batch"; the old bool
        # spellings (True == "lanes", False == "off") are rejected.
        for bad in ({"target": "tpu"}, {"vectorize": True}, {"vectorize": False}):
            with pytest.raises(OptionsError) as excinfo:
                CompilerOptions(**bad)
            assert excinfo.value.diagnostic.code == "invalid-options"

    @pytest.mark.parametrize("spelling", [None, 0, 1, "on", "LANES", "vector"])
    def test_vectorize_takes_only_mode_names(self, spelling):
        with pytest.raises(OptionsError, match="unknown vectorize mode"):
            CompilerOptions(vectorize=spelling)


class TestVerifierBranches:
    def test_dominance_violation(self):
        module = ModuleOp.build()
        b = Builder.at_end(module.body)
        fn = b.create(FuncOp, "f", [], [f32])
        fb = Builder.at_end(fn.body)
        c = fb.create(ConstantOp, 1.0, f32)
        add = fb.create(AddFOp, c.result, c.result)
        fb.create(ReturnOp, [add.result])
        add.move_before(c)
        with pytest.raises(VerificationError, match="does not dominate"):
            verify(module)

    def test_single_block_violation(self):
        module = ModuleOp.build()
        module.region.append_block(Block())
        with pytest.raises(VerificationError, match="exactly one block"):
            verify(module)

    def test_misplaced_terminator(self):
        module = ModuleOp.build()
        b = Builder.at_end(module.body)
        b.create(ReturnOp, [])
        b.create(ModuleOp)
        with pytest.raises(VerificationError, match="not the last op"):
            verify(module)

    def test_isolated_from_above_violation(self):
        # A value defined at module scope used inside a func (which is
        # ISOLATED_FROM_ABOVE) must be reported as an isolation breach,
        # not a generic dominance failure.
        module = ModuleOp.build()
        b = Builder.at_end(module.body)
        c = b.create(ConstantOp, 1.0, f32)
        fn = b.create(FuncOp, "f", [], [f32])
        fb = Builder.at_end(fn.body)
        fb.create(ReturnOp, [c.result])
        with pytest.raises(VerificationError, match="ISOLATED_FROM_ABOVE"):
            verify(module)

    def test_op_paths_attached_on_each_branch(self):
        module = ModuleOp.build()
        b = Builder.at_end(module.body)
        b.create(ReturnOp, [])
        b.create(ModuleOp)
        with pytest.raises(VerificationError) as excinfo:
            verify(module)
        assert excinfo.value.op_path is not None


class TestVerifyEachStage:
    @pytest.mark.parametrize("target", ["cpu", "gpu"])
    def test_full_pipeline_verifies_after_every_stage(self, target):
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=16),
            CompilerOptions(target=target, opt_level=3, verify_each="structural"),
        )
        assert result.executable is not None

    def test_partitioned_pipeline_verifies(self):
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=16),
            CompilerOptions(max_partition_size=3, verify_each="structural"),
        )
        assert result.num_tasks >= 1
