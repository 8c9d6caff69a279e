"""Tests for the verify-each analysis instrumentation.

Covers the :class:`~repro.ir.passes.PassManager` modes, the compiler
pipeline's ``CompilerOptions.verify_each`` knob, and the acceptance
criterion that the shipped pipelines run clean under full
instrumentation on representative models (including the RAT-SPN
example architecture).
"""

import pytest

from repro.compiler.pipeline import CompilerOptions, compile_spn
from repro.diagnostics import PassError
from repro.dialects.arith import ConstantOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import Builder, ModuleOp, Pass, PassManager, f64
from repro.ir.passes import normalize_verify_each
from repro.spn import JointProbability

from ..conftest import make_discrete_spn, make_gaussian_spn


class NopPass(Pass):
    name = "nop"

    def run(self, module):
        pass


class ShadowSymbolPass(Pass):
    """Deliberately broken rewrite: duplicates the first function, so
    two definitions share one symbol (a lint ERROR)."""

    name = "shadow-symbol"

    def run(self, module):
        fn = next(op for op in module.body.ops if op.op_name == "func.func")
        module.body.append(fn.clone({}))


class LeakBufferPass(Pass):
    """Introduces a leaked allocation next to a freed one — a
    buffer-safety WARNING (mid-phase leak detection), not an ERROR."""

    name = "leak-buffer"

    def run(self, module):
        from repro.dialects.memref import AllocOp, DeallocOp
        from repro.ir.types import MemRefType

        fn = next(op for op in module.body.ops if op.op_name == "func.func")
        fb = Builder.at_start(fn.body)
        freed = fb.create(AllocOp, MemRefType((4,), f64)).result
        fb.create(AllocOp, MemRefType((8,), f64))  # never deallocated
        fb.create(DeallocOp, freed)


def _simple_module():
    module = ModuleOp.build()
    fn = Builder.at_end(module.body).create(FuncOp, "f", [], [])
    Builder.at_end(fn.body).create(ReturnOp, [])
    return module


class TestNormalizeVerifyEach:
    def test_bool_back_compat(self):
        assert normalize_verify_each(True) == "structural"
        assert normalize_verify_each(False) == "off"
        assert normalize_verify_each(None) == "off"

    def test_modes_pass_through(self):
        for mode in ("off", "structural", "boundaries", "every-pass"):
            assert normalize_verify_each(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            normalize_verify_each("sometimes")


class TestPassManagerInstrumentation:
    def test_every_pass_aborts_on_analysis_error(self):
        pm = PassManager(verify_each="every-pass")
        pm.add(ShadowSymbolPass())
        with pytest.raises(PassError) as exc:
            pm.run(_simple_module())
        message = str(exc.value)
        assert "static analysis" in message
        assert "lint.shadowed-symbol" in message
        assert "shadow-symbol" in message  # names the offending pass

    def test_structural_mode_skips_analyses(self):
        pm = PassManager(verify_each="structural")
        pm.add(ShadowSymbolPass())
        pm.run(_simple_module())  # verifies structure only; no abort

    def test_boundaries_checks_only_after_last_pass(self):
        # The ERROR introduced by pass 1 is repaired by pass 2 before
        # the boundary check runs, so "boundaries" stays silent while
        # "every-pass" catches the transient violation.
        class RepairPass(Pass):
            name = "repair"

            def run(self, module):
                funcs = [
                    op for op in module.body.ops if op.op_name == "func.func"
                ]
                funcs[-1].erase()

        def pipeline(mode):
            pm = PassManager(verify_each=mode)
            pm.add(ShadowSymbolPass())
            pm.add(RepairPass())
            return pm

        pipeline("boundaries").run(_simple_module())
        with pytest.raises(PassError):
            pipeline("every-pass").run(_simple_module())

    def test_warnings_accumulate_without_aborting(self):
        pm = PassManager(verify_each="every-pass")
        pm.add(LeakBufferPass())
        pm.run(_simple_module())
        checks = {f.check for f in pm.analysis_findings}
        assert checks == {"buffer-safety.leak"}

    def test_off_mode_runs_nothing(self):
        pm = PassManager(verify_each="off")
        pm.add(ShadowSymbolPass())
        pm.run(_simple_module())
        assert pm.analysis_findings == []

    def test_duplicate_findings_fold_across_passes(self):
        pm = PassManager(verify_each="every-pass")
        pm.add(LeakBufferPass())
        pm.add(NopPass())
        pm.add(NopPass())
        pm.run(_simple_module())
        # The same dead block is re-reported after every pass; the
        # manager keeps one finding per (check, op, message).
        assert len(pm.analysis_findings) == 1


class TestCompilerOptionsKnob:
    def test_bool_spellings_rejected(self):
        for legacy in (True, False):
            with pytest.raises(ValueError):
                CompilerOptions(verify_each=legacy)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            CompilerOptions(verify_each="sometimes")


class TestInstrumentedPipelines:
    """The shipped pipelines must be clean under full instrumentation."""

    @pytest.mark.parametrize("spn_factory", [make_gaussian_spn, make_discrete_spn])
    @pytest.mark.parametrize("opt_level", [0, 3])
    def test_cpu_batch_pipeline_has_no_violations(self, spn_factory, opt_level):
        result = compile_spn(
            spn_factory(),
            JointProbability(batch_size=16),
            CompilerOptions(
                opt_level=opt_level,
                vectorize="batch",
                verify_each="every-pass",
            ),
        )
        assert result.executable is not None

    def test_cpu_o3_pipeline_is_warning_free(self):
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=16),
            CompilerOptions(
                opt_level=3, vectorize="batch", verify_each="every-pass"
            ),
        )
        assert result.analysis_findings == []

    def test_gpu_pipeline_is_warning_free(self):
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=16),
            CompilerOptions(target="gpu", verify_each="every-pass"),
        )
        assert result.analysis_findings == []

    def test_rat_spn_example_model_is_clean_on_both_targets(self):
        from repro.spn.rat import RatSpnConfig, build_rat_spn

        head = build_rat_spn(
            RatSpnConfig(num_features=4, num_classes=2, seed=7)
        )[0]
        for options in (
            CompilerOptions(
                opt_level=3, vectorize="batch", verify_each="every-pass"
            ),
            CompilerOptions(target="gpu", verify_each="every-pass"),
        ):
            result = compile_spn(
                head, JointProbability(batch_size=32), options
            )
            assert result.analysis_findings == []

    def test_linear_space_compile_reports_underflow_hazards(self):
        # Without log-space computation the range analysis flags the
        # paper's underflow argument as concrete WARNING findings —
        # but compilation still succeeds (warnings never abort).
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=16),
            CompilerOptions(
                use_log_space=False, verify_each="every-pass"
            ),
        )
        checks = {f.check for f in result.analysis_findings}
        assert "range.linear-underflow" in checks


class TestEveryPassAcrossAllConfigurations:
    """Every golden pipeline combo and query modality runs clean.

    The exhaustive acceptance sweep: all 24 registered
    (target, opt_level, vectorize) combinations and all four non-joint
    query modalities compile with ``verify_each="every-pass"`` — the full
    static-analysis suite (buffer safety, range, lint, concurrency)
    after every pass — without a single finding.
    """

    @pytest.mark.parametrize("target", ["cpu", "gpu"])
    @pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
    @pytest.mark.parametrize("vectorize", ["off", "lanes", "batch"])
    def test_golden_combo_is_clean(self, target, opt_level, vectorize):
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=16),
            CompilerOptions(
                target=target,
                opt_level=opt_level,
                vectorize=vectorize,
                verify_each="every-pass",
            ),
        )
        assert result.analysis_findings == []

    @pytest.mark.parametrize("kind", ["mpe", "sample", "conditional",
                                      "expectation"])
    def test_query_modality_is_clean(self, kind):
        from repro.spn.query import (
            ConditionalProbability,
            Expectation,
            MPEQuery,
            SampleQuery,
        )

        query = {
            "mpe": lambda: MPEQuery(batch_size=16),
            "sample": lambda: SampleQuery(batch_size=16),
            "conditional": lambda: ConditionalProbability(
                query_variables=(0,), batch_size=16
            ),
            "expectation": lambda: Expectation(batch_size=16),
        }[kind]()
        result = compile_spn(
            make_gaussian_spn(),
            query,
            CompilerOptions(
                opt_level=3, vectorize="batch", verify_each="every-pass"
            ),
        )
        assert result.analysis_findings == []
