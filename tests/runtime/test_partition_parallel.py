"""Analysis-gated partition-level task parallelism (CPU runtime).

The ``parallelize-partitions`` pass attaches a wave schedule only when
the memory-access analysis proves the partitions disjoint; the
executable runs approved waves on the worker pool and silently falls
back to the serial task order whenever the plan does not validate
against the generated module. Correctness bar: bit-identical outputs
to the serial path at every batch shape.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.diagnostics import OptionsError
from repro.spn import Gaussian, JointProbability, Product, Sum

from ..conftest import make_gaussian_spn


def _wide_spn(width=4):
    products = [
        Product([Gaussian(2 * i, 0.0, 1.0), Gaussian(2 * i + 1, 0.0, 1.0)])
        for i in range(width)
    ]
    return Sum(products, [1.0 / width] * width)


def _compile(spn, max_partition_size=6, **options):
    return compile_spn(
        spn,
        JointProbability(batch_size=64),
        CompilerOptions(
            vectorize="batch", max_partition_size=max_partition_size, **options
        ),
    )


class TestPlanGating:
    def test_plan_attached_only_when_disjointness_is_proven(self):
        # Size 4: the 4-term sum layer fills the final partition, each
        # (gaussian, gaussian, product) subtree one of its own.
        result = _compile(
            _wide_spn(), max_partition_size=4, partition_parallel=True,
            num_threads=4,
        )
        ex = result.executable
        try:
            plan = ex.parallel_plan
            assert plan is not None
            assert len(plan["waves"]) == 2
            assert len(plan["waves"][0]) >= 3  # independent leaf partitions
            assert len(plan["waves"][1]) == 1  # the combiner
        finally:
            ex.close()

    def test_single_partition_kernel_gets_no_plan(self):
        # The running example fits one partition — nothing to schedule.
        ex = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=64),
            CompilerOptions(vectorize="batch", partition_parallel=True,
                            num_threads=4),
        ).executable
        try:
            assert ex.parallel_plan is None
        finally:
            ex.close()

    def test_flag_off_means_no_plan_even_when_provable(self):
        ex = _compile(_wide_spn(), num_threads=4).executable
        try:
            assert ex.parallel_plan is None
            assert "parallelize-partitions" not in _compile(
                _wide_spn()
            ).pipeline
        finally:
            ex.close()

    def test_pipeline_spec_names_the_pass(self):
        result = _compile(_wide_spn(), partition_parallel=True)
        result.executable.close()
        assert "parallelize-partitions" in result.pipeline

    def test_gpu_target_rejects_the_flag(self):
        with pytest.raises(OptionsError):
            CompilerOptions(target="gpu", partition_parallel=True)

    def test_fingerprint_distinguishes_the_flag(self):
        base = CompilerOptions(vectorize="batch")
        flagged = CompilerOptions(vectorize="batch", partition_parallel=True)
        assert base.cache_fingerprint() != flagged.cache_fingerprint()


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def executables(self):
        serial = _compile(_wide_spn()).executable
        parallel = _compile(
            _wide_spn(), partition_parallel=True, num_threads=4
        ).executable
        yield serial, parallel
        serial.close()
        parallel.close()

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 1000])
    def test_parallel_matches_serial_bitwise(self, executables, batch, rng):
        serial, parallel = executables
        inputs = rng.normal(size=(batch, 8)).astype(np.float32)
        np.testing.assert_array_equal(
            parallel.execute(inputs), serial.execute(inputs)
        )
        assert parallel.last_waves, "parallel path did not run"
        assert serial.last_waves == []

    def test_single_thread_runs_waves_serially(self, executables, rng):
        serial, _ = executables
        one = _compile(
            _wide_spn(), partition_parallel=True, num_threads=1
        ).executable
        try:
            inputs = rng.normal(size=(256, 8)).astype(np.float32)
            np.testing.assert_array_equal(
                one.execute(inputs), serial.execute(inputs)
            )
            assert one.last_waves  # wave plan honored, executor-less
        finally:
            one.close()


class TestSerialFallback:
    """``_prepare_parallel`` degrades invalid plans to serial, silently."""

    @pytest.fixture(scope="class")
    def executable(self):
        ex = _compile(
            _wide_spn(), partition_parallel=True, num_threads=2
        ).executable
        yield ex
        ex.close()

    def test_valid_plan_validates(self, executable):
        assert executable._parallel is not None

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda plan: plan.pop("waves"),
            lambda plan: plan.update(num_args=3),
            lambda plan: plan["waves"][0].append(99),
            lambda plan: plan["tasks"][0]["args"].append(["buf", 42]),
            lambda plan: plan["buffers"].__setitem__(
                0, {"rows": 1, "dtype": "no-such-dtype"}
            ),
            lambda plan: plan["waves"].pop(),  # omits the combiner task
        ],
    )
    def test_tampered_plans_degrade_to_serial(self, executable, tamper):
        import copy

        plan = copy.deepcopy(executable.parallel_plan)
        tamper(plan)
        assert executable._prepare_parallel(plan) is None

    def test_fallback_still_computes_correctly(self, rng):
        serial = _compile(_wide_spn()).executable
        broken = _compile(
            _wide_spn(), partition_parallel=True, num_threads=2
        ).executable
        try:
            bad = dict(broken.parallel_plan, num_args=3)
            broken._parallel = broken._prepare_parallel(bad)
            assert broken._parallel is None
            inputs = rng.normal(size=(200, 8)).astype(np.float32)
            np.testing.assert_array_equal(
                broken.execute(inputs), serial.execute(inputs)
            )
            assert broken.last_waves == []  # serial path taken
        finally:
            serial.close()
            broken.close()
