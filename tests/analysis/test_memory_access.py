"""Tests for the per-task memory-access summaries and race detector.

The ``concurrency`` check is the static half of the PR 7 parallelism
story: it proves (or refutes) that row-sharded and partition-parallel
execution cannot race. These tests cover the summarizer on real
compiled kernels, the conflict/wave computation the
``parallelize-partitions`` pass consumes, the seeded bug fixtures, and
the shard-plan cross-check used by the analysis-vs-runtime agreement
test.
"""

import json
import pathlib

from repro.compiler.bufferization import (
    bufferize,
    insert_deallocations,
    remove_result_copies,
)
from repro.compiler.frontend import build_hispn_module
from repro.compiler.lower_to_lospn import lower_to_lospn
from repro.compiler.partitioning import PartitioningOptions, partition_kernel
from repro.diagnostics import Severity
from repro.ir import parse_module, verify
from repro.ir.analysis import (
    check_shard_plan,
    dependence_waves,
    run_checks,
    summarize_kernel,
)
from repro.ir.analysis.memory_access import conflicts, parse_schedule
from repro.spn import Gaussian, JointProbability, Product, Sum

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _kernel(module):
    return next(op for op in module.walk() if op.op_name == "lo_spn.kernel")


def _checks(module):
    return run_checks(module, checks=["concurrency"], phase="final")


def _partitioned(spn, max_partition_size):
    """Lower an SPN to the buffer-deallocation stage (multi-task form)."""
    module = lower_to_lospn(build_hispn_module(spn, JointProbability()))
    module, _ = partition_kernel(
        module, PartitioningOptions(max_partition_size=max_partition_size)
    )
    module = bufferize(module)
    remove_result_copies(module)
    insert_deallocations(module)
    verify(module)
    return module


def _wide_spn(width=4):
    """Independent 2-feature products under one Sum — disjoint partitions."""
    products = [
        Product([Gaussian(2 * i, 0.0, 1.0), Gaussian(2 * i + 1, 0.0, 1.0)])
        for i in range(width)
    ]
    return Sum(products, [1.0 / width] * width)


class TestSummaries:
    def test_wide_spn_partitions_are_disjoint(self):
        module = _partitioned(_wide_spn(), max_partition_size=6)
        summaries = summarize_kernel(_kernel(module))
        assert len(summaries) >= 3  # leaves + combiner
        # Every task models precisely (no opaque degradation) and every
        # write is batch-confined — the shard-safety invariant.
        for summary in summaries:
            assert summary.precise
            for access in summary.accesses.values():
                assert access.batch_confined
                assert not access.opaque
        # Leaf tasks are pairwise conflict-free; each conflicts with the
        # combiner (it reads their intermediates).
        leaves, combiner = summaries[:-1], summaries[-1]
        for i, a in enumerate(leaves):
            for b in leaves[i + 1 :]:
                assert conflicts(a, b) == []
            kinds = {kind for _, kind in conflicts(a, combiner)}
            assert kinds == {"raw"}

    def test_dependence_waves_widen_then_join(self):
        # Size 4: the 4-term sum layer alone fills the final partition,
        # each (gaussian, gaussian, product) subtree one of its own.
        module = _partitioned(_wide_spn(), max_partition_size=4)
        waves = dependence_waves(summarize_kernel(_kernel(module)))
        assert len(waves) == 2
        assert len(waves[0]) >= 3  # all leaf partitions run concurrently
        assert len(waves[1]) == 1  # the combiner joins them

    def test_dependent_tasks_stay_sequential(self):
        # The race fixture's second task reads the first one's
        # intermediate: the safe schedule is strictly sequential.
        module = parse_module(
            (FIXTURES / "concurrency_task_race_bug.mlir").read_text()
        )
        waves = dependence_waves(summarize_kernel(_kernel(module)))
        assert waves == [[0], [1]]

    def test_real_kernels_analyze_clean(self):
        module = _partitioned(_wide_spn(), max_partition_size=6)
        assert _checks(module) == []


class TestSeededFixtures:
    def test_shard_overlap_fixture_is_flagged(self):
        module = parse_module(
            (FIXTURES / "concurrency_shard_overlap_bug.mlir").read_text()
        )
        verify(module)
        findings = _checks(module)
        overlap = [
            f for f in findings if f.check == "concurrency.shard-overlap"
        ]
        assert len(overlap) == 1
        assert overlap[0].severity == Severity.ERROR
        assert "race" in overlap[0].message
        assert overlap[0].op_path and "lo_spn.task" in overlap[0].op_path

    def test_task_race_fixture_is_flagged(self):
        module = parse_module(
            (FIXTURES / "concurrency_task_race_bug.mlir").read_text()
        )
        verify(module)
        findings = _checks(module)
        races = [f for f in findings if f.check == "concurrency.task-race"]
        assert len(races) == 1
        assert races[0].severity == Severity.ERROR
        assert races[0].detail["kind"] == "raw"
        assert races[0].detail["tasks"] == (0, 1)

    def test_correct_schedule_on_race_fixture_is_clean(self):
        # Same kernel, but the schedule the analysis itself computes:
        # the declared-schedule re-verification accepts it.
        module = parse_module(
            (FIXTURES / "concurrency_task_race_bug.mlir").read_text()
        )
        kernel = _kernel(module)
        waves = dependence_waves(summarize_kernel(kernel))
        kernel.attributes["parallelSchedule"] = json.dumps({"waves": waves})
        assert _checks(module) == []


class TestScheduleVerification:
    def _racy_kernel(self, schedule):
        module = parse_module(
            (FIXTURES / "concurrency_task_race_bug.mlir").read_text()
        )
        _kernel(module).attributes["parallelSchedule"] = json.dumps(schedule)
        return module

    def test_reversed_order_is_schedule_order_error(self):
        findings = _checks(self._racy_kernel({"waves": [[1], [0]]}))
        assert {f.check for f in findings} == {"concurrency.schedule-order"}
        assert "before its read-after-write dependency" in findings[0].message

    def test_out_of_range_index_is_flagged(self):
        findings = _checks(self._racy_kernel({"waves": [[0], [7]]}))
        assert {f.check for f in findings} == {"concurrency.schedule-order"}

    def test_duplicated_task_is_flagged(self):
        findings = _checks(self._racy_kernel({"waves": [[0], [0, 1]]}))
        assert any(
            "more than one wave" in f.message
            for f in findings
            if f.check == "concurrency.schedule-order"
        )

    def test_omitted_task_is_flagged(self):
        findings = _checks(self._racy_kernel({"waves": [[0]]}))
        assert any(
            "omits task(s) [1]" in f.message
            for f in findings
            if f.check == "concurrency.schedule-order"
        )

    def test_parse_schedule_roundtrip(self):
        module = parse_module(
            (FIXTURES / "concurrency_task_race_bug.mlir").read_text()
        )
        schedule = parse_schedule(_kernel(module))
        assert schedule == {"waves": [[0, 1]]}


class TestShardPlanCheck:
    def test_disjoint_covering_plan_is_clean(self):
        assert check_shard_plan([(0, 4), (4, 8)], total=8) == []

    def test_overlap_is_error(self):
        findings = check_shard_plan([(0, 5), (3, 8)], total=8)
        assert [f.check for f in findings] == ["concurrency.shard-overlap"]
        assert findings[0].severity == Severity.ERROR
        assert "[3, 5)" in findings[0].message

    def test_gap_is_error(self):
        findings = check_shard_plan([(0, 3), (5, 8)], total=8)
        assert [f.check for f in findings] == ["concurrency.shard-gap"]
        assert "[3, 5)" in findings[0].message

    def test_tail_gap_is_error(self):
        findings = check_shard_plan([(0, 6)], total=8)
        assert [f.check for f in findings] == ["concurrency.shard-gap"]

    def test_unordered_input_is_sorted_first(self):
        assert check_shard_plan([(4, 8), (0, 4)], total=8) == []
