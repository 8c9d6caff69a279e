"""Tests for the per-task memory-access summaries and shard-race check.

The ``concurrency`` check is the static half of the PR 7 parallelism
story: it proves (or refutes) that row-sharded execution cannot race.
These tests cover the summarizer on real compiled kernels, the seeded
bug fixture, and the shard-plan cross-check used by the
analysis-vs-runtime agreement test.
"""

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
from repro.ir.analysis import check_shard_plan, run_checks, summarize_kernel
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
    def test_wide_spn_tasks_are_shard_safe(self):
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
