"""Analysis-vs-runtime agreement on shard-plan disjointness.

``tests/runtime/test_sharding.py`` asserts *dynamically* that every
shard plan is contiguous, disjoint and covering. This module closes the
loop with the static side: a fault-injected overlapping plan (the same
``inject_overlapping_shards`` hook the runtime honors) must be flagged
by :func:`check_shard_plan` *before* execution, and the ranges the
executor actually ran — recorded in the shard timeline — must be
flagged by the very same check. What the runtime test catches
dynamically, the race detector names statically.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.ir.analysis import check_shard_plan
from repro.runtime import plan_chunks
from repro.spn import JointProbability
from repro.testing import faults

from ..conftest import make_gaussian_spn

ROWS = 512
BATCH = 64


def _executable(num_threads=2):
    return compile_spn(
        make_gaussian_spn(),
        JointProbability(batch_size=BATCH),
        CompilerOptions(vectorize="batch", num_threads=num_threads),
    ).executable


class TestStaticSide:
    def test_healthy_plan_is_clean(self):
        plan = plan_chunks(ROWS, BATCH, 2)
        assert len(plan) >= 2
        assert check_shard_plan(plan, ROWS) == []

    def test_fault_injected_plan_is_flagged_before_running(self):
        plan = plan_chunks(ROWS, BATCH, 2)
        with faults.inject_overlapping_shards(rows=1):
            perturbed = faults.maybe_overlap_shards(plan, ROWS)
        assert perturbed != plan
        findings = check_shard_plan(perturbed, ROWS)
        overlaps = [
            f for f in findings if f.check == "concurrency.shard-overlap"
        ]
        # Every extended chunk overlaps its successor.
        assert len(overlaps) == len(plan) - 1
        assert not any(f.check == "concurrency.shard-gap" for f in findings)

    @pytest.mark.parametrize(
        "tamper, expected",
        [
            (lambda plan: plan[1:], {"concurrency.shard-gap"}),
            (lambda plan: plan[:3] + plan[4:], {"concurrency.shard-gap"}),
            (lambda plan: plan[:-1], {"concurrency.shard-gap"}),
            (lambda plan: plan + [plan[2]], {"concurrency.shard-overlap"}),
            (
                lambda plan: [(0, plan[0][1] + 1)] + plan[1:],
                {"concurrency.shard-overlap"},
            ),
            (
                lambda plan: [(s + 1, e + 1) for s, e in plan],
                {"concurrency.shard-gap"},
            ),
            (
                lambda plan: [(0, plan[1][1])] + plan[2:] + [(ROWS - 8, ROWS)],
                {"concurrency.shard-overlap"},
            ),
        ],
        ids=[
            "drop-head",
            "drop-middle",
            "drop-tail",
            "duplicate",
            "extend",
            "shift",
            "merge-plus-stray",
        ],
    )
    def test_tampered_plan_is_flagged(self, tamper, expected):
        plan = plan_chunks(ROWS, BATCH, 2)
        findings = check_shard_plan(tamper(list(plan)), ROWS)
        assert {f.check for f in findings} == expected

    @pytest.mark.parametrize(
        "rows, hint, workers",
        [(1, BATCH, 2), (ROWS, BATCH, 1), (ROWS, ROWS, 4), (10_000, 3000, 2),
         (100_000, 100_000, 8)],
    )
    def test_every_healthy_plan_is_clean(self, rows, hint, workers):
        assert check_shard_plan(plan_chunks(rows, hint, workers), rows) == []

    def test_fault_outside_context_is_inert(self):
        plan = plan_chunks(ROWS, BATCH, 2)
        assert faults.maybe_overlap_shards(plan, ROWS) == plan


class TestRuntimeSide:
    def test_executed_ranges_match_the_static_verdict(self, rng):
        inputs = rng.normal(size=(ROWS, 2)).astype(np.float32)
        ex = _executable()
        try:
            baseline = ex.execute(inputs)
            clean_ranges = sorted(
                (r.start, r.end) for r in ex.last_timeline.records
            )
            assert check_shard_plan(clean_ranges, ROWS) == []

            with faults.inject_overlapping_shards(rows=1):
                observed = ex.execute(inputs)
            ran = sorted((r.start, r.end) for r in ex.last_timeline.records)
        finally:
            ex.close()

        # The executor really ran overlapping shards...
        findings = check_shard_plan(ran, ROWS)
        assert any(
            f.check == "concurrency.shard-overlap" for f in findings
        ), f"expected the executed ranges {ran} to be flagged"
        # ...and only determinism saved the output: the per-sample
        # kernels recompute identical values for the doubly-written
        # rows, which is exactly why this must be a *static* guarantee
        # rather than an observed-output one.
        np.testing.assert_array_equal(observed, baseline)

    def test_dynamic_coverage_check_catches_the_same_fault(self):
        # The runtime suite's disjointness invariant (``_covers``-style)
        # fails on the perturbed plan too — both layers see one truth.
        plan = plan_chunks(ROWS, BATCH, 2)
        with faults.inject_overlapping_shards(rows=1):
            perturbed = faults.maybe_overlap_shards(plan, ROWS)

        def covers(ranges, total):
            position = 0
            for start, end in ranges:
                if start != position or end <= start:
                    return False
                position = end
            return position == total

        assert covers(plan, ROWS)
        assert not covers(perturbed, ROWS)
