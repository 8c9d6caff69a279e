"""Sharded multi-core batch execution (paper Section IV-B runtime).

The adaptive shard plan must be a pure scheduling decision: for every
worker count, batch size and tail shape, the sharded run's outputs are
bit-identical to the single-threaded run (the kernels are per-sample;
chunk boundaries never change arithmetic). The plan itself must stay
work-stealing friendly (≥ 2 x workers chunks when profitable) without
slicing below the vector-profitable minimum or above the compiled
batch-size hint, and the executor's deadline and fail-fast semantics
must survive explicit shard plans.
"""

import threading
import time

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.diagnostics import DeadlineError
from repro.runtime import (
    MIN_PROFITABLE_CHUNK,
    ChunkedExecutor,
    ShardTimeline,
    chunk_ranges,
    plan_chunks,
)
from repro.spn import JointProbability

from ..conftest import make_gaussian_spn

W = 64


def _covers(ranges, total):
    """Ranges are contiguous, disjoint, and cover [0, total)."""
    position = 0
    for start, end in ranges:
        assert start == position
        assert end > start
        position = end
    assert position == total


class TestPlanChunks:
    def test_single_worker_degenerates_to_hint(self):
        assert plan_chunks(1000, 64, 1) == chunk_ranges(1000, 64)

    def test_over_decomposes_to_twice_workers(self):
        for workers in (2, 4, 8):
            ranges = plan_chunks(100_000, 100_000, workers)
            assert len(ranges) >= 2 * workers
            _covers(ranges, 100_000)

    def test_hint_caps_chunk_width(self):
        # Chunks wider than the compiled batch size would regrow every
        # worker arena's high-water footprint; the hint is a hard cap.
        ranges = plan_chunks(100_000, W, 4)
        assert all(end - start <= W for start, end in ranges)
        _covers(ranges, 100_000)

    def test_never_below_profitable_minimum(self):
        # 8 workers over 2048 rows would want 16 chunks of 128 rows;
        # the plan refuses to slice below MIN_PROFITABLE_CHUNK instead.
        ranges = plan_chunks(2048, 100_000, 8)
        assert all(
            end - start >= MIN_PROFITABLE_CHUNK
            for start, end in ranges[:-1]  # the tail may be short
        )
        _covers(ranges, 2048)

    def test_small_batch_single_chunk(self):
        assert plan_chunks(MIN_PROFITABLE_CHUNK, 1024, 4) == [
            (0, MIN_PROFITABLE_CHUNK)
        ]

    def test_tiny_hint_wins_over_minimum(self):
        # An explicit hint below MIN_PROFITABLE_CHUNK is the user's
        # call: the plan honors it rather than silently widening.
        ranges = plan_chunks(10_000, 64, 4)
        assert all(end - start <= 64 for start, end in ranges)
        _covers(ranges, 10_000)

    def test_empty_batch(self):
        assert plan_chunks(0, 64, 4) == []

    def test_invalid_hint(self):
        with pytest.raises(ValueError):
            plan_chunks(100, 0, 4)

    def test_tail_is_last(self):
        ranges = plan_chunks(10_000, 3000, 2)
        widths = [end - start for start, end in ranges]
        assert min(widths) == widths[-1]


class TestShardedBitIdentical:
    """Sharded execution is invisible in the results (oracle property)."""

    @pytest.fixture(scope="class")
    def kernels(self):
        spn = make_gaussian_spn()
        query = JointProbability(batch_size=W, relative_error=1e-9)
        single = compile_spn(
            spn, query, CompilerOptions(vectorize="batch", num_threads=1)
        ).executable
        sharded = compile_spn(
            spn, query, CompilerOptions(vectorize="batch", num_threads=4)
        ).executable
        yield single, sharded
        single.close()
        sharded.close()

    @pytest.mark.parametrize(
        "batch", [1, W - 1, W, W + 1, 4 * W, 4 * W + 1, 16 * W + 3]
    )
    def test_bit_identical_across_tails(self, kernels, batch, rng):
        single, sharded = kernels
        inputs = rng.normal(size=(batch, 2))
        expected = single.execute(inputs)
        actual = sharded.execute(inputs)
        np.testing.assert_array_equal(actual, expected)

    def test_timeline_covers_batch(self, kernels, rng):
        _, sharded = kernels
        inputs = rng.normal(size=(16 * W, 2))
        sharded.execute(inputs)
        timeline = sharded.last_timeline
        assert timeline is not None
        spans = sorted((r.start, r.end) for r in timeline.records)
        _covers(spans, 16 * W)
        assert all(w.startswith("spnc-worker") for w in timeline.workers)
        assert timeline.busy_seconds >= 0.0
        assert timeline.makespan_seconds >= 0.0

    def test_small_batch_skips_sharding(self, kernels, rng):
        _, sharded = kernels
        sharded.last_timeline = None
        sharded.execute(rng.normal(size=(8, 2)))
        # Below the profitable minimum the batch runs unsliced, so no
        # timeline is recorded for this execution.
        assert sharded.last_timeline is None


class TestExplicitRangesSemantics:
    """run(ranges=...) preserves deadline / fail-fast behavior."""

    def test_ranges_override_chunk_size(self):
        seen = []
        with ChunkedExecutor(1) as ex:
            ex.run(10, 3, lambda s, e: seen.append((s, e)), ranges=[(0, 7), (7, 10)])
        assert seen == [(0, 7), (7, 10)]

    def test_deadline_enforced_on_shard_plan(self):
        with ChunkedExecutor(2) as ex:
            with pytest.raises(DeadlineError):
                ex.run(
                    1024,
                    512,
                    lambda s, e: time.sleep(0.01),
                    deadline=time.monotonic() - 0.001,
                    ranges=[(0, 512), (512, 1024)],
                )

    def test_fail_fast_cancels_pending_shards(self):
        started = threading.Event()

        def poisoned(start, end):
            if start == 0:
                started.wait(1.0)
                raise RuntimeError("poisoned batch")
            if start < 4096:
                started.set()
                time.sleep(0.02)

        with ChunkedExecutor(2) as ex:
            with pytest.raises(RuntimeError):
                ex.run(
                    65536,
                    1024,
                    poisoned,
                    ranges=chunk_ranges(65536, 1024),
                )
            # With 2 workers over 64 chunks, the failure sweeps the
            # queue: most chunks are cancelled and never run.
            assert ex.last_run_cancelled > 0

    def test_timeline_records_on_pool_path(self):
        timeline = ShardTimeline()
        with ChunkedExecutor(2) as ex:
            ex.run(
                2048,
                512,
                lambda s, e: None,
                ranges=chunk_ranges(2048, 512),
                timeline=timeline,
            )
        assert len(timeline.records) == 4
        _covers(sorted((r.start, r.end) for r in timeline.records), 2048)
