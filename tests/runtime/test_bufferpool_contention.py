"""BufferPool under multi-threaded execution: arena isolation, zero
steady-state allocations per worker, and leak-free shutdown.

The sharded runtime runs the *same* generated kernel concurrently on
pool workers, so the pool's thread-confined arenas are load-bearing for
correctness: two workers handed the same backing array would corrupt
each other's intermediates. These tests drive the pool from real
threads and assert the isolation, accounting and lifecycle contracts
the runtime relies on.
"""

import threading

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.runtime import Arena, BufferPool
from repro.spn import JointProbability

from ..conftest import make_gaussian_spn


def _on_threads(count, fn, timeout=10.0):
    """Run ``fn(index)`` on ``count`` threads; re-raise any failure."""
    errors = []

    def wrap(index):
        try:
            fn(index)
        except Exception as error:
            errors.append(error)

    threads = [
        threading.Thread(target=wrap, args=(i,), name=f"pooltest-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    if errors:
        raise errors[0]


class TestArenaIsolation:
    def test_same_slot_distinct_backing_per_thread(self):
        pool = BufferPool()
        barrier = threading.Barrier(4, timeout=5.0)
        backing = {}

        def worker(index):
            barrier.wait()  # all threads request the slot concurrently
            array = pool.buffer("v0", (64,), np.float64)
            array.fill(float(index))  # scribble: corruption would cross
            backing[index] = array
            assert np.all(array == float(index))

        _on_threads(4, worker)
        bases = {id(arr.base if arr.base is not None else arr) for arr in backing.values()}
        assert len(bases) == 4  # no two threads share a backing array
        assert pool.arena_count == 4

    def test_arena_named_after_owning_worker(self):
        pool = BufferPool()

        def worker(index):
            pool.buffer("v0", (8,), np.float64)

        _on_threads(2, worker)
        assert sorted(a.name for a in pool.arenas()) == [
            "pooltest-0",
            "pooltest-1",
        ]

    def test_counters_are_per_arena(self):
        pool = BufferPool()

        def worker(index):
            for _ in range(10):
                pool.buffer("v0", (32,), np.float64)

        _on_threads(3, worker)
        for arena in pool.arenas():
            assert arena.requests == 10
            assert arena.allocations == 1
        assert pool.requests == 30
        assert pool.allocations == 3


class TestZeroSteadyStateAllocations:
    def test_repeated_same_shape_requests_allocate_once_per_worker(self):
        pool = BufferPool()

        def worker(index):
            for _ in range(200):
                for slot in ("v0", "v1", "m0"):
                    pool.buffer(slot, (64,), np.float64)

        _on_threads(4, worker)
        for arena in pool.arenas():
            assert arena.allocations == 3  # one per slot, ever
            assert arena.requests == 600

    def test_tail_then_full_chunk_grows_once(self):
        pool = BufferPool()

        def worker(index):
            pool.buffer("v0", (17,), np.float64)  # tail chunk first
            for _ in range(100):
                pool.buffer("v0", (64,), np.float64)
            for _ in range(100):
                pool.buffer("v0", (17,), np.float64)  # tail fits the 64

        _on_threads(2, worker)
        for arena in pool.arenas():
            assert arena.allocations == 2  # initial 17 + one regrow to 64

    def test_sharded_kernel_execution_is_allocation_free_per_worker(self):
        spn = make_gaussian_spn()
        query = JointProbability(batch_size=64)
        result = compile_spn(
            spn, query, CompilerOptions(vectorize="batch", num_threads=4)
        )
        with result.executable as kernel:
            pool = kernel.buffer_pool
            rng = np.random.default_rng(7)
            inputs = rng.normal(size=(4096, 2))
            for _ in range(3):
                kernel.execute(inputs)  # warm the worker arenas
            warm = {id(a): a.allocations for a in pool.arenas()}
            for _ in range(5):
                kernel.execute(inputs)
            for arena in pool.arenas():
                if id(arena) in warm:
                    assert arena.allocations == warm[id(arena)], (
                        f"steady-state execution allocated on {arena!r}"
                    )
                else:
                    # Pool threads spawn lazily; a worker whose first
                    # chunk landed after the snapshot only pays its
                    # one-time per-slot warmup (chunks are uniform).
                    assert arena.allocations <= len(arena.slots)


    def test_rank2_scratch_kernel_is_allocation_free(self):
        """A sum-layer kernel keeps its stacked children in rank-2
        ``out=`` scratch drawn from the pool; full chunks, a tail chunk
        and single rows all reuse it once it has been sized."""
        from repro.testing.generators import SPNGenerator

        spn, _ = SPNGenerator(0).sum_layer(36, 6)
        result = compile_spn(
            spn,
            JointProbability(batch_size=64),
            CompilerOptions(vectorize="batch", opt_level=2),
        )
        with result.executable as kernel:
            assert ".reshape(36, _n)" in kernel.source  # rank-2 scratch
            pool = kernel.buffer_pool
            inputs = np.random.default_rng(3).normal(size=(64 * 3 + 17, 2))
            kernel.execute(inputs)  # sizes every slot
            warm, served = pool.allocations, pool.requests
            for rows in (64 * 3 + 17, 64, 17, 1):
                kernel.execute(inputs[:rows])
            assert pool.allocations == warm
            assert pool.requests > served


class TestLeakFreeShutdown:
    def test_close_releases_every_arena(self):
        pool = BufferPool()

        def worker(index):
            pool.buffer("v0", (1024,), np.float64)

        _on_threads(3, worker)
        assert pool.retained_bytes == 3 * 1024 * 8
        pool.close()
        assert pool.closed
        assert pool.retained_bytes == 0
        assert pool.arena_count == 0

    def test_close_is_idempotent(self):
        pool = BufferPool()
        pool.buffer("v0", (8,), np.float64)
        pool.close()
        pool.close()
        assert pool.closed

    def test_buffer_after_close_raises_on_fresh_thread(self):
        pool = BufferPool()
        pool.close()

        def worker(index):
            with pytest.raises(RuntimeError, match="closed"):
                pool.buffer("v0", (8,), np.float64)

        _on_threads(1, worker)

    def test_buffer_after_close_raises_on_warm_thread(self):
        # A thread holding a cached arena must not slip past close().
        pool = BufferPool()
        pool.buffer("v0", (8,), np.float64)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.buffer("v0", (8,), np.float64)

    def test_executable_close_closes_its_pool(self):
        spn = make_gaussian_spn()
        query = JointProbability(batch_size=64)
        result = compile_spn(
            spn, query, CompilerOptions(vectorize="batch", num_threads=2)
        )
        kernel = result.executable
        rng = np.random.default_rng(7)
        kernel.execute(rng.normal(size=(2048, 2)))
        pool = kernel.buffer_pool
        assert pool.retained_bytes > 0
        kernel.close()
        assert pool.closed
        assert pool.retained_bytes == 0


class TestArenaUnit:
    def test_dtype_change_reallocates(self):
        arena = Arena("t")
        a = arena.buffer("v0", (8,), np.float64)
        b = arena.buffer("v0", (8,), np.float32)
        assert a.dtype != b.dtype
        assert arena.allocations == 2

    def test_view_of_retained_capacity(self):
        arena = Arena("t")
        arena.buffer("v0", (64,), np.float64)
        view = arena.buffer("v0", (10,), np.float64)
        assert view.shape == (10,)
        assert view.base is arena.slots["v0"]
        assert arena.allocations == 1

    def test_per_dimension_max_growth(self):
        arena = Arena("t")
        arena.buffer("m0", (4, 64), np.float64)
        arena.buffer("m0", (8, 16), np.float64)
        assert arena.slots["m0"].shape == (8, 64)
        assert arena.allocations == 2
