"""Runtime hardening: fail-fast chunk cancellation and executable lifecycle."""

import threading

import numpy as np
import pytest

from repro import CompilerOptions, compile_spn
from repro.runtime import ChunkedExecutor
from repro.spn import JointProbability, log_likelihood

from ..conftest import make_gaussian_spn


class FlakyChunk:
    """Fails the configured chunk the first ``failures`` times it runs."""

    def __init__(self, fail_start, failures=1, exc=RuntimeError):
        self.fail_start = fail_start
        self.failures = failures
        self.exc = exc
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, start, end):
        with self.lock:
            self.calls.append((start, end))
            if start == self.fail_start and self.failures > 0:
                self.failures -= 1
                raise self.exc(f"chunk {start} failed")


class TestChunkFailFast:
    def test_serial_failure_raises_immediately(self):
        fn = FlakyChunk(fail_start=0, failures=1)
        with ChunkedExecutor(1) as ex:
            with pytest.raises(RuntimeError):
                ex.run(8, 4, fn)
        assert fn.calls == [(0, 4)]  # not retried, later chunk never ran

    def test_parallel_failure_raises(self):
        fn = FlakyChunk(fail_start=0, failures=1)
        with ChunkedExecutor(2) as ex:
            with pytest.raises(RuntimeError):
                ex.run(16, 4, fn)

    def test_fail_fast_cancels_queued_chunks(self):
        # Two workers, ten chunks: chunk 0 fails instantly while every
        # other chunk is slow, so the failure is observed while most of
        # the queue has not started — those chunks must be cancelled
        # (fail fast) rather than left running.
        import time

        lock = threading.Lock()
        calls = []

        def fn(start, end):
            with lock:
                calls.append((start, end))
            if start == 0:
                raise RuntimeError("poisoned chunk")
            time.sleep(0.1)

        with ChunkedExecutor(2) as ex:
            with pytest.raises(RuntimeError):
                ex.run(40, 4, fn)
            assert ex.last_run_cancelled > 0


class TestExecutorLifecycle:
    def test_close_is_idempotent(self):
        ex = ChunkedExecutor(2)
        ex.close()
        ex.close()

    def test_context_manager_closes_pool(self):
        with ChunkedExecutor(2) as ex:
            ex.run(8, 4, lambda s, e: None)
        assert ex._pool is None


class TestCPUExecutableLifecycle:
    def _executable(self, num_threads=4):
        result = compile_spn(
            make_gaussian_spn(),
            JointProbability(batch_size=16),
            CompilerOptions(num_threads=num_threads),
        )
        return result.executable

    def test_close_releases_pool(self, rng):
        exe = self._executable()
        inputs = rng.normal(size=(64, 2))
        exe(inputs)
        exe.close()
        assert exe._executor is None

    def test_context_manager(self, rng):
        inputs = rng.normal(size=(64, 2))
        spn = make_gaussian_spn()
        reference = log_likelihood(spn, inputs)
        result = compile_spn(
            spn, JointProbability(batch_size=16), CompilerOptions(num_threads=2)
        )
        with result.executable as exe:
            out = exe(inputs)
        np.testing.assert_allclose(out, reference, atol=1e-5, rtol=1e-5)

    def test_closed_executable_rejects_execution(self, rng):
        exe = self._executable()
        exe.close()
        with pytest.raises(RuntimeError):
            exe(rng.normal(size=(8, 2)))

    def test_single_threaded_close_is_noop_safe(self, rng):
        exe = self._executable(num_threads=1)
        exe.close()
        with pytest.raises(RuntimeError):
            exe(rng.normal(size=(8, 2)))

    def test_no_thread_leak_across_compiles(self, rng):
        # Closing executables keeps the thread count flat across many
        # compile sessions (the leak the lifecycle fix addresses).
        before = threading.active_count()
        for _ in range(5):
            exe = self._executable(num_threads=3)
            exe(rng.normal(size=(64, 2)))
            exe.close()
        assert threading.active_count() <= before + 1
