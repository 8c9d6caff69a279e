"""Executable lifecycle and executor deadline/retry semantics.

Regression coverage for the serving-runtime hardening: a closed
executable fails cleanly (structured :class:`ExecutableClosedError`,
which is both a :class:`CompilerError` and a :class:`RuntimeError`),
``close()`` waits for in-flight executions instead of yanking the pool
from under them, and :class:`ChunkedExecutor` honours absolute
deadlines.
"""

import threading
import time

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.diagnostics import (
    CompilerError,
    DeadlineError,
    ErrorCode,
    ExecutableClosedError,
)
from repro.runtime.threadpool import ChunkedExecutor
from repro.spn import JointProbability, log_likelihood
from repro.testing import faults

from ..conftest import make_gaussian_spn


def _executable(num_threads=2, batch_size=16):
    result = compile_spn(
        make_gaussian_spn(),
        JointProbability(batch_size=batch_size),
        CompilerOptions(num_threads=num_threads),
    )
    return result.executable


class TestExecutableClose:
    def test_closed_executable_raises_structured_error(self, rng):
        exe = _executable()
        exe.close()
        with pytest.raises(ExecutableClosedError) as excinfo:
            exe(rng.normal(size=(8, 2)))
        # Clean, structured failure: a CompilerError with a stable code
        # (and a RuntimeError for pre-existing callers).
        assert isinstance(excinfo.value, CompilerError)
        assert isinstance(excinfo.value, RuntimeError)
        assert excinfo.value.diagnostic.code == ErrorCode.EXECUTABLE_CLOSED

    def test_double_close_is_idempotent(self):
        exe = _executable()
        exe.close()
        exe.close()

    def test_execute_racing_close_never_crashes(self, rng):
        """Hammer execute() from worker threads while close() lands.

        Every call must either complete normally or raise the clean
        closed error — never an AttributeError from a half-released
        pool, and never a wrong result.
        """
        spn = make_gaussian_spn()
        inputs = rng.normal(size=(64, 2))
        reference = log_likelihood(spn, inputs)
        anomalies = []
        for _ in range(10):
            exe = _executable(num_threads=2)
            start = threading.Barrier(3)

            def hammer():
                start.wait()
                for _ in range(20):
                    try:
                        out = exe.execute(inputs)
                    except ExecutableClosedError:
                        return
                    except Exception as error:  # pragma: no cover
                        anomalies.append(error)
                        return
                    if not np.allclose(out, reference, atol=1e-5, rtol=1e-5):
                        anomalies.append("wrong result")  # pragma: no cover
                        return

            workers = [threading.Thread(target=hammer) for _ in range(2)]
            for worker in workers:
                worker.start()
            start.wait()
            exe.close()
            for worker in workers:
                worker.join()
        assert anomalies == []

    def test_close_waits_for_inflight_execution(self):
        """close() drains: the in-flight run finishes before release."""
        exe = _executable(num_threads=2, batch_size=8)
        inputs = np.zeros((32, 2))
        finished = []

        def run():
            with faults.inject_slow_chunks(0.02):
                exe.execute(inputs)
            finished.append(True)

        worker = threading.Thread(target=run)
        worker.start()
        time.sleep(0.01)  # let the execution enter the kernel
        exe.close()
        worker.join()
        assert finished == [True]
        assert exe._executor is None


class TestChunkedExecutorDeadline:
    def test_deadline_already_passed_raises(self):
        with ChunkedExecutor(1) as ex:
            with pytest.raises(DeadlineError):
                ex.run(8, 4, lambda s, e: None, deadline=time.monotonic() - 0.1)

    def test_deadline_cuts_off_later_chunks(self):
        ran = []

        def chunk(start, end):
            ran.append((start, end))
            time.sleep(0.05)

        with ChunkedExecutor(1) as ex:
            with pytest.raises(DeadlineError):
                ex.run(40, 4, chunk, deadline=time.monotonic() + 0.02)
        # The first chunk ran; the deadline stopped the rest.
        assert 1 <= len(ran) < 10

    def test_generous_deadline_is_harmless(self):
        with ChunkedExecutor(2) as ex:
            ex.run(16, 4, lambda s, e: None, deadline=time.monotonic() + 30.0)

    def test_deadline_enforced_on_parallel_path_without_faults(self):
        # Regression: the pool path used to submit every chunk upfront
        # and only detect expiry post-hoc, so a slow but fault-free
        # batch ran arbitrarily past its deadline. Chunks that start
        # past the deadline must fail bounded instead.
        ran = []
        lock = threading.Lock()

        def slow(start, end):
            with lock:
                ran.append((start, end))
            time.sleep(0.05)

        with ChunkedExecutor(2) as ex:
            before = time.monotonic()
            with pytest.raises(DeadlineError):
                ex.run(40, 4, slow, deadline=time.monotonic() + 0.06)
            elapsed = time.monotonic() - before
        # Ten 0.05s chunks on two workers take ~0.25s unchecked; the
        # deadline cut that short and most chunks never started.
        assert elapsed < 0.25
        assert len(ran) < 10
