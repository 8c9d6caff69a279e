"""Loadable compiled kernels: the runtime component.

A :class:`CPUExecutable` wraps the generated kernel entry point; calling
it with a [batch, features] array returns per-sample (log) likelihoods.
The runtime owns output allocation, chunking and multi-threading — the
generated kernel itself processes an arbitrary number of samples
(batch size is only an optimization hint).

Batch-vectorized kernels make the chunk hand-off the unit of
parallelism: each chunk is passed *whole* to the wide kernel as a pair
of array views, every LoSPN op inside runs as one NumPy call over the
full chunk, and NumPy releases the GIL — so the ChunkedExecutor's
worker threads overlap real work. Per-chunk temporaries come from the
generated module's :class:`~repro.runtime.bufferpool.BufferPool`
(thread-local slots), so steady-state execution allocates nothing per
chunk beyond the one output array per call.

Lifecycle: multi-threaded executables own a thread pool. Call
:meth:`Executable.close` (or use the executable as a context manager)
to release it deterministically; otherwise the pool is reclaimed with
the executable (``__del__``) rather than leaking across many compile
sessions. ``close()`` is safe under concurrency: it waits for in-flight
:meth:`execute` calls to drain before releasing resources, and any
``execute`` that arrives at — or races — a closed executable raises a
clean structured :class:`~repro.diagnostics.ExecutableClosedError`
instead of crashing on a released thread pool or buffer pool. The
serving runtime's drain-before-unload model swap is built on exactly
this contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backends.cpu.codegen import GeneratedModule, numpy_dtype
from ..diagnostics import (
    Diagnostic,
    ErrorCode,
    ExecutableClosedError,
    Severity,
)
from ..ir.types import Type
from ..testing import faults
from .threadpool import ChunkedExecutor, ShardTimeline, plan_chunks


@dataclass
class KernelSignature:
    """Shape/type contract of a compiled query kernel."""

    num_features: int
    input_dtype: np.dtype
    result_dtype: np.dtype
    log_space: bool
    batch_size: int
    #: Result rows per sample (1 for a single query; one per head for
    #: multi-head kernels).
    num_results: int = 1


class Executable:
    """Common contract for compiled kernels, regardless of target.

    Every backend executable shares: a :class:`KernelSignature`, a
    ``source`` listing of the generated code, an explicit lifecycle
    (:meth:`close`, context-manager support), and :meth:`execute` with
    uniform input validation, output allocation, fault-injection
    poisoning and single-result squeezing. Subclasses implement
    :meth:`_run` (fill ``output`` from validated ``inputs``) and
    :attr:`source`; :attr:`target` names the backend so callers (the
    API-layer fallback cascade, the differential oracle) never need
    ``isinstance`` checks against concrete classes.
    """

    #: Backend name ("cpu", "gpu", ...), set by each subclass.
    target: str = "unknown"

    def __init__(self, entry_name: str, signature: KernelSignature):
        self.entry_name = entry_name
        self.signature = signature
        self._closed = False
        self._inflight = 0
        self._lifecycle = threading.Condition()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release owned resources (idempotent, concurrency-safe).

        Marks the executable closed — rejecting new :meth:`execute`
        calls — then waits for in-flight executions to drain before
        releasing resources via :meth:`_release`, so a racing
        ``execute`` never observes a half-torn-down executable.
        """
        with self._lifecycle:
            already = self._closed
            self._closed = True
            while self._inflight > 0:
                self._lifecycle.wait()
        if not already:
            self._release()

    def _release(self) -> None:
        """Release subclass-owned resources; runs exactly once, after
        every in-flight execution has drained."""

    def __enter__(self) -> "Executable":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _enter_execute(self) -> None:
        with self._lifecycle:
            if self._closed:
                raise ExecutableClosedError(
                    "executable closed",
                    diagnostic=Diagnostic(
                        severity=Severity.ERROR,
                        code=ErrorCode.EXECUTABLE_CLOSED,
                        message=f"'{self.entry_name}' invoked after close()",
                        stage="execute",
                        target=self.target,
                    ),
                )
            self._inflight += 1

    def _exit_execute(self) -> None:
        with self._lifecycle:
            self._inflight -= 1
            if self._inflight == 0:
                self._lifecycle.notify_all()

    # -- invocation ---------------------------------------------------------------

    def __call__(self, inputs: np.ndarray, deadline: Optional[float] = None) -> np.ndarray:
        return self.execute(inputs, deadline=deadline)

    def execute(
        self, inputs: np.ndarray, deadline: Optional[float] = None
    ) -> np.ndarray:
        """Run the kernel; returns [batch] (log-)likelihoods.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp
        propagated into chunk scheduling (CPU backend): chunks are not
        started past it and a structured
        :class:`~repro.diagnostics.DeadlineError` is raised instead.
        """
        self._enter_execute()
        try:
            sig = self.signature
            inputs = np.ascontiguousarray(inputs, dtype=sig.input_dtype)
            if inputs.ndim != 2 or inputs.shape[1] != sig.num_features:
                raise ValueError(
                    f"expected input of shape [batch, {sig.num_features}], "
                    f"got {inputs.shape}"
                )
            faults.maybe_fail_kernel(self.entry_name)
            output = np.empty(
                (sig.num_results, inputs.shape[0]), dtype=sig.result_dtype
            )
            self._run(inputs, output, deadline=deadline)
            if faults.kernel_nan_active():
                # Fault injection: simulate a codegen defect at the generated
                # kernel entry — the output buffer comes back NaN-poisoned.
                output.fill(np.nan)
            return output[0] if sig.num_results == 1 else output
        finally:
            self._exit_execute()

    def _run(
        self, inputs: np.ndarray, output: np.ndarray, deadline: Optional[float] = None
    ) -> None:
        raise NotImplementedError

    @property
    def source(self) -> str:
        """The generated code listing (the "object code")."""
        raise NotImplementedError


class CPUExecutable(Executable):
    """A compiled CPU kernel plus its invocation metadata."""

    target = "cpu"

    def __init__(
        self,
        generated: GeneratedModule,
        entry_name: str,
        signature: KernelSignature,
        num_threads: int = 1,
    ):
        super().__init__(entry_name, signature)
        self.generated = generated
        self.entry = generated.get(entry_name)
        self.num_threads = num_threads
        self._executor = ChunkedExecutor(num_threads) if num_threads > 1 else None
        #: Shard timeline of the most recent multi-threaded execution
        #: (worker names + per-chunk intervals; observability/benchmarks).
        self.last_timeline: Optional[ShardTimeline] = None

    def _release(self) -> None:
        """Release the worker thread pool and the kernel's buffer-pool
        arenas (runs once, post-drain — leak-free shutdown)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        pool = self.buffer_pool
        if pool is not None:
            pool.close()

    def _run(
        self, inputs: np.ndarray, output: np.ndarray, deadline: Optional[float] = None
    ) -> None:
        sig = self.signature
        n = inputs.shape[0]
        # libm semantics for the raw ufuncs in generated code: log(0) is
        # -inf, exp overflow is inf — never a warning or exception.
        with np.errstate(all="ignore"):
            if self._executor is None:
                faults.maybe_delay_chunk()
                self.entry(inputs, output)
                return
            # Shard the batch across the pool workers: the plan
            # over-decomposes to ≥ 2 * workers chunks (work stealing for
            # tail imbalance) without shrinking chunks below the
            # vector-profitable size or above the compiled hint (which
            # would regrow every worker arena's high-water mark). Chunk
            # boundaries never change results: the kernels are
            # per-sample, so sharded output is bit-identical to the
            # single-worker run at every chunk/tail size.
            ranges = faults.maybe_overlap_shards(
                plan_chunks(n, sig.batch_size, self.num_threads), n
            )
            if len(ranges) <= 1:
                faults.maybe_delay_chunk()
                self.entry(inputs, output)
                return
            timeline = ShardTimeline()

            def run_chunk(start: int, end: int) -> None:
                faults.maybe_delay_chunk()
                self.entry(inputs[start:end], output[:, start:end])

            try:
                self._executor.run(
                    n,
                    sig.batch_size,
                    run_chunk,
                    deadline=deadline,
                    ranges=ranges,
                    timeline=timeline,
                )
            finally:
                self.last_timeline = timeline

    @property
    def source(self) -> str:
        """The generated Python source (the "object code" listing)."""
        return self.generated.source

    @property
    def buffer_pool(self):
        """The kernel's reusable temp-buffer pool (observability/tests)."""
        return self.generated.buffer_pool
