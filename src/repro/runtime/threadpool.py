"""Multi-threaded chunked kernel execution (paper Section IV-B).

The generated CPU code is single-threaded by design; the runtime splits
the input batch into chunks (of the user-provided batch size — "a mere
optimization hint") and processes chunks on a thread pool.

Robustness: when a chunk raises, the executor *fails fast* — every
not-yet-started chunk is cancelled so a poisoned batch does not keep
burning worker time — and the first error propagates. Retrying is not
the executor's job: callers that want it run the whole execution as a
rung of :mod:`repro.runtime.ladder`.

Deadlines: :meth:`ChunkedExecutor.run` accepts an absolute ``deadline``
(``time.monotonic()`` timestamp). Chunks are not started past the
deadline; instead a structured
:class:`~repro.diagnostics.DeadlineError` is raised. This is the only
place a deadline can stop a sharded batch midway: the serving runtime
propagates per-request deadlines down to it so a slow batch fails
bounded rather than late.

Honesty note (DESIGN.md): with Python as the ISA, scalar kernels hold
the GIL, so threading over them is structural only. Batch-vectorized
kernels change that: each chunk is one straight line of whole-chunk
NumPy calls, which release the GIL, so worker threads genuinely overlap
— the configuration where the paper's Section IV-B runtime design pays
off in this reproduction.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..diagnostics import DeadlineError, Diagnostic, ErrorCode, Severity


def chunk_ranges(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split [0, total) into consecutive [start, end) chunks."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [
        (start, min(start + chunk_size, total))
        for start in range(0, total, chunk_size)
    ]


#: Below this many rows per chunk, the whole-batch vector kernels stop
#: amortizing their per-call dispatch cost (the Python-interpreted
#: straight-line prologue); adaptive sharding never shrinks chunks
#: further just to create parallelism that could not pay anyway.
MIN_PROFITABLE_CHUNK = 256


def plan_chunks(
    total: int,
    hint: int,
    workers: int,
    min_chunk: int = MIN_PROFITABLE_CHUNK,
) -> List[Tuple[int, int]]:
    """Adaptive shard plan: [0, total) split for ``workers`` pool workers.

    The user's ``hint`` (the compiled batch size — "a mere optimization
    hint", paper Section IV-B) caps the chunk width: scratch arenas are
    sized to it, and chunks beyond it would regrow every worker's
    high-water footprint. Within that cap the plan over-decomposes the
    batch so the shared chunk queue stays work-stealing friendly:

    - target at least ``2 * workers`` chunks, so a worker that finishes
      early (short tail, OS preemption, NUMA-unlucky placement) pulls
      another chunk instead of idling at the barrier;
    - never shrink a chunk below ``min_chunk`` rows — parallelism that
      deoptimizes the vector kernels is a net loss;
    - chunks are uniform except the tail, and the tail is *last* in the
      queue, so the longest work is in flight first (LPT-flavoured).

    Degenerates to :func:`chunk_ranges(total, hint)` for one worker.
    """
    if hint <= 0:
        raise ValueError("chunk hint must be positive")
    if workers <= 1 or total <= min_chunk:
        return chunk_ranges(total, min(hint, total) if total else hint)
    target_chunks = 2 * workers
    size = -(-total // target_chunks)  # ceil: ≥2W chunks when it fits
    size = max(min(size, hint), min(min_chunk, hint))
    return chunk_ranges(total, size)


@dataclass
class ShardRecord:
    """One chunk's execution interval, for makespan/overlap accounting."""

    start: int
    end: int
    worker: str
    began_at: float
    ended_at: float

    @property
    def seconds(self) -> float:
        return self.ended_at - self.began_at


class ShardTimeline:
    """Per-run record of which worker ran which chunk, and when.

    Thread-safe append; the scaling benchmark and the contention tests
    read it to compute busy time vs. makespan (achieved parallelism)
    and to assert worker-affine arena isolation.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.records: List[ShardRecord] = []

    def record(self, start: int, end: int, began_at: float, ended_at: float) -> None:
        entry = ShardRecord(
            start, end, threading.current_thread().name, began_at, ended_at
        )
        with self._lock:
            self.records.append(entry)

    @property
    def busy_seconds(self) -> float:
        """Sum of chunk execution times (work, ignoring idle gaps)."""
        return sum(r.seconds for r in self.records)

    @property
    def makespan_seconds(self) -> float:
        """Wall-clock span from first chunk start to last chunk end."""
        if not self.records:
            return 0.0
        return max(r.ended_at for r in self.records) - min(
            r.began_at for r in self.records
        )

    @property
    def workers(self) -> List[str]:
        """Distinct worker names that executed chunks, sorted."""
        return sorted({r.worker for r in self.records})


def _deadline_error(start: int, end: int, deadline: float) -> DeadlineError:
    message = (
        f"deadline exceeded before chunk [{start}, {end}) completed "
        f"({time.monotonic() - deadline:.3f}s past deadline)"
    )
    return DeadlineError(
        message,
        diagnostic=Diagnostic(
            severity=Severity.ERROR,
            code=ErrorCode.DEADLINE_EXCEEDED,
            message=message,
            stage="execute",
            detail={"chunk": [start, end]},
        ),
    )


class ChunkedExecutor:
    """Runs a per-chunk callable over the batch, optionally in parallel.

    Attributes (for observability and tests):
        last_run_cancelled: chunks of the most recently *finished* run
            that were cancelled before starting because another chunk
            failed. Concurrent runs each write their own snapshot.
    """

    def __init__(self, num_threads: int = 1):
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.num_threads = num_threads
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=num_threads, thread_name_prefix="spnc-worker"
            )
            if num_threads > 1
            else None
        )
        self.last_run_cancelled = 0

    def run(
        self,
        total: int,
        chunk_size: int,
        fn: Callable[[int, int], None],
        deadline: Optional[float] = None,
        ranges: Optional[List[Tuple[int, int]]] = None,
        timeline: Optional[ShardTimeline] = None,
    ) -> None:
        """Execute ``fn(start, end)`` for every chunk of the batch.

        Args:
            deadline: absolute ``time.monotonic()`` timestamp after
                which no further chunk is started and a structured
                :class:`DeadlineError` is raised.
            ranges: explicit shard plan (e.g. from :func:`plan_chunks`);
                overrides the uniform ``chunk_size`` split. Must cover
                ``[0, total)`` with disjoint chunks.
            timeline: optional :class:`ShardTimeline` receiving one
                record per executed chunk (worker name + interval).
        """
        if timeline is not None:
            timed = fn

            def fn(start: int, end: int, _inner=timed) -> None:
                began = time.monotonic()
                _inner(start, end)
                timeline.record(start, end, began, time.monotonic())

        if ranges is None:
            ranges = chunk_ranges(total, chunk_size)
        if self._pool is None or len(ranges) == 1:
            self.last_run_cancelled = 0
            for start, end in ranges:
                self._check_deadline(deadline, start, end)
                fn(start, end)
            return

        def guarded(start: int, end: int) -> None:
            # Deadline holds on the pool path too: a chunk that reaches
            # a worker past the deadline must not start.
            self._check_deadline(deadline, start, end)
            fn(start, end)

        futures = [self._pool.submit(guarded, s, e) for s, e in ranges]
        first_error: Optional[Exception] = None
        cancelled = 0
        for index, future in enumerate(futures):
            if future.cancelled():
                continue
            try:
                future.result()
            except Exception as error:
                if first_error is None:
                    first_error = error
                    # Fail fast: the moment any chunk raises, cancel
                    # everything that has not started yet.
                    cancelled = sum(later.cancel() for later in futures[index + 1:])
        self.last_run_cancelled = cancelled
        if first_error is not None:
            raise first_error

    @staticmethod
    def _check_deadline(deadline: Optional[float], start: int, end: int) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise _deadline_error(start, end, deadline)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ChunkedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
