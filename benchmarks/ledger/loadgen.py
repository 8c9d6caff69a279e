"""The ledger's own load generators for ``serve_poisson``.

Both loops run in the calling thread and drive
``InferenceServer.submit`` in-process: one Python thread cannot generate
an HTTP open loop at 2000 req/s, so HTTP is measured separately as a
per-layer number.

``repro.serving.loadgen.poisson_load`` is deliberately not used: it
clocks latency from the actual submit, which hides the wait a stall
imposes on the requests queued behind it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np


#: ``LoadResult.status`` codes.
PENDING, OK, DEGRADED, RAISED, REJECTED = range(5)


@dataclass
class LoadResult:
    """One entry per request sent; times are ``time.perf_counter`` seconds."""

    #: When each request was due (open loop) or sent (closed loop).
    due: np.ndarray
    #: When ``submit`` was entered and when it returned.
    sent: np.ndarray
    submitted: np.ndarray
    #: When the future completed (NaN if it never did or submit raised).
    done: np.ndarray
    #: OK, DEGRADED (served by the interpreter rung), RAISED (the future
    #: holds an exception: expired, failed, cancelled), REJECTED (submit
    #: raised: admission is synchronous) or PENDING (no outcome at all).
    status: np.ndarray
    #: First served value and ``ServingResult.latency_s`` (NaN unless OK
    #: or DEGRADED).
    value: np.ndarray
    reported_s: np.ndarray
    #: When the loop started sending.
    start: float


class _Sender:
    """Sends requests from the calling thread into preallocated columns.

    Nothing the garbage collector tracks is kept per request: a harness
    that retains a future and a record for each of 10^5 requests makes
    every full collection longer, and those pauses (tens of ms, every few
    thousand requests) land in the latencies it is measuring. The
    completion callback (run by the server's worker) therefore reduces
    the future to numbers at once, in slots only it writes to.
    """

    def __init__(self, submit: Callable[[int], object], capacity: int, on_complete=None):
        self.submit = submit
        self.on_complete = on_complete
        self.count = 0
        self.due, self.sent, self.submitted = (np.zeros(capacity) for _ in range(3))
        self.done, self.value, self.reported_s = (
            np.full(capacity, np.nan) for _ in range(3)
        )
        self.status = np.zeros(capacity, dtype=np.int8)

    @property
    def full(self) -> bool:
        return self.count == len(self.due)

    def send(self, due: Optional[float] = None) -> None:
        index = self.count
        self.count += 1
        sent = self.sent[index] = time.perf_counter()
        self.due[index] = sent if due is None else due
        try:
            future = self.submit(index)
        except Exception:  # rejected at admission: a failed request
            self.status[index] = REJECTED
            if self.on_complete is not None:
                self.on_complete()
        else:
            future.add_done_callback(partial(self._completed, index))
        self.submitted[index] = time.perf_counter()

    def _completed(self, index: int, future) -> None:
        self.done[index] = time.perf_counter()
        if future.cancelled() or future.exception() is not None:
            self.status[index] = RAISED
        else:
            served = future.result()
            self.value[index] = served.values.item(0)
            self.reported_s[index] = served.latency_s
            self.status[index] = DEGRADED if served.degraded else OK
        if self.on_complete is not None:
            self.on_complete()

    def finish(self, start: float, drain_s: float = 5.0) -> LoadResult:
        """Wait until every sent request has an outcome (or give up: the
        ones without count as failed), then cut the columns to size."""
        deadline = time.perf_counter() + drain_s
        while time.perf_counter() < deadline and not self.status[: self.count].all():
            time.sleep(0.005)
        columns = {
            name: getattr(self, name)[: self.count].copy()
            for name in ("due", "sent", "submitted", "done", "status", "value", "reported_s")
        }
        return LoadResult(start=start, **columns)


def open_loop(
    submit: Callable[[int], object], rate: float, seconds: float, seed: int
) -> LoadResult:
    """Poisson arrivals on a precomputed absolute schedule.

    ``submit(i)`` sends request ``i`` and returns its future. The
    schedule never stretches when the generator or the server falls
    behind: a late request is sent at once and its latency still counts
    from when it was due. Waiting is ``time.sleep`` only — a busy-wait
    would hold the GIL against the server's worker for a whole switch
    interval and inflate the latencies it is trying to measure.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    sender = _Sender(submit, len(offsets))
    start = time.perf_counter()
    for offset in offsets:
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sender.send(due)
    return sender.finish(start)


def closed_loop(
    submit: Callable[[int], object], clients: int, seconds: float
) -> LoadResult:
    """``clients`` outstanding requests, refilled from this one thread.

    A completion only counts itself and wakes this thread, which sends
    one new request per completion — the server is offered exactly as
    much load as it completes, which is what "closed" means.
    """
    completions = deque()
    wake = threading.Event()
    # More than one Python thread can send in the time; if the columns
    # ever fill up the loop just stops sending early.
    capacity = clients + int(seconds * 200_000)

    def on_complete():
        completions.append(None)
        wake.set()

    sender = _Sender(submit, capacity, on_complete)
    start = time.perf_counter()
    for _ in range(clients):
        sender.send()
    end = start + seconds
    while time.perf_counter() < end:
        wake.wait(timeout=0.05)
        wake.clear()
        while completions and not sender.full and time.perf_counter() < end:
            completions.popleft()
            sender.send()
    return sender.finish(start)
