"""The thread-pool-backed async inference server.

Request lifecycle (every request gets exactly one terminal outcome)::

    submit ──admission──▶ bounded queue ──batcher──▶ kernel batch ──▶ ok
       │                      │                          │
       ├─ queue full ────▶ rejected (retry-after)        ├─ kernel fault → bounded
       ├─ unknown model ─▶ ModelNotFoundError            │   backoff retry → breaker
       └─ dead deadline ─▶ expired                       │   → interpreter (degraded)
                              │                          └─ deadline → expired
                              ├─ expired while queued ─▶ expired
                              └─ client cancelled ─────▶ cancelled (skipped)

Robustness decisions:

- **Admission first.** A request that cannot be served in bounded time
  is rejected *synchronously* with a ``retry_after_s`` hint instead of
  queueing unboundedly (see :mod:`repro.serving.admission`).
- **Deadlines propagate.** A request deadline caps queue wait, batch
  formation and kernel execution — down to
  :meth:`ChunkedExecutor.run <repro.runtime.threadpool.ChunkedExecutor.run>`
  chunk scheduling — so slow chunks fail bounded, not late.
- **Degradation over failure.** Each batch runs down the one
  degradation ladder (:mod:`repro.runtime.ladder`) that the single-call
  API also uses: the version's kernel is the only compiled rung,
  retried under ``ServerConfig.retry`` (bounded backoff + jitter);
  repeated faults trip the per-model
  :class:`~repro.serving.admission.CircuitBreaker` and traffic is served
  by the reference rung (correct, slower, flagged ``degraded``) until a
  half-open probe proves the kernel healthy again. The server keeps only
  its stats and diagnostics; the rules are the ladder's.
- **Swap never drops.** Hot model swap routes new batches to the new
  version while in-flight batches finish on their leased version;
  the old kernel is closed only after its leases drain.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import InvalidStateError
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..diagnostics import (
    AdmissionError,
    DeadlineError,
    Diagnostic,
    DiagnosticLog,
    ErrorCode,
    ExecutionError,
    Severity,
    diagnostic_context,
    diagnostic_from_exception,
)
from ..runtime import ladder
from .admission import (
    BreakerConfig,
    CircuitBreaker,
    ModelNotFoundError,
    QueueClosedError,
    RequestQueue,
)
from .batcher import (
    BatchPolicy,
    DynamicBatcher,
    Request,
    ServingResult,
    canonical_query_args,
)
from .health import ServerStats
from .registry import ModelRegistry, ModelVersion


@dataclass(frozen=True)
class ServerConfig:
    """Tuning of the serving runtime (all robustness knobs in one place)."""

    #: Dynamic batching: max rows per kernel call / max coalescing wait.
    max_batch: int = 1024
    max_wait_us: int = 2000
    #: Bounded per-model request queue (admission rejects beyond this).
    queue_capacity: int = 1024
    #: Default per-request timeout; ``None`` = no deadline unless given.
    default_timeout_s: Optional[float] = None
    #: Bounded-backoff retry for transient compiled-kernel faults.
    retry: ladder.RetryPolicy = ladder.RetryPolicy(
        max_retries=2, backoff_base=0.002, backoff_max=0.05, jitter=0.25
    )
    #: Per-model circuit breaker configuration.
    breaker: BreakerConfig = BreakerConfig()
    #: Batcher workers per model (each forms and runs whole batches).
    workers_per_model: int = 1
    #: Runtime worker threads each *compiled kernel* shards coalesced
    #: batches across (forwarded as ``num_threads`` to the compiler
    #: unless the publish call overrides it). Distinct from
    #: ``workers_per_model``: that many batches form concurrently,
    #: each of which fans out over this many kernel threads.
    kernel_threads: int = 1
    #: Per-model cap on *concurrently executing* kernel batches
    #: (``None`` = unbounded, i.e. ``workers_per_model``). Composes
    #: with admission control: workers beyond the cap block at the
    #: gate, queue depth grows, and the bounded queue starts rejecting
    #: with retry-after hints — parallelism pressure becomes
    #: back-pressure instead of oversubscription.
    max_parallel_batches: Optional[int] = None
    #: How long shutdown/swap waits for in-flight work to drain.
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.kernel_threads < 1:
            raise ValueError("kernel_threads must be >= 1")
        if self.max_parallel_batches is not None and self.max_parallel_batches < 1:
            raise ValueError("max_parallel_batches must be >= 1 or None")


class _ModelState:
    """Per-model serving machinery: queue, workers, breaker, stats."""

    def __init__(self, name: str, config: ServerConfig):
        self.name = name
        self.queue = RequestQueue(config.queue_capacity)
        self.breaker = CircuitBreaker(config.breaker)
        self.stats = ServerStats()
        self.workers: List[threading.Thread] = []
        #: Bounds concurrently *executing* kernel batches for this model
        #: (``None`` = no cap beyond the worker count).
        self.kernel_gate: Optional[threading.BoundedSemaphore] = (
            None
            if config.max_parallel_batches is None
            else threading.BoundedSemaphore(config.max_parallel_batches)
        )


class InferenceServer:
    """Async inference over a registry of compiled models.

    Thread-pool-backed: :meth:`submit` returns a
    :class:`concurrent.futures.Future` resolving to a
    :class:`~repro.serving.batcher.ServingResult`; :meth:`infer` is the
    blocking convenience wrapper. See the module docstring for the
    request lifecycle and robustness guarantees.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        registry: Optional[ModelRegistry] = None,
    ):
        self.config = config or ServerConfig()
        self.diagnostics = DiagnosticLog()
        self.registry = registry or ModelRegistry(diagnostics=self.diagnostics)
        self.batcher = DynamicBatcher(
            BatchPolicy(
                max_batch=self.config.max_batch, max_wait_us=self.config.max_wait_us
            )
        )
        #: Whole-server aggregate stats (per-model stats in health()).
        self.stats = ServerStats()
        self._models: Dict[str, _ModelState] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._retirers: List[threading.Thread] = []
        self._started_at = time.time()

    # -- model management --------------------------------------------------------

    def publish(self, name: str, spn, compiler=None, **compiler_options) -> ModelVersion:
        """Compile and serve ``spn`` as ``name`` (hot swap if it exists).

        The previous version (if any) is drained and unloaded in the
        background; in-flight requests against it complete normally.
        The server's :attr:`ServerConfig.kernel_threads` is forwarded
        as the compiler's ``num_threads`` default, so coalesced batches
        execute sharded across runtime workers; an explicit
        ``num_threads=...`` (or a pre-built ``compiler``) overrides it.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("server is closed")
        if compiler is None:
            compiler_options.setdefault("num_threads", self.config.kernel_threads)
        version = self.registry.publish(name, spn, compiler=compiler, **compiler_options)
        with self._lock:
            state = self._models.get(name)
            if state is None:
                state = self._models[name] = _ModelState(name, self.config)
                self._start_workers(state)
        previous = version.previous
        if previous is not None:
            self._retire_async(previous)
        return version

    def swap(self, name: str, spn, **kwargs) -> ModelVersion:
        """Hot-swap an existing model (raises for unknown names)."""
        with self._lock:
            if name not in self._models:
                raise ModelNotFoundError(f"cannot swap unknown model '{name}'")
        return self.publish(name, spn, **kwargs)

    def unload(self, name: str) -> None:
        """Stop serving ``name``: flush its queue with clean rejections,
        drain in-flight batches, release the kernel."""
        with self._lock:
            state = self._models.pop(name, None)
        if state is None:
            raise ModelNotFoundError(f"unknown model '{name}'")
        self._stop_state(state, reason=f"model '{name}' unloaded")
        self.registry.unload(name, drain_timeout=self.config.drain_timeout_s)

    def _start_workers(self, state: _ModelState) -> None:
        for index in range(max(1, self.config.workers_per_model)):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(state,),
                name=f"serving-{state.name}-{index}",
                daemon=True,
            )
            state.workers.append(worker)
            worker.start()

    def _retire_async(self, version: ModelVersion) -> None:
        """Drain-before-unload of a swapped-out version, off-thread."""

        def retire():
            if not ModelRegistry.retire(version, self.config.drain_timeout_s):
                self.diagnostics.emit(
                    Diagnostic(
                        severity=Severity.WARNING,
                        code=ErrorCode.MODEL_SWAPPED,
                        message=(
                            f"drain of '{version.name}' v{version.version} timed "
                            f"out after {self.config.drain_timeout_s}s; kernel "
                            "left open"
                        ),
                    )
                )

        thread = threading.Thread(
            target=retire, name=f"retire-{version.name}-v{version.version}", daemon=True
        )
        with self._lock:
            # Prune finished retirers so frequent swaps on a long-lived
            # server do not accumulate dead Thread objects.
            self._retirers = [t for t in self._retirers if t.is_alive()]
            self._retirers.append(thread)
        thread.start()

    # -- request entry points ----------------------------------------------------

    def submit(
        self,
        name: str,
        rows,
        timeout_s: Optional[float] = None,
        *,
        query: str = "joint",
        query_variables=(),
        moment: int = 1,
        seed: int = 0,
    ):
        """Admit one request; returns a Future of :class:`ServingResult`.

        ``rows`` is one row ``[features]`` or a small batch
        ``[k, features]``. ``query`` selects the modality ("joint",
        "mpe", "sample", "conditional", "expectation");
        ``query_variables`` (conditional), ``moment`` (expectation) and
        ``seed`` (sample) parameterize it. Requests of different
        modalities share the queue but batch separately — the batcher
        partitions by query, so mixed traffic coalesces per kind.
        Raises synchronously on admission failure:
        :class:`~repro.serving.admission.ModelNotFoundError`,
        :class:`~repro.diagnostics.AdmissionError` (queue full /
        closed, with ``retry_after_s``), ``ValueError`` (bad shape or
        query parameters) or
        :class:`~repro.diagnostics.DeadlineError` (deadline already
        infeasible at submit).
        """
        with self._lock:
            closed = self._closed
            state = self._models.get(name)
        if state is None:
            if not closed:
                raise ModelNotFoundError(f"unknown model '{name}'")
            state = None
        if closed:
            raise AdmissionError(
                "server is shutting down", retry_after_s=self.config.drain_timeout_s
            )

        version = self.registry.current(name)
        rows = np.asarray(rows)
        single_row = rows.ndim == 1
        if single_row:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2 or rows.shape[1] != version.num_features:
            raise ValueError(
                f"expected [{version.num_features}] features per row, "
                f"got shape {rows.shape}"
            )
        query_args = canonical_query_args(query, query_variables, moment)
        # Build the descriptor once to validate synchronously (unknown
        # kind, empty conditional set, unsupported moment) — the caller
        # gets a ValueError at submit, not a failed Future later.
        version.query_for(query, query_args)

        timeout = self.config.default_timeout_s if timeout_s is None else timeout_s
        deadline = None if timeout is None else time.monotonic() + timeout
        request = Request(
            model=name,
            rows=rows,
            deadline=deadline,
            single_row=single_row,
            query=query,
            query_args=query_args,
            seed=int(seed),
        )
        if request.expired():
            self._record_arrival(state, accepted=True)
            error = self._deadline_error(request, where="at admission")
            self._finish_error(state, request, error, outcome="expired")
            raise error

        try:
            accepted = state.queue.offer(request)
        except QueueClosedError:
            # close()/unload() won the race after our closed check above:
            # reject with the same structured shutdown semantics the
            # synchronous path documents (HTTP 503, not a bare 500).
            self._record_arrival(state, accepted=False)
            raise AdmissionError(
                f"model '{name}' is shutting down",
                retry_after_s=self.config.drain_timeout_s,
            ) from None
        if not accepted:
            self._record_arrival(state, accepted=False)
            retry_after = self._retry_after_hint(state)
            raise AdmissionError(
                f"queue for model '{name}' is full "
                f"({state.queue.capacity} pending); retry after "
                f"{retry_after:.3f}s",
                retry_after_s=retry_after,
            )
        self._record_arrival(state, accepted=True)
        return request.future

    def infer(
        self,
        name: str,
        rows,
        timeout_s: Optional[float] = None,
        *,
        query: str = "joint",
        query_variables=(),
        moment: int = 1,
        seed: int = 0,
    ) -> np.ndarray:
        """Blocking inference; returns the query's values.

        Single-row submits get a scalar-shaped result (``[...]`` with
        the row axis squeezed), mirroring direct kernel calls. Values
        keep the kernel layout (rows on the last axis): ``[rows]`` for
        joint/conditional, ``[1 + F, rows]`` for MPE (score row first),
        ``[F, rows]`` for sample/expectation.
        """
        future = self.submit(
            name,
            rows,
            timeout_s=timeout_s,
            query=query,
            query_variables=query_variables,
            moment=moment,
            seed=seed,
        )
        result: ServingResult = future.result(
            timeout=None if timeout_s is None else timeout_s + self.config.drain_timeout_s
        )
        values = result.values
        return values[..., 0] if np.asarray(rows).ndim == 1 else values

    def _retry_after_hint(self, state: _ModelState) -> float:
        batches_pending = state.queue.depth / max(1, self.config.max_batch)
        hint = (batches_pending + 1.0) * max(self.batcher.policy.max_wait_s, 0.001)
        return min(max(hint, 0.005), 1.0)

    # -- outcome bookkeeping (exactly one per request) ---------------------------

    def _record_arrival(self, state: _ModelState, accepted: bool) -> None:
        state.stats.record_arrival(accepted)
        self.stats.record_arrival(accepted)

    def _finish_ok(
        self,
        state: _ModelState,
        request: Request,
        values: np.ndarray,
        degraded: bool,
        version: int,
    ) -> None:
        if request.finished:
            return
        request.finished = True
        latency = time.monotonic() - request.submitted_at
        result = ServingResult(
            values=values,
            degraded=degraded,
            model_version=version,
            latency_s=latency,
            query=request.query,
        )
        try:
            request.future.set_result(result)
        except InvalidStateError:
            # The client cancelled the pending Future (its terminal
            # outcome); account for it so no request goes missing.
            state.stats.record_outcome("cancelled", latency_s=latency)
            self.stats.record_outcome("cancelled", latency_s=latency)
            return
        state.stats.record_outcome("ok", latency_s=latency, degraded=degraded)
        self.stats.record_outcome("ok", latency_s=latency, degraded=degraded)

    def _finish_error(
        self, state: _ModelState, request: Request, error: Exception, outcome: str
    ) -> None:
        if request.finished:
            return
        request.finished = True
        latency = time.monotonic() - request.submitted_at
        try:
            request.future.set_exception(error)
        except InvalidStateError:
            outcome = "cancelled"
        state.stats.record_outcome(outcome, latency_s=latency)
        self.stats.record_outcome(outcome, latency_s=latency)

    def _finish_cancelled(self, state: _ModelState, request: Request) -> None:
        """Terminal outcome for a request whose Future the client
        cancelled while it was queued (the cancellation already
        delivered ``CancelledError`` to the caller)."""
        if request.finished:
            return
        request.finished = True
        latency = time.monotonic() - request.submitted_at
        state.stats.record_outcome("cancelled", latency_s=latency)
        self.stats.record_outcome("cancelled", latency_s=latency)

    @staticmethod
    def _deadline_error(request: Request, where: str) -> DeadlineError:
        message = (
            f"request {request.request_id} for '{request.model}' exceeded "
            f"its deadline {where}"
        )
        return DeadlineError(
            message,
            diagnostic=Diagnostic(
                severity=Severity.ERROR,
                code=ErrorCode.DEADLINE_EXCEEDED,
                message=message,
                stage="serving",
                detail={"request_id": request.request_id},
            ),
        )

    # -- the batcher worker ------------------------------------------------------

    def _worker_loop(self, state: _ModelState) -> None:
        while True:
            batch, expired = self.batcher.next_batch(state.queue)
            for request in expired:
                self._finish_error(
                    state,
                    request,
                    self._deadline_error(request, where="while queued"),
                    outcome="expired",
                )
            if batch is None:
                # No live request this round: either shutdown, or the
                # batcher surfaced queued expiries (just delivered
                # above) and went back to waiting.
                if state.queue.closed:
                    return
                continue
            # Transition each Future to RUNNING so a late client
            # cancel() can no longer race our set_result/set_exception;
            # requests already cancelled while queued are dropped here
            # with a 'cancelled' outcome instead of burning kernel time.
            live = []
            for request in batch:
                if request.future.set_running_or_notify_cancel():
                    live.append(request)
                else:
                    self._finish_cancelled(state, request)
            # Partition by feature width *and* query modality: a hot
            # swap can change num_features while old-width requests sit
            # queued (uniform-width groups keep concat well-defined and
            # fail mismatches cleanly per group), and different query
            # kinds — or conditionals over different variable sets —
            # are different compiled kernels, so mixed-modality traffic
            # coalesces per kind, never across kinds.
            for group in self._partition(live):
                try:
                    self._process_batch(state, group)
                except Exception as error:
                    # The worker must survive any batch: fail the
                    # group's requests and keep serving. A dead worker
                    # would strand every future behind it.
                    self.diagnostics.emit(
                        diagnostic_from_exception(
                            error, code=ErrorCode.EXECUTION_FAILED
                        )
                    )
                    for request in group:
                        self._finish_error(state, request, error, outcome="failed")

    @staticmethod
    def _partition(batch: List[Request]) -> List[List[Request]]:
        groups: Dict[tuple, List[Request]] = {}
        for request in batch:
            key = (request.rows.shape[1], request.batch_key)
            groups.setdefault(key, []).append(request)
        return list(groups.values())

    def _process_batch(self, state: _ModelState, batch: List[Request]) -> None:
        if not batch:
            return
        inputs = DynamicBatcher.concat(batch)
        deadlines = [r.deadline for r in batch if r.deadline is not None]
        deadline = min(deadlines) if deadlines else None
        state.stats.record_batch(inputs.shape[0])
        self.stats.record_batch(inputs.shape[0])
        with diagnostic_context(
            model=state.name, request_ids=[r.request_id for r in batch]
        ):
            try:
                version = self.registry.acquire(state.name)
            except ModelNotFoundError as error:
                for request in batch:
                    self._finish_error(state, request, error, outcome="failed")
                return
            if inputs.shape[1] != version.num_features:
                # Stranded by a swap that changed the schema: reject
                # cleanly without charging the kernel or the breaker.
                version.release()
                error = ExecutionError(
                    f"request feature width {inputs.shape[1]} does not match "
                    f"model '{state.name}' v{version.version} "
                    f"({version.num_features} features)"
                )
                for request in batch:
                    self._finish_error(state, request, error, outcome="failed")
                return
            gate = state.kernel_gate
            if gate is not None and not self._acquire_gate(gate, deadline):
                version.release()
                error = self._gate_deadline_error(state, batch)
                for request in batch:
                    self._finish_error(state, request, error, outcome="expired")
                return
            try:
                # The group shares one modality (it is part of the
                # batching key); joint batches with NaN evidence reroute
                # to the marginal-supporting kernel here.
                query = version.query_for(
                    batch[0].query, batch[0].query_args, inputs=inputs
                )
                outputs, degraded = self._execute_ladder(
                    state, version, inputs, deadline, query, batch[0].seed
                )
            except DeadlineError as error:
                for request in batch:
                    self._finish_error(state, request, error, outcome="expired")
                return
            except Exception as error:
                for request in batch:
                    self._finish_error(state, request, error, outcome="failed")
                return
            finally:
                version.release()
                if gate is not None:
                    gate.release()
        for request, piece in zip(batch, DynamicBatcher.split(batch, outputs)):
            if request.expired():
                # The deadline is a contract: a result computed too late
                # (e.g. slow chunks on the single-chunk path, where the
                # executor cannot preempt a running kernel) is not
                # delivered as a success.
                self._finish_error(
                    state,
                    request,
                    self._deadline_error(request, where="before delivery"),
                    outcome="expired",
                )
            else:
                self._finish_ok(
                    state, request, piece, degraded, version.version
                )

    @staticmethod
    def _acquire_gate(
        gate: threading.BoundedSemaphore, deadline: Optional[float]
    ) -> bool:
        """Take a kernel-parallelism slot, waiting no longer than the
        batch's deadline allows. Returns ``False`` when the deadline
        expires first — the batch then fails *expired*, the same terminal
        outcome a slow kernel would have produced."""
        if deadline is None:
            gate.acquire()
            return True
        remaining = deadline - time.monotonic()
        return remaining > 0 and gate.acquire(timeout=remaining)

    def _gate_deadline_error(
        self, state: _ModelState, batch: List[Request]
    ) -> DeadlineError:
        message = (
            f"deadline exceeded waiting for a kernel-parallelism slot on "
            f"model '{state.name}' "
            f"(max_parallel_batches={self.config.max_parallel_batches})"
        )
        return DeadlineError(
            message,
            diagnostic=Diagnostic(
                severity=Severity.ERROR,
                code=ErrorCode.DEADLINE_EXCEEDED,
                message=message,
                stage="serving",
                detail={"request_ids": [r.request_id for r in batch]},
            ),
        )

    # -- the degradation ladder --------------------------------------------------

    def _execute_ladder(
        self,
        state: _ModelState,
        version: ModelVersion,
        inputs: np.ndarray,
        deadline: Optional[float],
        query,
        seed: int,
    ):
        """One batch down :mod:`repro.runtime.ladder`: the version's kernel
        (retried under ``ServerConfig.retry``, guarded by the model's
        breaker) → reference rung. Returns ``(outputs, degraded)`` or
        raises the terminal error."""

        def kernel() -> np.ndarray:
            # Lazy per-modality compile (first request of a kind on this
            # version) happens inside the ladder, so a failing query
            # lowering degrades to the reference rung instead of
            # erroring the batch.
            executable = version.executable_for(query)
            if query.kind == "sample":
                return executable.execute(inputs, deadline=deadline, seed=seed)
            return executable.execute(inputs, deadline=deadline)

        landing = ladder.run(
            ((version.executable.target, kernel),),
            version.spn,
            inputs,
            query,
            retry=self.config.retry,
            seed=seed,
            use_log_space=version.use_log_space,
            deadline=deadline,
            breaker=state.breaker,
        )
        if landing.retries:
            state.stats.record_retry(landing.retries)
            self.stats.record_retry(landing.retries)
        if landing.short_circuited:
            state.stats.record_breaker_short_circuit()
            self.stats.record_breaker_short_circuit()
        for target, error in landing.failures:
            self.diagnostics.emit(
                diagnostic_from_exception(
                    error, code=ErrorCode.EXECUTION_FAILED, target=target
                )
            )
        if landing.failures and state.breaker.state != CircuitBreaker.CLOSED:
            self.diagnostics.emit(
                Diagnostic(
                    severity=Severity.WARNING,
                    code=ErrorCode.BREAKER_OPEN,
                    message=(
                        f"circuit breaker for '{state.name}' opened after "
                        "repeated kernel failures; serving degraded "
                        "(reference interpreter)"
                    ),
                    target=version.executable.target,
                )
            )
        return landing.output, landing.degraded

    # -- health / shutdown -------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Machine-readable health: queue depths, batch histogram,
        latency quantiles, breaker states, degraded-mode flags."""
        with self._lock:
            states = dict(self._models)
            closed = self._closed
        models = {}
        any_degraded = False
        for name, state in states.items():
            breaker = state.breaker.describe()
            degraded_mode = breaker["state"] != CircuitBreaker.CLOSED
            any_degraded = any_degraded or degraded_mode
            try:
                version = self.registry.current(name).describe()
            except ModelNotFoundError:  # pragma: no cover - unload race
                version = None
            models[name] = {
                "version": version,
                "queue_depth": state.queue.depth,
                "queue_capacity": state.queue.capacity,
                "breaker": breaker,
                "degraded_mode": degraded_mode,
                **state.stats.snapshot(),
            }
        status = "closed" if closed else ("degraded" if any_degraded else "ok")
        return {
            "status": status,
            "uptime_s": time.time() - self._started_at,
            "batch_policy": {
                "max_batch": self.config.max_batch,
                "max_wait_us": self.config.max_wait_us,
            },
            "parallelism": {
                "workers_per_model": self.config.workers_per_model,
                "kernel_threads": self.config.kernel_threads,
                "max_parallel_batches": self.config.max_parallel_batches,
            },
            "totals": self.stats.snapshot(),
            "models": models,
        }

    def _stop_state(self, state: _ModelState, reason: str) -> None:
        pending = state.queue.close(flush=True)
        for request in pending:
            self._finish_error(
                state,
                request,
                AdmissionError(reason, retry_after_s=self.config.drain_timeout_s),
                outcome="rejected",
            )
        for worker in state.workers:
            worker.join(timeout=self.config.drain_timeout_s)

    def close(self, drain: bool = True) -> None:
        """Shut down; every pending request still gets a terminal outcome.

        ``drain=True`` serves out queued requests first; ``drain=False``
        flushes them with clean rejections.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            states = list(self._models.values())
            self._models.clear()
        for state in states:
            if drain:
                # Stop admissions (closed flag already set), let workers
                # drain the queue, then close it so they exit.
                deadline = time.monotonic() + self.config.drain_timeout_s
                while state.queue.depth > 0 and time.monotonic() < deadline:
                    time.sleep(0.001)
                state.queue.close(flush=False)
                for worker in state.workers:
                    worker.join(timeout=self.config.drain_timeout_s)
                # Anything left after the timeout gets a clean rejection.
                for request in state.queue.close(flush=True):
                    self._finish_error(
                        state,
                        request,
                        AdmissionError("server is shutting down"),
                        outcome="rejected",
                    )
            else:
                self._stop_state(state, reason="server is shutting down")
        with self._lock:
            retirers = list(self._retirers)
            self._retirers.clear()
        for thread in retirers:
            thread.join(timeout=self.config.drain_timeout_s)
        self.registry.close(drain_timeout=self.config.drain_timeout_s)

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
