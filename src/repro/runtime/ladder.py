"""The degradation ladder: one retry loop over compiled rungs, one reference rung.

SPFlow's interpreter is the slow path that is always correct; compiled
kernels are the fast path that may hit a compiler or runtime defect.
Every caller that must not surface such a defect — the single-call API
under ``fallback="interpret"``/``"warn"`` and the serving runtime — runs
its compiled paths as *rungs* of this one ladder::

    rung 0 (retried) → rung 1 (retried) → … → reference interpreter

The rules live here and nowhere else:

- A rung is a named zero-argument callable that compiles if needed and
  executes. It is retried under a :class:`RetryPolicy` (bounded
  attempts, exponential backoff with jitter, never sleeping past the
  deadline).
- A NaN output is a kernel defect (:func:`check_kernel_output`) and
  fails the rung like a crash. Conditionals and expectations are
  exempt: there NaN is a defined answer.
- A caller error (:func:`is_caller_error`: NaN on a conditional query
  variable) re-raises at once. No retry, slower rung or breaker charge
  can fix malformed input.
- :class:`~repro.diagnostics.DeadlineError` propagates and is never
  charged to the breaker: slow is not defective.
- When every rung fails, or an open circuit breaker skips them, the
  reference rung (:func:`reference_output`) answers.

:func:`run` reports where it landed as a :class:`Landing`; each caller
keeps its own stats, warnings and ``degraded`` flag.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..diagnostics import (
    DeadlineError,
    Diagnostic,
    ErrorCode,
    ExecutionError,
    Severity,
)
from ..spn import inference, sampling
from ..spn.mpe import mpe as reference_mpe
from ..spn.query import Query


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and jitter.

    ``max_retries=0`` preserves strict fail-immediately semantics.
    ``backoff_base=0`` retries immediately; otherwise attempt *n*
    (0-based) sleeps ``min(backoff_base * 2**n, backoff_max)`` scaled by
    a uniform ``±jitter`` fraction so synchronized callers do not retry
    in lock-step (thundering herd).
    """

    max_retries: int = 0
    backoff_base: float = 0.0
    backoff_max: float = 0.25
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff delay in seconds before retry ``attempt`` (0-based)."""
        if self.backoff_base <= 0.0:
            return 0.0
        base = min(self.backoff_base * (2.0 ** attempt), self.backoff_max)
        if self.jitter:
            scale = (rng.uniform if rng else random.uniform)(
                1.0 - self.jitter, 1.0 + self.jitter
            )
            base *= scale
        return base


def is_caller_error(error: BaseException) -> bool:
    """Whether ``error`` is the caller's bug rather than a kernel defect."""
    diagnostic = getattr(error, "diagnostic", None)
    return diagnostic is not None and diagnostic.code == ErrorCode.QUERY_NAN


def check_kernel_output(output: np.ndarray, query: Query, target: str) -> None:
    """Raise a ``KERNEL_NAN`` :class:`ExecutionError` for NaN results.

    -inf is a legitimate log probability of zero; NaN never is — even
    for marginal queries, NaN *inputs* must not leak into the result.
    Conditionals and expectations are exempt: there NaN is a defined
    answer (zero-probability evidence, features outside the model
    scope).
    """
    if query.kind in ("conditional", "expectation"):
        return
    if np.isnan(output).any():
        message = f"compiled {target} kernel produced NaN results"
        raise ExecutionError(
            message,
            diagnostic=Diagnostic(
                severity=Severity.ERROR,
                code=ErrorCode.KERNEL_NAN,
                message=message,
                stage="execute",
                target=target,
            ),
        )


def reference_output(
    spn,
    inputs: np.ndarray,
    query: Query,
    seed: Optional[int] = None,
    use_log_space: bool = True,
) -> np.ndarray:
    """The reference rung: SPFlow-equivalent evaluation of any query kind.

    Slow but always correct. Outputs are shaped exactly like the
    compiled kernel's (rows on the last axis), so callers slice them the
    same way; a list of SPNs (a multi-head joint query) yields a
    ``[num_heads, batch]`` matrix.
    """
    data = np.asarray(inputs, dtype=np.float64)
    if query.kind == "mpe":
        completions, scores = reference_mpe(spn, data)
        if not use_log_space:
            scores = np.exp(scores)
        return np.concatenate([scores[None, :], completions.T], axis=0)
    if query.kind == "sample":
        rng = np.random.default_rng(0 if seed is None else seed)
        return sampling.conditional_sample(spn, data, rng).T
    if query.kind == "conditional":
        return inference.conditional_log_likelihood(spn, data, query.query_variables)
    if query.kind == "expectation":
        return inference.expectation(spn, data, moment=query.moment).T
    if isinstance(spn, (list, tuple)):
        output = np.stack([inference.log_likelihood(s, data) for s in spn], axis=0)
    else:
        output = inference.log_likelihood(spn, data)
    return output if use_log_space else np.exp(output)


#: The rung name a :class:`Landing` reports when the reference answered.
REFERENCE = "reference"


class Landing(NamedTuple):
    """Where :func:`run` landed, and what it took to get there."""

    output: np.ndarray
    #: Name of the rung that produced ``output``, or :data:`REFERENCE`.
    rung: str
    #: Retries taken, summed over every rung.
    retries: int = 0
    #: ``(rung name, last error)`` of each rung that failed for good.
    failures: Tuple[Tuple[str, Exception], ...] = ()
    #: An open breaker skipped the compiled rungs.
    short_circuited: bool = False

    @property
    def degraded(self) -> bool:
        return self.rung == REFERENCE


def _check_deadline(deadline: Optional[float], where: str) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineError(f"deadline exceeded {where}")


def run(
    rungs: Sequence[Tuple[str, Callable[[], np.ndarray]]],
    spn,
    inputs: np.ndarray,
    query: Query,
    *,
    retry: RetryPolicy,
    seed: Optional[int] = None,
    use_log_space: bool = True,
    deadline: Optional[float] = None,
    breaker=None,
) -> Landing:
    """Climb ``rungs`` in order; land on the reference rung if all fail.

    ``rungs`` are ``(name, callable)`` pairs; the name doubles as the
    target in the NaN diagnostic. ``spn``, ``inputs``, ``seed`` and
    ``use_log_space`` parameterize the reference rung. ``deadline`` is an
    absolute ``time.monotonic()`` timestamp. ``breaker`` (a
    :class:`~repro.serving.admission.CircuitBreaker`) is consulted once
    before the first rung and charged once: a success, or a failure
    after the last rung failed.
    """
    retries = 0
    failures: Tuple[Tuple[str, Exception], ...] = ()
    short_circuited = breaker is not None and not breaker.allow_request()
    if not short_circuited:
        for name, rung in rungs:
            attempt = 0
            while True:
                _check_deadline(deadline, "before kernel execution")
                try:
                    output = rung()
                    check_kernel_output(output, query, name)
                except DeadlineError:
                    raise
                except Exception as error:
                    if is_caller_error(error):
                        raise
                    if attempt >= retry.max_retries:
                        failures += ((name, error),)
                        break
                    delay = retry.delay(attempt)
                    if deadline is not None and time.monotonic() + delay >= deadline:
                        raise DeadlineError(
                            "deadline exceeded during kernel retry backoff"
                        ) from error
                    if delay > 0.0:
                        time.sleep(delay)
                    attempt += 1
                    retries += 1
                else:
                    if breaker is not None:
                        breaker.record_success()
                    return Landing(output, name, retries, failures)
        if breaker is not None:
            breaker.record_failure()
    _check_deadline(deadline, "before the reference rung could run")
    output = reference_output(spn, inputs, query, seed, use_log_space)
    return Landing(output, REFERENCE, retries, failures, short_circuited)
