"""The degradation ladder: retry loop, rung order, reference rung, breaker.

The API (``fallback="interpret"``) and the serving runtime both climb
:func:`repro.runtime.ladder.run`; these tests pin its rules directly.
"""

import time

import numpy as np
import pytest

from repro.diagnostics import DeadlineError, Diagnostic, ErrorCode, ExecutionError, Severity
from repro.runtime.ladder import (
    REFERENCE,
    RetryPolicy,
    check_kernel_output,
    is_caller_error,
    reference_output,
    run,
)
from repro.serving.admission import BreakerConfig, CircuitBreaker
from repro.spn import ConditionalProbability, JointProbability, log_likelihood

from ..conftest import make_gaussian_spn

JOINT = JointProbability(batch_size=8)
NO_RETRY = RetryPolicy()


class Rung:
    """A scripted rung: raises each queued error in turn, then answers."""

    def __init__(self, *errors, output=None):
        self.errors = list(errors)
        self.output = np.zeros(4) if output is None else output
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.output


def _climb(rungs, inputs, query=JOINT, **kwargs):
    kwargs.setdefault("retry", NO_RETRY)
    return run(rungs, make_gaussian_spn(), inputs, query, **kwargs)


@pytest.fixture
def inputs(rng):
    return rng.normal(size=(4, 2))


def _query_nan():
    return ExecutionError(
        "NaN on a query variable",
        diagnostic=Diagnostic(Severity.ERROR, ErrorCode.QUERY_NAN, "query NaN"),
    )


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=5, backoff_base=0.01, backoff_max=0.04, jitter=0.0
        )
        delays = [policy.delay(attempt) for attempt in range(5)]
        assert delays[0] == pytest.approx(0.01)
        assert delays[1] == pytest.approx(0.02)
        assert max(delays) <= 0.04 + 1e-9
        assert delays == sorted(delays)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            max_retries=1, backoff_base=0.01, backoff_max=1.0, jitter=0.5
        )
        for _ in range(50):
            assert 0.005 <= policy.delay(0) <= 0.015

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_retries": -1}, {"backoff_base": -0.1}, {"jitter": 1.0}],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRungs:
    def test_first_rung_answers(self, inputs):
        rung = Rung()
        landing = _climb([("cpu", rung)], inputs)
        assert landing.rung == "cpu" and not landing.degraded
        assert (landing.retries, landing.failures) == (0, ())
        assert rung.calls == 1

    def test_transient_fault_retried_on_the_same_rung(self, inputs):
        rung = Rung(RuntimeError("transient"))
        landing = _climb([("cpu", rung)], inputs, retry=RetryPolicy(max_retries=1))
        assert landing.rung == "cpu"
        assert landing.retries == 1 and landing.failures == ()

    def test_exhausted_rung_falls_to_the_next(self, inputs):
        gpu = Rung(RuntimeError("a"), RuntimeError("b"))
        cpu = Rung()
        landing = _climb(
            [("gpu", gpu), ("cpu", cpu)], inputs, retry=RetryPolicy(max_retries=1)
        )
        assert landing.rung == "cpu"
        assert landing.retries == 1
        assert [name for name, _ in landing.failures] == ["gpu"]
        assert str(landing.failures[0][1]) == "b"  # the last error

    def test_all_rungs_failing_lands_on_reference(self, inputs):
        landing = _climb([("cpu", Rung(RuntimeError("boom")))], inputs)
        assert landing.rung == REFERENCE and landing.degraded
        np.testing.assert_allclose(
            landing.output, log_likelihood(make_gaussian_spn(), inputs), atol=1e-12
        )

    def test_nan_output_fails_the_rung(self, inputs):
        landing = _climb([("cpu", Rung(output=np.full(4, np.nan)))], inputs)
        assert landing.degraded
        assert landing.failures[0][1].diagnostic.code == ErrorCode.KERNEL_NAN

    def test_caller_error_raises_at_once(self, inputs):
        rung = Rung(_query_nan())
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1))
        with pytest.raises(ExecutionError):
            _climb(
                [("cpu", rung), ("other", Rung())],
                inputs,
                retry=RetryPolicy(max_retries=3),
                breaker=breaker,
            )
        assert rung.calls == 1
        assert breaker.state == CircuitBreaker.CLOSED


class TestDeadlines:
    def test_deadline_is_never_retried(self, inputs):
        rung = Rung(DeadlineError("too slow"))
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1))
        with pytest.raises(DeadlineError):
            _climb(
                [("cpu", rung)],
                inputs,
                retry=RetryPolicy(max_retries=3),
                breaker=breaker,
            )
        assert rung.calls == 1
        assert breaker.state == CircuitBreaker.CLOSED  # slow is not defective

    def test_backoff_past_deadline_raises_chained_to_the_fault(self, inputs):
        fault = ValueError("broken")
        policy = RetryPolicy(max_retries=5, backoff_base=0.5, jitter=0.0)
        before = time.monotonic()
        with pytest.raises(DeadlineError) as excinfo:
            _climb(
                [("cpu", Rung(fault))],
                inputs,
                retry=policy,
                deadline=time.monotonic() + 0.05,
            )
        assert excinfo.value.__cause__ is fault
        # It gave up promptly, not after the full 0.5 s backoff.
        assert time.monotonic() - before < 0.4

    def test_expired_deadline_skips_every_rung(self, inputs):
        rung = Rung()
        with pytest.raises(DeadlineError):
            _climb([("cpu", rung)], inputs, deadline=time.monotonic() - 0.1)
        assert rung.calls == 0


class TestBreaker:
    def test_failure_charges_the_breaker_once(self, inputs):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        _climb(
            [("cpu", Rung(RuntimeError("a"), RuntimeError("b")))],
            inputs,
            retry=RetryPolicy(max_retries=1),
            breaker=breaker,
        )
        assert breaker.describe()["consecutive_failures"] == 1

    def test_open_breaker_short_circuits_to_reference(self, inputs):
        breaker = CircuitBreaker(BreakerConfig(cooldown_s=60.0))
        breaker.force_open()
        rung = Rung()
        landing = _climb([("cpu", rung)], inputs, breaker=breaker)
        assert landing.short_circuited and landing.degraded
        assert rung.calls == 0

    def test_success_closes_a_half_open_breaker(self, inputs):
        breaker = CircuitBreaker(BreakerConfig(cooldown_s=0.0))
        breaker.force_open()
        landing = _climb([("cpu", Rung())], inputs, breaker=breaker)
        assert not landing.degraded
        assert breaker.state == CircuitBreaker.CLOSED


class TestRules:
    def test_conditional_nan_is_an_answer_not_a_defect(self):
        query = ConditionalProbability(query_variables=(0,))
        check_kernel_output(np.array([np.nan]), query, "cpu")  # no raise
        with pytest.raises(ExecutionError, match="cpu kernel"):
            check_kernel_output(np.array([np.nan]), JOINT, "cpu")

    def test_only_query_nan_is_a_caller_error(self):
        assert is_caller_error(_query_nan())
        assert not is_caller_error(RuntimeError("kernel crash"))

    def test_reference_rung_is_multi_head_and_linear_aware(self, inputs):
        spns = [make_gaussian_spn(), make_gaussian_spn()]
        heads = reference_output(spns, inputs, JOINT, use_log_space=False)
        expected = np.exp(log_likelihood(spns[0], inputs))
        assert heads.shape == (2, inputs.shape[0])
        np.testing.assert_allclose(heads[1], expected, rtol=1e-12)
