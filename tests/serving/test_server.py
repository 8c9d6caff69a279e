"""End-to-end serving tests: batching, degradation, deadlines, swap.

The fault-injection scenarios assert the robustness contract from the
server's docstring: every admitted request gets exactly one terminal
outcome, results are either correct or clearly marked degraded (never
silently wrong), and the degradation ladder recovers once faults clear.
"""

import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.diagnostics import AdmissionError, DeadlineError, ExecutionError
from repro.runtime import RetryPolicy
from repro.serving import (
    BreakerConfig,
    CircuitBreaker,
    InferenceServer,
    ModelNotFoundError,
    ServerConfig,
)
from repro.serving.loadgen import poisson_load
from repro.spn import Gaussian, Product, log_likelihood
from repro.testing import faults

from ..conftest import make_gaussian_spn


def _config(**overrides):
    base = dict(
        max_batch=64,
        max_wait_us=1000,
        queue_capacity=64,
        retry=RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0),
        breaker=BreakerConfig(failure_threshold=1, cooldown_s=0.05),
        drain_timeout_s=5.0,
    )
    base.update(overrides)
    return ServerConfig(**base)


@pytest.fixture
def server():
    with InferenceServer(config=_config()) as srv:
        srv.publish("m", make_gaussian_spn(), batch_size=16)
        yield srv


class TestBasicServing:
    def test_results_match_reference(self, server, rng):
        spn = make_gaussian_spn()
        inputs = rng.normal(size=(8, 2))
        futures = [server.submit("m", row) for row in inputs]
        wait(futures, timeout=10.0)
        reference = log_likelihood(spn, inputs)
        for index, future in enumerate(futures):
            result = future.result()
            assert not result.degraded
            np.testing.assert_allclose(
                result.values, reference[index : index + 1], atol=1e-5, rtol=1e-5
            )

    def test_single_row_infer_squeezes(self, server, rng):
        row = rng.normal(size=2)
        value = server.infer("m", row, timeout_s=5.0)
        assert np.ndim(value) == 0

    def test_requests_coalesce_into_batches(self, rng):
        # Stall the worker with the first request, pile up more, and
        # check the histogram records a multi-request batch.
        config = _config(max_wait_us=30_000)
        with InferenceServer(config=config) as server:
            server.publish("m", make_gaussian_spn(), batch_size=16)
            futures = [
                server.submit("m", row) for row in rng.normal(size=(12, 2))
            ]
            wait(futures, timeout=10.0)
            histogram = server.health()["models"]["m"]["batch_size_histogram"]
            assert max(histogram) > 1  # some batch had > 1 row

    def test_unknown_model_rejected(self, server, rng):
        with pytest.raises(ModelNotFoundError):
            server.submit("ghost", rng.normal(size=2))

    def test_shape_validation(self, server, rng):
        with pytest.raises(ValueError):
            server.submit("m", rng.normal(size=(4, 7)))

    def test_health_snapshot_schema(self, server, rng):
        server.infer("m", rng.normal(size=2), timeout_s=5.0)
        health = server.health()
        assert health["status"] == "ok"
        model = health["models"]["m"]
        assert model["queue_capacity"] == 64
        assert model["breaker"]["state"] == CircuitBreaker.CLOSED
        assert model["outcomes"]["ok"] >= 1
        assert model["lost"] == 0
        assert "p99" in model["latency_ms"]


class TestDegradationLadder:
    def test_kernel_failure_degrades_to_interpreter(self, server, rng):
        spn = make_gaussian_spn()
        inputs = rng.normal(size=(4, 2))
        with faults.inject_kernel_failure():
            results = [
                server.submit("m", row).result(timeout=10.0) for row in inputs
            ]
        reference = log_likelihood(spn, inputs)
        for index, result in enumerate(results):
            assert result.degraded  # marked, not silent
            np.testing.assert_allclose(
                result.values, reference[index : index + 1], atol=1e-12
            )
        breaker = server.health()["models"]["m"]["breaker"]
        assert breaker["trip_count"] >= 1

    def test_transient_fault_is_retried_on_the_kernel(self, server, rng):
        # One fault, one retry: the kernel itself answers, so nothing is
        # degraded and the breaker is never charged.
        with faults.inject_kernel_failure(times=1) as fault:
            result = server.submit("m", rng.normal(size=2)).result(timeout=10.0)
        assert fault.fired == 1
        assert result.degraded is False
        stats = server.health()["models"]["m"]
        assert stats["retries"] == 1
        assert stats["breaker"]["state"] == CircuitBreaker.CLOSED

    def test_nan_poisoning_detected_and_degraded(self, server, rng):
        spn = make_gaussian_spn()
        row = rng.normal(size=2)
        with faults.inject_kernel_nan():
            result = server.submit("m", row).result(timeout=10.0)
        assert result.degraded
        assert np.isfinite(result.values).all()
        np.testing.assert_allclose(
            result.values,
            log_likelihood(spn, row.reshape(1, -1)),
            atol=1e-12,
        )

    def test_breaker_recovers_after_faults_clear(self, server, rng):
        row = rng.normal(size=2)
        with faults.inject_kernel_failure():
            server.submit("m", row).result(timeout=10.0)
        assert server.health()["models"]["m"]["breaker"]["state"] != "closed"
        time.sleep(0.06)  # past the cooldown -> half-open probe allowed
        result = server.submit("m", row).result(timeout=10.0)
        assert not result.degraded  # the probe went through the kernel
        assert server.health()["models"]["m"]["breaker"]["state"] == "closed"

    def test_open_breaker_short_circuits_without_kernel_calls(self, server, rng):
        with faults.inject_kernel_failure():
            server.submit("m", rng.normal(size=2)).result(timeout=10.0)
        # Immediately after the trip (cooldown not elapsed): requests are
        # served degraded without touching the kernel.
        result = server.submit("m", rng.normal(size=2)).result(timeout=10.0)
        assert result.degraded
        stats = server.health()["models"]["m"]
        assert stats["breaker_short_circuits"] >= 1


class TestDeadlines:
    def test_infeasible_deadline_rejected_at_submit(self, server, rng):
        with pytest.raises(DeadlineError):
            server.submit("m", rng.normal(size=2), timeout_s=0.0)
        assert server.health()["models"]["m"]["outcomes"]["expired"] == 1
        assert server.health()["models"]["m"]["lost"] == 0

    def test_slow_kernel_hits_deadline(self, rng):
        config = _config(retry=RetryPolicy())
        with InferenceServer(config=config) as server:
            server.publish("m", make_gaussian_spn(), batch_size=16)
            with faults.inject_slow_chunks(0.2):
                future = server.submit("m", rng.normal(size=2), timeout_s=0.05)
                with pytest.raises(DeadlineError):
                    future.result(timeout=10.0)
            assert server.health()["models"]["m"]["lost"] == 0

    def test_expired_while_queued_gets_deadline_outcome(self, rng):
        # One slow batch in front; the second request's deadline lapses
        # while it waits in the queue. Its outcome must arrive promptly
        # even though no further live traffic follows (regression: the
        # batcher once blocked for the next live request while holding
        # drained expiries).
        config = _config(max_wait_us=0, retry=RetryPolicy())
        with InferenceServer(config=config) as server:
            server.publish("m", make_gaussian_spn(), batch_size=16)
            with faults.inject_slow_chunks(0.15):
                blocker = server.submit("m", rng.normal(size=2))
                time.sleep(0.02)  # let the worker start the slow batch
                doomed = server.submit("m", rng.normal(size=2), timeout_s=0.05)
                with pytest.raises(DeadlineError):
                    doomed.result(timeout=5.0)
            blocker.result(timeout=10.0)
            outcomes = server.health()["models"]["m"]["outcomes"]
            assert outcomes["expired"] == 1
            assert server.health()["models"]["m"]["lost"] == 0


class TestBackpressure:
    def test_queue_overflow_rejected_with_retry_hint(self, rng):
        config = _config(queue_capacity=2, max_wait_us=0, retry=RetryPolicy())
        with InferenceServer(config=config) as server:
            server.publish("m", make_gaussian_spn(), batch_size=16)
            accepted, rejected = [], []
            with faults.inject_slow_chunks(0.1):
                for row in rng.normal(size=(12, 2)):
                    try:
                        accepted.append(server.submit("m", row))
                    except AdmissionError as error:
                        rejected.append(error)
            assert rejected, "overload must shed load synchronously"
            assert all(e.retry_after_s > 0 for e in rejected)
            wait(accepted, timeout=10.0)
            stats = server.health()["models"]["m"]
            assert stats["outcomes"]["rejected"] == len(rejected)
            assert stats["lost"] == 0

    def test_submit_after_close_rejected(self, rng):
        server = InferenceServer(config=_config())
        server.publish("m", make_gaussian_spn(), batch_size=16)
        server.close()
        with pytest.raises(AdmissionError):
            server.submit("m", rng.normal(size=2))


class TestHotSwap:
    def test_swap_under_load_drops_nothing(self, rng):
        spn = make_gaussian_spn()
        config = _config(max_wait_us=500)
        with InferenceServer(config=config) as server:
            server.publish("m", spn, batch_size=16)
            inputs = rng.normal(size=(40, 2))
            futures = []
            for index, row in enumerate(inputs):
                futures.append(server.submit("m", row))
                if index == 20:
                    server.swap("m", spn, batch_size=16)
            done, not_done = wait(futures, timeout=15.0)
            assert not not_done
            reference = log_likelihood(spn, inputs)
            versions = set()
            for index, future in enumerate(futures):
                result = future.result()
                versions.add(result.model_version)
                np.testing.assert_allclose(
                    result.values,
                    reference[index : index + 1],
                    atol=1e-5,
                    rtol=1e-5,
                )
            assert server.health()["models"]["m"]["lost"] == 0
            # New traffic reached the new version.
            assert server.registry.current("m").version == 2

    def test_unload_then_submit_rejected(self, server, rng):
        server.unload("m")
        with pytest.raises(ModelNotFoundError):
            server.submit("m", rng.normal(size=2))


class TestWorkerResilience:
    """Regressions: the batcher worker must survive cancellation races
    and schema-mixed queues — a dead worker strands every future
    behind it and silently breaks the one-terminal-outcome invariant."""

    def test_client_cancelled_request_skipped_and_accounted(self, rng):
        config = _config(max_wait_us=0, retry=RetryPolicy())
        with InferenceServer(config=config) as server:
            server.publish("m", make_gaussian_spn(), batch_size=16)
            with faults.inject_slow_chunks(0.1):
                blocker = server.submit("m", rng.normal(size=2))
                time.sleep(0.02)  # let the worker enter the slow batch
                doomed = server.submit("m", rng.normal(size=2))
                assert doomed.cancel()  # client walked away while queued
            blocker.result(timeout=10.0)
            # The worker survived the cancelled future and still serves.
            value = server.infer("m", rng.normal(size=2), timeout_s=5.0)
            assert np.isfinite(value)
            stats = server.health()["models"]["m"]
            assert stats["outcomes"]["cancelled"] == 1
            assert stats["lost"] == 0

    def test_swap_changing_width_fails_stranded_requests_cleanly(self, rng):
        # A hot swap that changes num_features while old-width requests
        # sit queued used to make DynamicBatcher.concat raise inside
        # the worker loop, killing the worker. The stranded requests
        # must instead fail cleanly and new-width traffic keep flowing.
        wider = Product(
            [Gaussian(0, 0.0, 1.0), Gaussian(1, 0.0, 1.0), Gaussian(2, 0.0, 1.0)]
        )
        config = _config(max_wait_us=0, retry=RetryPolicy())
        with InferenceServer(config=config) as server:
            server.publish("m", make_gaussian_spn(), batch_size=16)
            with faults.inject_slow_chunks(0.1):
                blocker = server.submit("m", rng.normal(size=2))
                time.sleep(0.02)
                stranded = server.submit("m", rng.normal(size=2))  # old width
                server.swap("m", wider, batch_size=16)  # now 3 features
                fresh = server.submit("m", rng.normal(size=3))
            blocker.result(timeout=10.0)
            with pytest.raises(ExecutionError):
                stranded.result(timeout=10.0)
            assert not fresh.result(timeout=10.0).degraded
            stats = server.health()["models"]["m"]
            assert stats["lost"] == 0
            # The worker is still alive and serving the new schema.
            server.infer("m", rng.normal(size=3), timeout_s=5.0)

    def test_submit_racing_queue_close_maps_to_admission_error(self, rng):
        # Simulates close()/unload() winning the race between submit's
        # closed check and the queue offer: the caller must see the
        # structured AdmissionError, not a bare RuntimeError.
        server = InferenceServer(config=_config())
        try:
            server.publish("m", make_gaussian_spn(), batch_size=16)
            server._models["m"].queue.close(flush=False)
            with pytest.raises(AdmissionError) as excinfo:
                server.submit("m", rng.normal(size=2))
            assert excinfo.value.retry_after_s > 0
        finally:
            server.close()


class TestFaultInjectedLoad:
    """The headline invariant: chaos in the middle, zero lost requests."""

    def test_no_request_lost_under_kernel_chaos(self, rng):
        spn = make_gaussian_spn()
        rows = rng.normal(size=(64, 2))
        config = _config(queue_capacity=256)
        with InferenceServer(config=config) as server:
            server.publish("m", spn, batch_size=16)

            def chaos():
                time.sleep(0.15)
                with faults.inject_kernel_failure():
                    time.sleep(0.15)

            chaos_thread = threading.Thread(target=chaos)
            chaos_thread.start()
            report = poisson_load(
                server, "m", rows,
                rate_qps=300.0, duration_s=0.5, seed=3, timeout_s=2.0,
            )
            chaos_thread.join()
            assert report["lost"] == 0
            assert report["outcomes"]["failed"] == 0
            assert report["outcomes"]["ok"] > 0
            assert server.health()["totals"]["lost"] == 0
            # The chaos window really exercised the degraded rung.
            assert report["degraded"] > 0

    def test_drain_close_settles_every_pending_request(self, rng):
        config = _config(max_wait_us=0, retry=RetryPolicy())
        server = InferenceServer(config=config)
        server.publish("m", make_gaussian_spn(), batch_size=16)
        with faults.inject_slow_chunks(0.05):
            futures = [
                server.submit("m", row) for row in rng.normal(size=(6, 2))
            ]
            server.close(drain=True)
        done, not_done = wait(futures, timeout=5.0)
        assert not not_done  # each future settled (result or error)
        assert server.stats.lost() == 0
