"""Model registry: versioning, leases, drain-before-unload, hot swap."""

import threading
import time

import numpy as np
import pytest

from repro.api import CPUCompiler
from repro.diagnostics import ErrorCode
from repro.runtime.ladder import reference_output
from repro.serving import ModelNotFoundError, ModelRegistry
from repro.spn import JointProbability, log_likelihood

from ..conftest import make_discrete_spn, make_gaussian_spn


class TestPublish:
    def test_publish_and_execute(self, rng):
        registry = ModelRegistry()
        spn = make_gaussian_spn()
        version = registry.publish("m", spn, batch_size=16)
        inputs = rng.normal(size=(32, 2))
        outputs = version.executable(inputs)
        np.testing.assert_allclose(
            outputs, log_likelihood(spn, inputs), atol=1e-5, rtol=1e-5
        )
        registry.close()

    def test_versions_auto_increment(self):
        registry = ModelRegistry()
        spn = make_gaussian_spn()
        v1 = registry.publish("m", spn, batch_size=16)
        v2 = registry.publish("m", spn, batch_size=16)
        assert (v1.version, v2.version) == (1, 2)
        assert registry.current("m") is v2
        assert v2.previous is v1
        registry.retire(v1)
        registry.close()

    def test_swap_requires_existing_name(self):
        registry = ModelRegistry()
        with pytest.raises(ModelNotFoundError):
            registry.swap("ghost", make_gaussian_spn())

    def test_swap_emits_diagnostic(self):
        registry = ModelRegistry()
        spn = make_gaussian_spn()
        registry.publish("m", spn, batch_size=16)
        old = registry.current("m")
        registry.swap("m", spn, batch_size=16)
        notes = registry.diagnostics.by_code(ErrorCode.MODEL_SWAPPED)
        assert len(notes) == 1
        registry.retire(old)
        registry.close()

    def test_fingerprint_identifies_configuration(self):
        registry = ModelRegistry()
        spn = make_gaussian_spn()
        a = registry.publish("a", spn, batch_size=16)
        b = registry.publish("b", spn, batch_size=16)
        c = registry.publish("c", spn, batch_size=64)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        registry.close()

    def test_compiler_instance_and_options_are_exclusive(self):
        registry = ModelRegistry()
        with pytest.raises(ValueError):
            registry.publish(
                "m",
                make_gaussian_spn(),
                compiler=CPUCompiler(batch_size=16),
                batch_size=32,
            )

    def test_interpret_matches_reference(self, rng):
        registry = ModelRegistry()
        spn = make_discrete_spn()
        version = registry.publish("m", spn, batch_size=16)
        inputs = np.column_stack(
            [rng.integers(0, 3, size=16), rng.integers(0, 4, size=16)]
        ).astype(np.float64)
        np.testing.assert_allclose(
            reference_output(version.spn, inputs, JointProbability()),
            log_likelihood(spn, inputs),
            atol=1e-12,
        )
        registry.close()


class TestLeases:
    def test_acquire_release_counts(self):
        registry = ModelRegistry()
        registry.publish("m", make_gaussian_spn(), batch_size=16)
        version = registry.acquire("m")
        assert version.leases == 1
        version.release()
        assert version.leases == 0
        registry.close()

    def test_acquire_unknown_raises(self):
        registry = ModelRegistry()
        with pytest.raises(ModelNotFoundError):
            registry.acquire("ghost")

    def test_retire_waits_for_lease(self):
        registry = ModelRegistry()
        registry.publish("m", make_gaussian_spn(), batch_size=16)
        version = registry.acquire("m")
        retired = []

        def retire():
            retired.append(registry.retire(version, drain_timeout=5.0))

        thread = threading.Thread(target=retire)
        thread.start()
        time.sleep(0.03)
        assert not version.retired  # still draining: the lease is held
        version.release()
        thread.join()
        assert retired == [True]
        assert version.retired

    def test_retire_timeout_leaves_version_open(self):
        registry = ModelRegistry()
        registry.publish("m", make_gaussian_spn(), batch_size=16)
        version = registry.acquire("m")
        assert registry.retire(version, drain_timeout=0.02) is False
        assert not version.retired
        version.release()
        assert registry.retire(version, drain_timeout=1.0) is True

    def test_swap_does_not_disturb_inflight_lease(self, rng):
        """The lease pin: a batch started on v1 finishes on v1 even
        after v2 takes over routing."""
        registry = ModelRegistry()
        spn = make_gaussian_spn()
        registry.publish("m", spn, batch_size=16)
        v1 = registry.acquire("m")
        registry.swap("m", spn, batch_size=16)
        assert registry.current("m").version == 2
        # v1 still usable under its lease.
        inputs = rng.normal(size=(16, 2))
        np.testing.assert_allclose(
            v1.executable(inputs), log_likelihood(spn, inputs), atol=1e-5, rtol=1e-5
        )
        v1.release()
        registry.retire(v1, drain_timeout=1.0)
        registry.close()


class TestUnload:
    def test_unload_removes_and_closes(self):
        registry = ModelRegistry()
        registry.publish("m", make_gaussian_spn(), batch_size=16)
        version = registry.current("m")
        assert registry.unload("m") is True
        assert version.retired
        with pytest.raises(ModelNotFoundError):
            registry.current("m")

    def test_unload_unknown_raises(self):
        registry = ModelRegistry()
        with pytest.raises(ModelNotFoundError):
            registry.unload("ghost")

    def test_close_unloads_everything(self):
        registry = ModelRegistry()
        registry.publish("a", make_gaussian_spn(), batch_size=16)
        registry.publish("b", make_gaussian_spn(), batch_size=16)
        registry.close()
        assert registry.names() == []
