"""Compiled-kernel cache: weakref identity, fingerprints, eviction."""

import gc
import time

import numpy as np
import pytest

from repro import CPUCompiler, GPUCompiler, OptionsError
from repro.spn import JointProbability, log_likelihood

from ..conftest import make_gaussian_spn


class TestCacheHits:
    def test_repeated_calls_compile_once(self, rng):
        compiler = CPUCompiler(batch_size=32)
        spn = make_gaussian_spn()
        first = compiler.compile(spn)
        second = compiler.compile(spn)
        assert first is second

    def test_different_query_recompiles(self):
        compiler = CPUCompiler(batch_size=32)
        spn = make_gaussian_spn()
        first = compiler.compile(spn, JointProbability(batch_size=32))
        second = compiler.compile(spn, JointProbability(batch_size=64))
        assert first is not second
        # Both remain cached under their own fingerprint.
        assert compiler.compile(spn, JointProbability(batch_size=32)) is first

    def test_marginal_flag_is_part_of_the_key(self):
        compiler = CPUCompiler(batch_size=32)
        spn = make_gaussian_spn()
        joint = compiler.compile(spn, JointProbability(batch_size=32))
        marginal = compiler.compile(
            spn, JointProbability(batch_size=32, support_marginal=True)
        )
        assert joint is not marginal

    def test_list_of_spns_cached(self):
        compiler = CPUCompiler(batch_size=32)
        spns = [make_gaussian_spn(), make_gaussian_spn()]
        first = compiler.compile(spns)
        second = compiler.compile(spns)
        assert first is second


class TestVectorizationFingerprint:
    """The full vectorization configuration is part of the cache key."""

    def test_mode_change_recompiles(self):
        spn = make_gaussian_spn()
        query = JointProbability(batch_size=32)
        compilers = {
            mode: CPUCompiler(batch_size=32, vectorize=mode)
            for mode in ("off", "lanes", "batch")
        }
        prints = {m: c._fingerprint(query, "cpu") for m, c in compilers.items()}
        assert len(set(prints.values())) == 3
        # The kernels are genuinely different, not just distinct keys.
        by_mode = {m: c.compile(spn) for m, c in compilers.items()}
        assert "for " not in by_mode["batch"].executable.source
        assert "for " in by_mode["off"].executable.source

    def test_default_and_explicit_mode_share_an_entry(self):
        query = JointProbability(batch_size=32)
        assert CPUCompiler(batch_size=32)._fingerprint(
            query, "cpu"
        ) == CPUCompiler(batch_size=32, vectorize="batch")._fingerprint(
            query, "cpu"
        )

    def test_bool_spelling_is_refused_at_compile(self):
        compiler = CPUCompiler(batch_size=32, vectorize=True)
        with pytest.raises(OptionsError, match="unknown vectorize mode"):
            compiler.compile(make_gaussian_spn())
        assert not compiler._cache

    def test_width_and_veclib_changes_recompile(self):
        query = JointProbability(batch_size=32)
        prints = {
            CPUCompiler(
                batch_size=32, vectorize="lanes", **kwargs
            )._fingerprint(query, "cpu")
            for kwargs in (
                {"vector_isa": "avx2"},
                {"vector_isa": "avx512"},
                {"use_vector_library": False},
            )
        }
        assert len(prints) == 3


class TestWeakrefEviction:
    def test_entry_evicted_when_model_collected(self):
        compiler = CPUCompiler(batch_size=32)
        spn = make_gaussian_spn()
        compiler.compile(spn)
        assert len(compiler._cache) == 1
        del spn
        gc.collect()
        assert len(compiler._cache) == 0

    def test_recycled_id_cannot_hit_stale_entry(self, rng):
        # The classic id()-reuse hazard: compile model A, drop it, build
        # model B (which may land on the same id), and verify B's results
        # come from B's own kernel.
        compiler = CPUCompiler(batch_size=32)
        inputs = rng.normal(size=(16, 2))
        for _ in range(10):
            spn = make_gaussian_spn()
            out = compiler.log_likelihood(spn, inputs)
            reference = log_likelihood(spn, inputs)
            np.testing.assert_allclose(out, reference, atol=1e-5, rtol=1e-5)
            del spn
            gc.collect()
        assert len(compiler._cache) == 0

    def test_list_entry_evicted_when_any_member_dies(self):
        compiler = CPUCompiler(batch_size=32)
        keep = make_gaussian_spn()
        doomed = make_gaussian_spn()
        compiler.compile([keep, doomed])
        assert len(compiler._cache) == 1
        del doomed
        gc.collect()
        assert len(compiler._cache) == 0


class TestSimulatedSeconds:
    def test_single_spn_lookup(self, rng):
        compiler = GPUCompiler(batch_size=32)
        spn = make_gaussian_spn()
        compiler.log_likelihood(spn, rng.normal(size=(32, 2)))
        assert compiler.simulated_seconds(spn) > 0

    def test_list_of_spns_lookup(self, rng):
        # Previously a silent miss: the cache key for a list is the tuple
        # of ids, but simulated_seconds looked up id(list).
        compiler = GPUCompiler(batch_size=32)
        spns = [make_gaussian_spn(), make_gaussian_spn()]
        compiler.log_likelihood(spns, rng.normal(size=(32, 2)))
        assert compiler.simulated_seconds(spns) > 0

    def test_uncompiled_spn_raises(self):
        compiler = GPUCompiler(batch_size=32)
        with pytest.raises(RuntimeError):
            compiler.simulated_seconds(make_gaussian_spn())


class TestThreadSafety:
    """Concurrent compilation: lock-protected cache plus single-flight."""

    def test_concurrent_identical_compiles_run_once(self, monkeypatch):
        import threading

        import repro.api as api

        calls = []
        real_compile = api.compile_spn

        def counting_compile(spn, query, options):
            calls.append(threading.get_ident())
            time.sleep(0.02)  # widen the race window
            return real_compile(spn, query, options)

        monkeypatch.setattr(api, "compile_spn", counting_compile)
        compiler = CPUCompiler(batch_size=32)
        spn = make_gaussian_spn()
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(compiler.compile(spn))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Single-flight: one leader compiled, everyone shares the result.
        assert len(calls) == 1
        assert len(results) == 8
        assert all(result is results[0] for result in results)

    def test_failed_leader_propagates_to_followers_and_retries(self, monkeypatch):
        import threading

        import repro.api as api

        real_compile = api.compile_spn
        fail_first = [True]

        def flaky_compile(spn, query, options):
            if fail_first[0]:
                fail_first[0] = False
                time.sleep(0.02)
                raise ValueError("injected compile failure")
            return real_compile(spn, query, options)

        monkeypatch.setattr(api, "compile_spn", flaky_compile)
        compiler = CPUCompiler(batch_size=32)
        spn = make_gaussian_spn()
        errors, results = [], []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            try:
                results.append(compiler.compile(spn))
            except ValueError as error:
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The leader's failure reached every waiter of that flight...
        assert errors, "the injected failure must surface"
        # ...and was not cached: a later compile succeeds.
        assert compiler.compile(spn) is not None

    def test_concurrent_distinct_spns_all_cached(self):
        import threading

        compiler = CPUCompiler(batch_size=32)
        spns = [make_gaussian_spn() for _ in range(6)]
        barrier = threading.Barrier(6)

        def worker(spn):
            barrier.wait()
            compiler.compile(spn)

        threads = [threading.Thread(target=worker, args=(s,)) for s in spns]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(compiler._cache) == 6
        # Eviction still works: dropping the SPNs empties the cache.
        del spns, threads
        gc.collect()
        assert len(compiler._cache) == 0
