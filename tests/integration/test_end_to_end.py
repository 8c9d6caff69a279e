"""Integration tests: full application pipelines end to end."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import CPUCompiler, GPUCompiler
from repro.compiler import CompilerOptions, compile_spn
from repro.data import (
    SpeakerDatasetConfig,
    generate_speaker_dataset,
    train_speaker_spns,
)
from repro.spn import (
    GraphStatistics,
    JointProbability,
    RatSpnConfig,
    build_rat_spn,
    classify,
    log_likelihood,
    serialize,
    deserialize,
)

from repro.testing.generators import random_spns


@pytest.fixture(scope="module")
def speaker_setup():
    config = SpeakerDatasetConfig(
        num_speakers=3,
        train_samples_per_speaker=250,
        clean_samples=120,
        noisy_samples=120,
        seed=3,
    )
    dataset = generate_speaker_dataset(config)
    spns = train_speaker_spns(dataset)
    return dataset, spns


class TestSpeakerIdentification:
    """Application 1: the paper's speaker-ID workflow (Section V-A)."""

    def test_learned_spns_have_paper_like_shape(self, speaker_setup):
        _, spns = speaker_setup
        for spn in spns:
            stats = GraphStatistics(spn)
            assert stats.num_features == 26
            assert stats.gaussian_share > 0.3

    @pytest.mark.parametrize(
        "options",
        [
            CompilerOptions(),
            CompilerOptions(vectorize="lanes", superword_factor=4),
            CompilerOptions(target="gpu"),
        ],
        ids=["cpu-scalar", "cpu-vectorized", "gpu"],
    )
    def test_compiled_clean_classification_matches_reference(
        self, speaker_setup, options
    ):
        dataset, spns = speaker_setup
        reference = classify(spns, dataset.clean.astype(np.float64))
        compiled_scores = np.stack(
            [
                compile_spn(spn, JointProbability(batch_size=64), options).executable(
                    dataset.clean
                )
                for spn in spns
            ],
            axis=1,
        )
        predictions = np.argmax(compiled_scores, axis=1)
        # f32 kernels may flip ties; demand near-perfect agreement.
        agreement = (predictions == reference).mean()
        assert agreement > 0.99

    def test_noisy_marginalized_pipeline(self, speaker_setup):
        dataset, spns = speaker_setup
        query = JointProbability(batch_size=64, support_marginal=True)
        for spn in spns[:1]:
            ref = log_likelihood(spn, dataset.noisy.astype(np.float64))
            for options in (
                CompilerOptions(),
                CompilerOptions(vectorize="lanes", superword_factor=4),
                CompilerOptions(target="gpu"),
            ):
                out = compile_spn(spn, query, options).executable(dataset.noisy)
                np.testing.assert_allclose(out, ref, rtol=5e-3, atol=5e-4)

    def test_serialization_hand_off(self, speaker_setup):
        dataset, spns = speaker_setup
        payload = serialize(spns[0], JointProbability(batch_size=64))
        restored, query = deserialize(payload)
        ref = log_likelihood(spns[0], dataset.clean[:32].astype(np.float64))
        out = compile_spn(restored, query).executable(dataset.clean[:32])
        np.testing.assert_allclose(out, ref, rtol=5e-3, atol=5e-4)


class TestRatSpnPipeline:
    """Application 2: RAT-SPN compilation stress (Section V-B, scaled)."""

    @pytest.fixture(scope="class")
    def rat(self):
        return build_rat_spn(
            RatSpnConfig(
                num_features=16,
                num_classes=2,
                depth=2,
                num_repetitions=3,
                num_sums=3,
                num_input_distributions=2,
                seed=9,
            )
        )

    def test_partitioned_cpu_and_gpu_agree(self, rat, rng):
        spn = rat[0]
        x = rng.normal(size=(64, 16)).astype(np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        cpu = compile_spn(
            spn,
            JointProbability(batch_size=32),
            CompilerOptions(max_partition_size=60, vectorize="lanes", superword_factor=4),
        )
        gpu = compile_spn(
            spn,
            JointProbability(batch_size=32),
            CompilerOptions(target="gpu", max_partition_size=60),
        )
        assert cpu.num_tasks > 1
        np.testing.assert_allclose(cpu.executable(x), ref, rtol=5e-3, atol=5e-4)
        np.testing.assert_allclose(gpu.executable(x), ref, rtol=5e-3, atol=5e-4)

    def test_ten_class_compilation(self, rat, rng):
        x = rng.normal(size=(32, 16)).astype(np.float32)
        compiler = CPUCompiler(batch_size=32)
        scores = np.stack(
            [compiler.log_likelihood(spn, x) for spn in rat], axis=1
        )
        expected = np.stack(
            [log_likelihood(spn, x.astype(np.float64)) for spn in rat], axis=1
        )
        np.testing.assert_allclose(scores, expected, rtol=5e-3, atol=5e-4)


class TestPropertyCompiledEqualsReference:
    """Property: for random valid SPNs, every backend equals the oracle."""

    @settings(max_examples=15, deadline=None)
    @given(random_spns())
    def test_cpu_scalar(self, spn_and_features):
        spn, num_features = spn_and_features
        rng = np.random.default_rng(21)
        x = rng.uniform(0.0, 1.9, size=(9, num_features)).astype(np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        out = compile_spn(spn, JointProbability(batch_size=4)).executable(x)
        np.testing.assert_allclose(out, ref, rtol=5e-3, atol=5e-4)

    @settings(max_examples=10, deadline=None)
    @given(random_spns())
    def test_cpu_vectorized(self, spn_and_features):
        spn, num_features = spn_and_features
        rng = np.random.default_rng(22)
        x = rng.uniform(0.0, 1.9, size=(11, num_features)).astype(np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        out = compile_spn(
            spn,
            JointProbability(batch_size=4),
            CompilerOptions(vectorize="lanes", superword_factor=1),
        ).executable(x)
        np.testing.assert_allclose(out, ref, rtol=5e-3, atol=5e-4)

    @settings(max_examples=10, deadline=None)
    @given(random_spns())
    def test_gpu(self, spn_and_features):
        spn, num_features = spn_and_features
        rng = np.random.default_rng(23)
        x = rng.uniform(0.0, 1.9, size=(9, num_features)).astype(np.float32)
        ref = log_likelihood(spn, x.astype(np.float64))
        out = compile_spn(
            spn, JointProbability(batch_size=4), CompilerOptions(target="gpu")
        ).executable(x)
        np.testing.assert_allclose(out, ref, rtol=5e-3, atol=5e-4)
