"""Oracle enforcement of the structure-suite accuracy budget.

The structure passes carry a semantic contract — CSE is exact,
prune stays within the accuracy budget over the modeled input
domain — and :meth:`DifferentialOracle.check_structure_case` /
``python -m repro fuzz --structure-opt`` are the machinery that
enforces it across the execution-configuration matrix. These tests
cover the clean path, the modeled-domain input projection, and the
injected-violation path (a deliberately unsound pruning bound must be
caught, shrunk and dumped as a reproducer).
"""

import numpy as np

from repro.spn import Gaussian, Histogram, JointProbability, Product, Sum
from repro.testing.generators import Case
from repro.testing.oracle import (
    DifferentialOracle,
    clamp_to_modeled_domain,
    DEFAULT_STRUCTURE_BUDGET,
)
from repro.tools.cli import main as cli_main


def _case(spn, inputs, num_features):
    return Case(
        seed=0,
        index=0,
        spn=spn,
        num_features=num_features,
        query=JointProbability(batch_size=inputs.shape[0]),
        inputs=inputs,
    )


def _bimodal_spn():
    return Sum(
        [Gaussian(0, -3.0, 0.5), Gaussian(0, 3.0, 0.5)], [0.95, 0.05]
    )


class TestClampToModeledDomain:
    def test_gaussian_features_clipped_to_six_sigma(self):
        spn = Product([Gaussian(0, 0.0, 1.0), Gaussian(1, 2.0, 0.5)])
        x = np.array([[100.0, -50.0], [0.5, 2.0]])
        clamped = clamp_to_modeled_domain(spn, x)
        np.testing.assert_allclose(clamped[0], [6.0, -1.0])
        np.testing.assert_allclose(clamped[1], [0.5, 2.0])

    def test_nan_evidence_passes_through(self):
        spn = Product([Gaussian(0, 0.0, 1.0), Gaussian(1, 0.0, 1.0)])
        x = np.array([[np.nan, 42.0]])
        clamped = clamp_to_modeled_domain(spn, x)
        assert np.isnan(clamped[0, 0])
        assert clamped[0, 1] == 6.0

    def test_histogram_edges_strictly_inside_in_f32(self):
        spn = Histogram(0, [0.0, 1.0, 2.0], [0.4, 0.6])
        x = np.array([[-5.0], [7.0]])
        clamped = clamp_to_modeled_domain(spn, x)
        low, high = clamped[0, 0], clamped[1, 0]
        assert 0.0 < low < high < 2.0
        # One f32 round-trip keeps the values strictly inside the range.
        assert 0.0 < np.float32(low) and np.float32(high) < np.float32(2.0)

    def test_dtype_preserved(self):
        spn = Gaussian(0, 0.0, 1.0)
        x = np.array([[30.0]], dtype=np.float32)
        assert clamp_to_modeled_domain(spn, x).dtype == np.float32


class TestCheckStructureCase:
    def test_clean_on_prunable_mixture(self, tmp_path, rng):
        case = _case(
            _bimodal_spn(),
            rng.normal(0.0, 4.0, size=(16, 1)).astype(np.float32),
            num_features=1,
        )
        oracle = DifferentialOracle(artifact_dir=str(tmp_path))
        divergences = oracle.check_structure_case(case, "cse,prune")
        assert divergences == []

    def test_support_covering_component_never_pruned(self, tmp_path, rng):
        # The 5% component is the only cover of the right mode; inputs
        # there would show log-likelihood collapse if it were dropped.
        case = _case(
            _bimodal_spn(),
            np.array([[3.0], [2.5], [-3.0]], dtype=np.float32),
            num_features=1,
        )
        oracle = DifferentialOracle(artifact_dir=str(tmp_path))
        assert oracle.check_structure_case(case, "prune") == []

    def test_unsound_prune_bound_is_caught(self, tmp_path, monkeypatch, rng):
        import repro.compiler.structure.prune as prune_mod

        # Sabotage the soundness gate: every drop looks free, so the
        # pass prunes the sole cover of category 1 and the likelihood
        # there collapses far past the budget. (Categorical features are
        # not subject to the modeled-domain input projection, so the
        # discriminating input survives enforcement.)
        monkeypatch.setattr(
            prune_mod, "sum_perturbation_bound", lambda *args: 0.0
        )
        from repro.spn import Categorical

        spn = Sum(
            [Categorical(0, [1.0, 0.0]), Categorical(0, [0.0, 1.0])],
            [0.95, 0.05],
        )
        case = _case(
            spn,
            np.array([[1.0], [0.0]], dtype=np.float32),
            num_features=1,
        )
        oracle = DifferentialOracle(artifact_dir=str(tmp_path))
        divergences = oracle.check_structure_case(case, "prune")
        assert divergences
        worst = divergences[0]
        assert "structure[prune]" in worst.config
        assert worst.reproducer_path is not None
        assert worst.max_gap > DEFAULT_STRUCTURE_BUDGET

    def test_cse_suite_checked_exactly(self, tmp_path, rng):
        shared = Product([Gaussian(0, 0.0, 1.0), Gaussian(1, 1.0, 2.0)])
        spn = Sum(
            [
                Product([Gaussian(0, 0.0, 1.0), Gaussian(1, 1.0, 2.0)]),
                shared,
            ],
            [0.5, 0.5],
        )
        case = _case(
            spn,
            rng.normal(0.0, 100.0, size=(8, 2)).astype(np.float32),
            num_features=2,
        )
        oracle = DifferentialOracle(artifact_dir=str(tmp_path))
        # Exact suite: no budget slack, arbitrary (unclamped) inputs.
        assert oracle.check_structure_case(case, "cse") == []


class TestStructureFuzz:
    def test_short_run_is_clean(self, tmp_path):
        oracle = DifferentialOracle(artifact_dir=str(tmp_path))
        report = oracle.fuzz_structure(4, seed=0)
        assert report.ok, report.summary()
        assert report.cases_run == 4
        assert report.configs_compared > 0

    def test_cli_entry_point(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPNC_ARTIFACT_DIR", str(tmp_path))
        code = cli_main(["fuzz", "2", "--seed", "0", "--structure-opt"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 divergence(s)" in out
