"""Regenerate the frozen model fixtures under ``models/``.

    PYTHONPATH=src python benchmarks/ledger/make_models.py

This is the only ledger file that imports data generation and learning
code; the benchmark itself loads the committed bytes and checks their
hashes. The settings repeat ``benchmarks/common.py``'s
``speaker_workload()`` / ``rat_workload()`` at scale 1.0 (written out
here so that the figure scripts can change without moving the ledger).
Regenerating changes the hashes whenever learning changes: commit the
new files and manifest together and re-measure the baseline.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.compiler.frontend import build_hispn_module
from repro.data import (
    ImageDatasetConfig,
    SpeakerDatasetConfig,
    generate_image_dataset,
    generate_speaker_dataset,
    train_speaker_spns,
)
from repro.spn import LearnSPNOptions, RatSpnConfig, build_rat_spn, train_rat_spn
from repro.spn.nodes import topological_order
from repro.spn.query import JointProbability
from repro.spn.serialization import serialize

MODELS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models")


def _speaker_models():
    dataset = generate_speaker_dataset(
        SpeakerDatasetConfig(
            num_speakers=3,
            train_samples_per_speaker=2500,
            clean_samples=8192,
            noisy_samples=16384,
            noise_missing_fraction=0.3,
            seed=17,
        )
    )
    spns = train_speaker_spns(
        dataset,
        LearnSPNOptions(min_instances=10, independence_threshold=0.28, max_depth=20),
    )
    query = JointProbability(batch_size=8192, input_dtype="f64")
    models = {f"speaker{i}": (spn, query) for i, spn in enumerate(spns)}
    return models, dataset.clean


def _rat_models():
    images = generate_image_dataset(
        ImageDatasetConfig(
            num_classes=4, side=8, train_per_class=150, test_samples=2048, seed=23
        )
    )
    query = JointProbability(batch_size=1024, input_dtype="f64")

    def class_roots(num_repetitions):
        roots = build_rat_spn(
            RatSpnConfig(
                num_features=64,
                num_classes=4,
                depth=3,
                num_repetitions=num_repetitions,
                num_sums=6,
                num_input_distributions=3,
                seed=2,
            )
        )
        train_rat_spn(roots, images.train, images.train_labels, em_iterations=2)
        return roots

    models = {f"rat{i}": (root, query) for i, root in enumerate(class_roots(4))}
    # One class root three times the size, compiled once by the traced
    # ``rat_compile`` run to fit the growth of each pass.
    models["rat_growth"] = (class_roots(12)[0], query)
    return models, images.test


def main() -> None:
    os.makedirs(MODELS_DIR, exist_ok=True)
    manifest = {"families": {}, "models": {}}
    for family, (models, sample) in (
        ("speaker", _speaker_models()),
        ("rat", _rat_models()),
    ):
        sample = np.asarray(sample, dtype=np.float64)
        manifest["families"][family] = {
            "num_features": int(sample.shape[1]),
            "mean": [float(v) for v in sample.mean(axis=0)],
            "std": [float(v) for v in sample.std(axis=0)],
        }
        for name, (root, query) in models.items():
            payload = serialize(root, query)
            with open(os.path.join(MODELS_DIR, f"{name}.spnb"), "wb") as handle:
                handle.write(payload)
            manifest["models"][name] = {
                "family": family,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
                "nodes": len(topological_order(root)),
                "hispn_ops": sum(1 for _ in build_hispn_module(root, query).walk()),
            }
            print(name, manifest["models"][name])
    with open(os.path.join(MODELS_DIR, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
