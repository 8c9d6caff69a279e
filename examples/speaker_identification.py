#!/usr/bin/env python
"""Application 1: robust automatic speaker identification (paper §V-A).

Reproduces the paper's first evaluation workflow end to end:

1. generate speech-like data for several speakers (26 features),
2. learn one SPN per speaker with LearnSPN (the SPFlow role),
3. compile each SPN for the CPU (vectorized) and the simulated GPU,
4. identify speakers on clean samples and on noisy samples with
   marginalized missing features, and
5. compare throughput against the SPFlow-style Python baseline.

Run:  python examples/speaker_identification.py
"""

import time

import numpy as np

from repro import CPUCompiler, GPUCompiler
from repro.baselines import log_likelihood_python
from repro.data import SpeakerDatasetConfig, generate_speaker_dataset, train_speaker_spns
from repro.spn import GraphStatistics


def identify(compiler, spns, samples, labels, name):
    for spn in spns:  # compile up front so the timing is execution only
        compiler.compile(spn)
    start = time.perf_counter()
    scores = np.stack([compiler.log_likelihood(spn, samples) for spn in spns], axis=1)
    elapsed = time.perf_counter() - start
    predictions = np.argmax(scores, axis=1)
    accuracy = (predictions == labels).mean()
    per_sample = elapsed / samples.shape[0] * 1e6
    print(
        f"  {name:18s} accuracy {accuracy:6.3f}   "
        f"{per_sample:8.2f} us/sample (wall, incl. all speakers)"
    )
    return accuracy


def main():
    print("generating speech-like data and training per-speaker SPNs ...")
    dataset = generate_speaker_dataset(
        SpeakerDatasetConfig(
            num_speakers=4,
            train_samples_per_speaker=800,
            clean_samples=4096,
            noisy_samples=4096,
            seed=5,
        )
    )
    spns = train_speaker_spns(dataset)
    for i, spn in enumerate(spns):
        stats = GraphStatistics(spn)
        print(
            f"  speaker {i}: {stats.num_nodes} nodes "
            f"({stats.gaussian_share:.0%} Gaussian leaves, depth {stats.depth})"
        )

    cpu = CPUCompiler(batch_size=4096, vectorize="lanes")
    cpu_marginal = CPUCompiler(batch_size=4096, vectorize="lanes", support_marginal=True)
    gpu = GPUCompiler(batch_size=64)

    print("\nclean speech identification:")
    identify(cpu, spns, dataset.clean, dataset.clean_labels, "SPNC CPU (AVX2)")
    identify(gpu, spns, dataset.clean, dataset.clean_labels, "SPNC GPU (sim)")
    sim = sum(gpu.simulated_seconds(spn) for spn in spns)
    print(f"  {'':18s} simulated GPU device time: "
          f"{sim / dataset.clean.shape[0] * 1e6:.2f} us/sample")

    print("\nnoisy speech identification (marginalized missing features):")
    identify(cpu_marginal, spns, dataset.noisy, dataset.noisy_labels, "SPNC CPU (AVX2)")

    print("\nmulti-head kernel (all speakers in one compiled kernel):")
    multi = CPUCompiler(batch_size=4096, vectorize="lanes")
    multi.compile(list(spns))  # compile once up front
    start = time.perf_counter()
    predictions = multi.classify(spns, dataset.clean)
    elapsed = time.perf_counter() - start
    accuracy = (predictions == dataset.clean_labels).mean()
    print(f"  {'SPNC multi-head':18s} accuracy {accuracy:6.3f}   "
          f"{elapsed / dataset.clean.shape[0] * 1e6:8.2f} us/sample")

    # Baseline probe: interpreted Python inference on a subsample.
    probe = dataset.clean[:128].astype(np.float64)
    start = time.perf_counter()
    for spn in spns:
        log_likelihood_python(spn, probe)
    per_sample = (time.perf_counter() - start) / probe.shape[0] * 1e6
    print(f"\nSPFlow-style Python baseline: {per_sample:.1f} us/sample "
          "(all speakers, 128-sample probe)")
    print("done.")


if __name__ == "__main__":
    main()
