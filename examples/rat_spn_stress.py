#!/usr/bin/env python
"""Application 2: Random (RAT-)SPNs as a compiler stress test (paper §V-B).

Builds a RAT-SPN over image-like data, trains its weights with EM, and
explores the two compile-time knobs the paper investigates: the maximum
graph-partition size and the optimization level. Prints the compile-time
vs execution-time trade-off table the user would consult to pick a
configuration (the paper picks 25k/-O1 for CPU, 10k/-O1 for GPU).

Run:  python examples/rat_spn_stress.py
"""

import time

import numpy as np

from repro import CompilerOptions, JointProbability, compile_spn
from repro.data import ImageDatasetConfig, generate_image_dataset
from repro.spn import GraphStatistics, RatSpnConfig, build_rat_spn, train_rat_spn


def main():
    config = RatSpnConfig(
        num_features=64,
        num_classes=3,
        depth=3,
        num_repetitions=4,
        num_sums=6,
        num_input_distributions=3,
        seed=11,
    )
    print("constructing RAT-SPN ...")
    roots = build_rat_spn(config)
    stats = GraphStatistics(roots[0])
    print(
        f"  per-class graph: {stats.num_nodes} nodes "
        f"({stats.num_sums} sums, {stats.num_products} products, "
        f"{stats.num_leaves} leaves)"
    )

    images = generate_image_dataset(
        ImageDatasetConfig(num_classes=3, side=8, train_per_class=120, test_samples=2048)
    )
    print("training weights with EM ...")
    train_rat_spn(roots, images.train, images.train_labels, em_iterations=2)

    spn = roots[0]
    inputs = images.test
    query = JointProbability(batch_size=inputs.shape[0])

    print("\npartition-size sweep (CPU, -O1):")
    print(f"  {'max size':>9} {'tasks':>6} {'compile':>9} {'execute':>9}")
    for psize in (400, 1500, 6000, 20000):
        start = time.perf_counter()
        result = compile_spn(
            spn, query, CompilerOptions(max_partition_size=psize, vectorize="lanes")
        )
        compile_s = time.perf_counter() - start
        start = time.perf_counter()
        result.executable(inputs)
        exec_s = time.perf_counter() - start
        print(
            f"  {psize:>9} {result.num_tasks:>6} {compile_s:>8.2f}s {exec_s:>8.3f}s"
        )

    print("\noptimization-level sweep (CPU, partition size 2500):")
    print(f"  {'level':>9} {'compile':>9} {'execute':>9}")
    for opt in (0, 1, 2, 3):
        options = CompilerOptions(
            max_partition_size=2500, vectorize="lanes", opt_level=opt
        )
        start = time.perf_counter()
        result = compile_spn(spn, query, options)
        compile_s = time.perf_counter() - start
        start = time.perf_counter()
        result.executable(inputs)
        exec_s = time.perf_counter() - start
        print(f"  {'-O' + str(opt):>9} {compile_s:>8.2f}s {exec_s:>8.3f}s")

    print("\nclassifying the test set with the compiled kernels (-O1, 2500):")
    options = CompilerOptions(max_partition_size=2500, vectorize="lanes")
    start = time.perf_counter()
    scores = np.stack(
        [compile_spn(r, query, options).executable(inputs) for r in roots], axis=1
    )
    total = time.perf_counter() - start
    accuracy = (np.argmax(scores, axis=1) == images.test_labels).mean()
    print(f"  accuracy {accuracy:.3f} over {inputs.shape[0]} images "
          f"(compile+run {total:.1f}s for {len(roots)} class kernels)")


if __name__ == "__main__":
    main()
