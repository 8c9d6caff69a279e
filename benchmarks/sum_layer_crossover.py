"""Sum-layer crossover: binary log-adds vs the stacked form, by layer shape.

    PYTHONPATH=src python benchmarks/sum_layer_crossover.py

The measurement behind ``emitters.STACK_MIN_LOG_ADDS`` (EXPERIMENTS.md,
"Sum-layer crossover"). Batch kernels pick the lowering of a sum layer
from its shape; this compiles one layer of ``s`` sums over ``k``
children both ways — the threshold forced out of reach, then forced to
1 — and prints the per-call time of each at 1 and at 1024 rows, one
JSON line per shape.
"""

import json
import time

import numpy as np

from repro.compiler import CompilerOptions, compile_spn, emitters
from repro.spn import Gaussian, JointProbability, Product, Sum

SHAPES = [(1, k) for k in (2, 3, 4, 5, 6, 7, 8, 9)] + [
    (s, k) for s in (2, 3, 4, 6) for k in (2, 3, 4, 5, 9)
]
ROWS = (1, 1024)


def layer(s, k, rng):
    children = [
        Product([Gaussian(v, rng.uniform(-3, 3), 1.0) for v in range(2)])
        for _ in range(k)
    ]
    sums = [Sum(children, rng.uniform(0.1, 1.0, k)) for _ in range(s)]
    return sums[0] if s == 1 else Sum(sums, rng.uniform(0.1, 1.0, s))


def per_call_us(executable, x, windows=7, window_s=0.06):
    executable(x)
    times = []
    for _ in range(windows):
        calls, start = 0, time.perf_counter()
        while time.perf_counter() - start < window_s:
            executable(x)
            calls += 1
        times.append((time.perf_counter() - start) / calls)
    return 1e6 * float(np.median(times))


def main():
    for s, k in SHAPES:
        rng = np.random.default_rng([s, k])
        spn = layer(s, k, rng)
        record = {"s": s, "k": k, "log_adds": s * (k - 1)}
        for form, threshold in (("binary", 10**6), ("stacked", 1)):
            emitters.STACK_MIN_LOG_ADDS = threshold
            executable = compile_spn(
                spn, JointProbability(batch_size=1024), CompilerOptions(opt_level=2)
            ).executable
            assert ("np.concatenate(" in executable.source) == (form == "stacked")
            for rows in ROWS:
                x = rng.normal(size=(rows, 2)).astype(np.float32)
                record[f"{form}_{rows}_us"] = round(per_call_us(executable, x), 1)
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
