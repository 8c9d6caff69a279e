#!/usr/bin/env python
"""Quickstart: build the paper's example SPN, compile it, run inference.

Walks the full SPNC flow on the Fig. 1 example network and prints the
intermediate representations at every stage — the HiSPN query (Fig. 2),
the LoSPN kernel (Fig. 3) and the CPU-lowered loop nest (Fig. 4) — before
executing the compiled kernel and checking it against the reference
NumPy inference.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CompilerOptions, Gaussian, JointProbability, Product, Sum, compile_spn
from repro.spn import log_likelihood


def build_example_spn():
    """The example SPN of the paper's Fig. 1: a 2-feature mixture."""
    return Sum(
        children=[
            Product([Gaussian(0, 0.0, 1.0), Gaussian(1, 1.0, 2.0)]),
            Product([Gaussian(0, 2.0, 1.0), Gaussian(1, -1.0, 1.0)]),
        ],
        weights=[0.3, 0.7],
    )


def main():
    spn = build_example_spn()
    query = JointProbability(batch_size=96)

    # collect_ir keeps a textual dump of each pipeline stage.
    result = compile_spn(
        spn, query, CompilerOptions(vectorize="lanes", superword_factor=4, collect_ir=True)
    )

    for stage in ("frontend", "lower-to-lospn", "cpu-lowering"):
        banner = {
            "frontend": "HiSPN (cf. paper Fig. 2)",
            "lower-to-lospn": "LoSPN (cf. paper Fig. 3)",
            "cpu-lowering": "CPU loop nest (cf. paper Fig. 4)",
        }[stage]
        print(f"\n{'=' * 72}\n{banner}\n{'=' * 72}")
        print(result.ir_dumps[stage])

    print(f"\n{'=' * 72}\nGenerated kernel (Python-ISA object code, excerpt)\n{'=' * 72}")
    print("\n".join(result.executable.source.splitlines()[:25]))

    rng = np.random.default_rng(0)
    inputs = rng.normal(0.0, 1.5, size=(1000, 2)).astype(np.float32)
    compiled = result.executable(inputs)
    reference = log_likelihood(spn, inputs.astype(np.float64))

    print(f"\ncompiled log-likelihoods (first 5): {compiled[:5]}")
    print(f"reference log-likelihoods (first 5): {reference[:5]}")
    print(f"max abs deviation: {np.max(np.abs(compiled - reference)):.2e}")
    print(f"compile stages: { {k: f'{v * 1e3:.1f}ms' for k, v in result.stage_seconds.items()} }")
    assert np.allclose(compiled, reference, rtol=2e-3, atol=1e-5)
    print("\nOK: compiled kernel matches the reference inference.")


if __name__ == "__main__":
    main()
