"""CPU thread scaling — sharded multi-core batch execution.

Not a paper figure: SPNC's published CPU numbers are single-threaded.
This benchmark tracks what the sharded :class:`ChunkedExecutor` runtime
adds on top — the 1→N-worker throughput curve of the batch-vectorized
kernel (the reproduction's headline CPU configuration), recorded into
``BENCH_cpu.json`` as ``scaling`` + ``parallel_efficiency``.

Two distinct claims, with distinct evidence:

- **The curve** (``test_scaling_curve``): via
  :func:`common.scaling_curve` — measured wall-clock at every worker
  count the host has cores for; larger counts are left out, never
  modeled. The acceptance shape — ≥1.5× at 2 workers and monotone
  gains — is asserted on the points the host measured.
- **The CI gate** (``test_scaling_gate``): a *measured-only* regression
  tripwire. Enabled with ``REPRO_SCALING_GATE=1`` on hosts with ≥2
  cores (the CI perf job), it fails if 2-thread wall-clock throughput
  falls below 1.2× single-thread — a deliberately loose floor that
  survives runner noise yet catches the sharded path serializing (e.g.
  a lock slipping into the hot loop).
"""

import os

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.spn import JointProbability

from .common import FigureReport, scaling_curve, speaker_workload, write_bench_json

#: Worker counts for the recorded curve (those above the host's core
#: count are skipped).
WORKERS = (1, 2, 4, 8)

#: Compiled chunk hint: wide enough that per-chunk Python dispatch is
#: amortized, narrow enough that 8192 rows shard into >= 2*W chunks for
#: every W above.
BATCH_HINT = 1024

#: Scaling is a steady-state property; tiny row counts measure dispatch
#: overhead instead, so inputs are tiled up to this floor regardless of
#: REPRO_BENCH_SCALE (same convention as the Fig. 9 benchmark).
MIN_ROWS = 8192

report = FigureReport(
    "Scaling",
    "CPU batch-kernel thread scaling (speedup vs 1 worker)",
    unit="x 1-thread",
    paper={},
)


def _inputs():
    workload = speaker_workload()
    inputs = workload["clean"]
    if inputs.shape[0] < MIN_ROWS:
        repeats = -(-MIN_ROWS // inputs.shape[0])
        inputs = np.tile(inputs, (repeats, 1))[:MIN_ROWS]
    return workload["spns"][0], inputs[:MIN_ROWS]


def _make_executable(spn):
    query = JointProbability(batch_size=BATCH_HINT)

    def make(num_threads):
        options = CompilerOptions(vectorize="batch", num_threads=num_threads)
        return compile_spn(spn, query, options).executable

    return make


def test_scaling_curve(benchmark):
    spn, inputs = _inputs()
    curve = scaling_curve(_make_executable(spn), inputs, workers=WORKERS)
    benchmark(lambda: None)  # timings happen inside scaling_curve

    speedups = {int(w): point["speedup"] for w, point in curve["workers"].items()}
    for w, speedup in speedups.items():
        report.add(f"{w} workers", speedup)
    report.note(f"host cores: {curve['host_cores']}, rows: {curve['rows']}")

    # Acceptance on the measured points: >= 1.5x at 2 workers, monotone.
    if 2 in speedups:
        assert speedups[2] >= 1.5
    ordered = [speedups[w] for w in sorted(speedups)]
    assert all(fewer < more for fewer, more in zip(ordered, ordered[1:]))

    efficiency = curve["workers"][str(max(speedups))]["efficiency"]
    path = write_bench_json(
        "cpu",
        {"scaling": curve, "parallel_efficiency": efficiency},
        merge=True,
    )
    report.note(f"wrote {path}")


def test_scaling_gate(benchmark):
    if os.environ.get("REPRO_SCALING_GATE") != "1":
        pytest.skip("measured scaling gate disabled (set REPRO_SCALING_GATE=1)")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("measured scaling gate needs >= 2 host cores")

    from .common import time_callable

    spn, inputs = _inputs()
    make = _make_executable(spn)
    ex1, ex2 = make(1), make(2)
    try:
        wall_1 = float(time_callable(lambda: ex1.execute(inputs)))
        wall_2 = float(time_callable(lambda: ex2.execute(inputs)))
    finally:
        ex1.close()
        ex2.close()
    benchmark(lambda: None)

    measured = wall_1 / wall_2
    report.add("gate: 2 workers measured", measured)
    assert measured >= 1.2, (
        f"sharded 2-thread run only {measured:.2f}x single-thread "
        f"(wall 1T={wall_1:.4f}s, 2T={wall_2:.4f}s); the parallel hot "
        "path has likely regressed (floor: 1.2x)"
    )


def test_scaling_summary(benchmark):
    benchmark(lambda: None)
    report.show()
