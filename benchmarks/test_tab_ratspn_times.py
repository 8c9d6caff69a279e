"""§V-B2 — RAT-SPN classification times (the paper's closing comparison).

Paper (10k MNIST images): TF-GPU 0.427 s ≈ SPNC-CPU 0.444 s < SPNC-GPU
1.299 s < TF-CPU 1.72 s. Key shape: the compiler's CPU executables are
on par with the native tensorized Tensorflow implementation on the GPU
and clearly beat Tensorflow on the CPU; the compiler's GPU path is
slower because each of the per-class SPNs transfers the input and
launches separately after the conversion to SPFlow.

The SPNC CPU rows are the batch-vectorized kernels (the default
``vectorize="batch"``): their sum layers lower to one stacked
log-sum-exp per layer, and the per-class kernels together are gated to
be no slower than the hand-tensorized NumPy execution of the same roots.
"""

import numpy as np
import pytest

from repro.baselines import TensorizedRatExecutor, TensorizedRatGPU
from repro.compiler import CompilerOptions, compile_spn
from repro.spn import JointProbability

from .common import FigureReport, rat_workload, time_callable

report = FigureReport(
    "§V-B2",
    "RAT-SPN classification of the test images (total seconds)",
    unit="seconds",
    paper={
        "tf gpu (tensorized)": "0.427 s",
        "spnc cpu": "0.444 s",
        "spnc gpu": "1.299 s",
        "tf cpu (tensorized)": "1.72 s",
    },
)

_rows = {}
_accuracy = {}


def _classify_accuracy(scores, labels):
    return float((np.argmax(scores, axis=1) == labels).mean())


def test_tab_tf_cpu(benchmark):
    workload = rat_workload()
    executor = TensorizedRatExecutor(workload["roots"])
    images = workload["images"].test

    benchmark(lambda: executor.log_likelihoods(images))
    _rows["tf cpu (tensorized)"] = benchmark.stats.stats.median
    _accuracy["tf"] = _classify_accuracy(
        executor.log_likelihoods(images), workload["images"].test_labels
    )


def test_tab_tf_gpu(benchmark):
    workload = rat_workload()
    executor = TensorizedRatGPU(workload["roots"])
    images = workload["images"].test

    benchmark(lambda: executor.log_likelihoods(images))
    simulated = min(
        (executor.log_likelihoods(images), executor.last_simulated_seconds)[1]
        for _ in range(5)
    )
    _rows["tf gpu (tensorized)"] = simulated


def test_tab_spnc_cpu(benchmark):
    workload = rat_workload()
    images = workload["images"].test
    query = JointProbability(batch_size=images.shape[0])
    options = CompilerOptions(opt_level=2, max_partition_size=2500)
    executables = [
        compile_spn(spn, query, options).executable for spn in workload["roots"]
    ]

    def run_all_classes():
        return np.stack([e(images) for e in executables], axis=1)

    benchmark(run_all_classes)
    _rows["spnc cpu"] = benchmark.stats.stats.median
    _accuracy["spnc"] = _classify_accuracy(
        run_all_classes(), workload["images"].test_labels
    )


def test_tab_spnc_cpu_multihead(benchmark):
    """Extension: all class heads compiled into ONE kernel with shared
    sub-DAGs — removing the per-class redundancy the paper identifies as
    the reason its compiler trails the tensorized TF execution."""
    workload = rat_workload()
    images = workload["images"].test
    query = JointProbability(batch_size=images.shape[0])
    options = CompilerOptions(opt_level=2, max_partition_size=2500)
    executable = compile_spn(list(workload["roots"]), query, options).executable

    benchmark(lambda: executable(images))
    _rows["spnc cpu (multi-head, ext.)"] = benchmark.stats.stats.median
    scores = executable(images)
    _accuracy["multihead"] = _classify_accuracy(
        scores.T, workload["images"].test_labels
    )


def test_tab_spnc_gpu(benchmark):
    workload = rat_workload()
    images = workload["images"].test
    query = JointProbability(batch_size=64)
    options = CompilerOptions(target="gpu", max_partition_size=2500)
    executables = [
        compile_spn(spn, query, options).executable for spn in workload["roots"]
    ]

    benchmark(lambda: [e(images) for e in executables])
    # Ten distinct per-class kernels: input transferred per class, as the
    # paper notes for its own GPU numbers.
    simulated = 0.0
    for executable in executables:
        simulated += min(
            (executable(images), executable.simulated_seconds())[1]
            for _ in range(3)
        )
    _rows["spnc gpu"] = simulated


def test_tab_summary(benchmark):
    benchmark(lambda: None)
    for name, value in _rows.items():
        report.add(name, value)
    report.note(
        f"classification agreement: tf={_accuracy.get('tf'):.3f} "
        f"spnc={_accuracy.get('spnc'):.3f} (identical decision rule)"
    )
    report.note(
        "documented deviation (EXPERIMENTS.md): the tensorized TF-CPU baseline "
        "(shared-DAG, full-batch NumPy) is fast in Python-ISA units, so it does "
        "not rank last as in the paper; the compiled CPU kernels beat it, and "
        "the intra-SPNC shape (CPU beats GPU due to per-class "
        "transfers/launches) reproduces"
    )
    report.show()
    # Sum layers: the per-class compiled kernels — which re-evaluate the
    # shared structure once per class — are no slower than one shared
    # pass of the hand-tensorized baseline over the same roots.
    assert _rows["spnc cpu"] <= _rows["tf cpu (tensorized)"]
    # Shape (paper): the compiler's GPU path trails its CPU path because
    # each of the per-class SPNs transfers the input and launches separately.
    assert _rows["spnc gpu"] > _rows["spnc cpu"]
    # SPNC-CPU performs on par with the tensorized TF-GPU execution
    # (paper: 0.444 s vs 0.427 s; allow a small constant factor here).
    assert _rows["spnc cpu"] < 3.0 * _rows["tf gpu (tensorized)"]
    # The compiled CPU result must agree with the TF decision rule.
    assert abs(_accuracy["tf"] - _accuracy["spnc"]) < 0.02
    # The multi-head extension removes the per-class redundancy: faster
    # than the per-class kernels and classification-identical.
    assert _rows["spnc cpu (multi-head, ext.)"] < _rows["spnc cpu"]
    assert abs(_accuracy["multihead"] - _accuracy["spnc"]) < 0.02
