"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the individual mechanisms the
paper describes qualitatively: the Simple-Moves refinement of the graph
partitioning (§IV-A4), CSE on binarized SPN kernels (§IV-A5), and the
backend's vector-register reuse (-O2).
"""

import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.compiler.frontend import build_hispn_module
from repro.compiler.lower_to_lospn import lower_to_lospn
from repro.compiler.partitioning import GraphPartitioner, PartitioningOptions
from repro.ir.transforms import run_cse
from repro.spn import JointProbability

from .common import FigureReport, rat_workload, time_callable

report = FigureReport(
    "Ablations",
    "Mechanism-level ablations (values as noted per row)",
    unit="see row",
)


def _rat_body_ops():
    workload = rat_workload()
    module = lower_to_lospn(
        build_hispn_module(workload["roots"][0], JointProbability(batch_size=64))
    )
    body = [op for op in module.walk() if op.op_name == "lo_spn.body"][0]
    return [op for op in body.body.ops if op.op_name != "lo_spn.yield"]


def test_ablation_partition_refinement(benchmark):
    """Simple-Moves refinement reduces the store/load cut cost."""
    ops = _rat_body_ops()

    def run_refined():
        partitioner = GraphPartitioner(
            ops, PartitioningOptions(max_partition_size=1200, refinement_rounds=2)
        )
        partitioner.run()
        return partitioner.stats

    stats = benchmark(run_refined)
    no_refine = GraphPartitioner(
        ops, PartitioningOptions(max_partition_size=1200, refinement_rounds=0)
    )
    no_refine.run()
    report.add("partition cut, no refinement (cost)", no_refine.stats.final_cut_cost)
    report.add("partition cut, simple moves (cost)", stats.final_cut_cost)
    report.add("refinement moves applied", stats.moves_applied)
    assert stats.final_cut_cost <= no_refine.stats.final_cut_cost
    assert stats.moves_applied > 0


def test_ablation_cse(benchmark):
    """CSE shrinks the CPU-lowered kernels (repeated emitter constants:
    log-add-exp guards, clamp bounds, marginal placeholders)."""
    from repro.compiler.bufferization import (
        bufferize,
        insert_deallocations,
        remove_result_copies,
    )
    from repro.compiler.cpu.lowering import CPULoweringOptions, lower_kernel_to_cpu

    workload = rat_workload()
    spn = workload["roots"][0]

    def lowered_op_count(run_cse_pass):
        module = lower_to_lospn(
            build_hispn_module(spn, JointProbability(batch_size=64))
        )
        module = bufferize(module)
        remove_result_copies(module)
        insert_deallocations(module)
        lowered = lower_kernel_to_cpu(module, CPULoweringOptions(vectorize="lanes"))
        eliminated = run_cse(lowered) if run_cse_pass else 0
        return len(lowered.walk()), eliminated

    before, _ = lowered_op_count(False)
    after, eliminated = benchmark.pedantic(
        lambda: lowered_op_count(True), rounds=1, iterations=1
    )
    report.add("lowered ops before CSE", before)
    report.add("lowered ops after CSE", before - eliminated)
    assert eliminated > 0


def test_ablation_vector_register_reuse(benchmark):
    """-O2's out= register reuse speeds up vectorized kernels."""
    workload = rat_workload()
    spn = workload["roots"][0]
    images = workload["images"].test
    query = JointProbability(batch_size=images.shape[0])

    plain = compile_spn(
        spn, query, CompilerOptions(vectorize="lanes", opt_level=1)
    ).executable
    reuse = compile_spn(
        spn, query, CompilerOptions(vectorize="lanes", opt_level=2)
    ).executable

    benchmark(lambda: reuse(images))
    t_plain = time_callable(lambda: plain(images), min_rounds=3)
    t_reuse = time_callable(lambda: reuse(images), min_rounds=3)
    report.add("vector kernel, fresh allocations (s)", t_plain)
    report.add("vector kernel, register reuse (s)", t_reuse)
    assert "out=" in reuse.source
    assert "out=" not in plain.source
    # Reuse must not be slower beyond noise (it is usually faster).
    assert t_reuse <= t_plain * 1.05


def test_ablation_summary(benchmark):
    benchmark(lambda: None)
    report.show()
