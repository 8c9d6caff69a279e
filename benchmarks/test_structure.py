"""Structure-level optimization suite on a RAT-SPN — the tentpole BENCH.

Workload: per-class RAT-SPN heads round-tripped through serialization
into *independent deep copies* (as if each class model had been
exported and re-imported separately, the way the paper's per-class
pipeline hands models around), then combined into one class-marginal
mixture. The frontend can no longer see the cross-class sharing that
``build_rat_spn`` creates in-process, so ``structure-cse`` has to
recover it by canonical hashing — exactly the redundancy the paper
identifies as the reason its per-class kernels trail the tensorized
baselines. On top of that, each head's root mixture gets a planted
near-zero tail (exact zeros plus a 1e-200 sliver) so the range-gated
``structure-prune`` pass measurably fires within its accuracy budget.

Measured per structure_opt spelling (none / cse / cse,prune):

- per-pass HiSPN op-count deltas and pass wall time (from the
  PassManager instrumentation),
- end-to-end compile time and batch inference time,
- max |Δ log-likelihood| against the unoptimized reference over the
  modeled input domain (must be 0 for CSE, ≤ budget for lossy suites),
- a DifferentialOracle ``check_structure_case`` run across the
  cpu/gpu execution-configuration matrix (the *proof*, not just a spot
  check).

Everything lands in ``BENCH_structure.json``. Acceptance (always
asserted): cse+prune removes ≥ 30% of HiSPN ops. The *measured*
compile-time regression tripwire — optimized compile must stay faster
than baseline — is a separate gated test (``REPRO_STRUCTURE_GATE=1``,
the CI structure canary) so laptop noise never fails a local run.
"""

import os

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.spn import (
    JointProbability,
    RatSpnConfig,
    Sum,
    build_rat_spn,
    deserialize,
    num_nodes,
    serialize,
)
from repro.testing.generators import Case
from repro.testing.oracle import DifferentialOracle, clamp_to_modeled_domain

from .common import FigureReport, round_to, scaled, time_callable, write_bench_json

#: Accuracy budget of the lossy suite (matches the fuzzer default).
BUDGET = 0.05

#: (row label, CompilerOptions structure kwargs) per measured variant.
VARIANTS = (
    ("baseline", {"structure_opt": "none"}),
    ("cse", {"structure_opt": "cse"}),
    ("cse+prune", {"structure_opt": "cse,prune", "accuracy_budget": BUDGET}),
)

report = FigureReport(
    "Structure",
    "RAT-SPN structure suite: HiSPN op reduction / compile / inference",
    unit="see row",
    paper={},
)

#: Populated by ``test_structure_suite`` and consumed by the gated
#: regression test + summary (same pattern as the §V-B2 table rows).
_RESULTS: dict = {}

_WORKLOAD: dict = {}


def structure_workload() -> dict:
    """Class-marginal mixture of deep-copied RAT-SPN heads (cached)."""
    if _WORKLOAD:
        return _WORKLOAD
    config = RatSpnConfig(
        num_features=16,
        num_classes=4,
        depth=2,
        num_repetitions=scaled(2),
        num_sums=4,
        num_input_distributions=3,
        seed=5,
    )
    heads = build_rat_spn(config)
    query = JointProbability(batch_size=round_to(scaled(2048), 512))

    # Serialization round-trip = deep copy preserving *intra*-head
    # sharing while severing every cross-head Python-object identity.
    copies = [deserialize(serialize(head, query))[0] for head in heads]
    for head in copies:
        weights = np.asarray(head.weights, dtype=np.float64)
        # Planted prune fodder at fixed positions (identical across
        # heads, so after CSE re-shares the backbone the dropped
        # children go fully dead and the op count actually shrinks):
        # exact zeros are always dropped; the 1e-200 sliver exercises
        # the range-gated perturbation bound, which at this 16-feature
        # scope admits only astronomically small masses (see
        # compiler/structure/ranges.py — the bound is sound pointwise,
        # hence extremely conservative on deep Gaussian scopes).
        weights[-3:] = 0.0
        weights[-4] = 1e-200
        live = weights[:-4]
        weights[:-4] = live * (1.0 - 1e-200) / live.sum()
        head.weights = [float(w) for w in weights]

    mixture = Sum(copies, [1.0 / len(copies)] * len(copies))
    rng = np.random.default_rng(41)
    inputs = rng.normal(0.0, 2.0, size=(query.batch_size, 16)).astype(np.float32)
    _WORKLOAD.update(
        {
            "config": config,
            "mixture": mixture,
            "query": query,
            "inputs": inputs,
            "nodes_per_head": num_nodes(copies[0]),
        }
    )
    return _WORKLOAD


def _structure_records(result):
    return [r for r in result.timings.records if r.name.startswith("structure-")]


def _hispn_ops_after_simplify(result) -> int:
    for record in result.timings.records:
        if record.name == "hispn-simplify":
            return record.ops_after
    raise AssertionError("hispn-simplify record missing from instrumentation")


def test_structure_suite(benchmark):
    workload = structure_workload()
    mixture, query, inputs = (
        workload["mixture"],
        workload["query"],
        workload["inputs"],
    )
    domain_inputs = clamp_to_modeled_domain(mixture, inputs)

    variants: dict = {}
    reference = None
    reference_domain = None
    for name, kwargs in VARIANTS:
        options = CompilerOptions(**kwargs)
        result = compile_spn(mixture, query, options)
        records = _structure_records(result)
        ops_before = (
            records[0].ops_before if records else _hispn_ops_after_simplify(result)
        )
        ops_after = records[-1].ops_after if records else ops_before
        executable = result.executable
        inference = time_callable(lambda e=executable: e(inputs))
        outputs = executable(inputs)
        outputs_domain = executable(domain_inputs)

        if name == "baseline":
            reference, reference_domain = outputs, outputs_domain
            max_error = 0.0
            exact = True
        else:
            # CSE merges bit-identical computations, so its output is
            # bit-exact on arbitrary inputs; lossy suites are only
            # promised the budget over the modeled domain.
            exact = bool(np.array_equal(outputs, reference))
            max_error = float(np.max(np.abs(outputs_domain - reference_domain)))

        variants[name] = {
            "passes": [
                {
                    "name": r.name,
                    "seconds": r.seconds,
                    "ops_before": r.ops_before,
                    "ops_after": r.ops_after,
                }
                for r in records
            ],
            "suite_ops_before": ops_before,
            "suite_ops_after": ops_after,
            "op_reduction": round(1.0 - ops_after / ops_before, 4),
            "compile_seconds": result.compile_time,
            "inference_seconds": float(inference),
            "inference_stdev": inference.stdev,
            "max_abs_error": max_error,
            "bit_exact_vs_baseline": exact,
        }
        report.add(f"{name}: hispn ops", float(ops_after))
        report.add(f"{name}: compile s", result.compile_time)
        report.add(f"{name}: inference s", float(inference))
    benchmark(lambda: None)  # timings collected above

    base = variants["baseline"]
    opt = variants["cse+prune"]

    # --- semantic contract ------------------------------------------------
    assert variants["cse"]["bit_exact_vs_baseline"], (
        "structure-cse must be bit-exact against the unoptimized kernel"
    )
    assert opt["max_abs_error"] <= BUDGET, (
        f"cse+prune: max |Δ log-likelihood| "
        f"{opt['max_abs_error']:.3e} exceeds budget {BUDGET}"
    )

    # --- acceptance: >= 30% HiSPN op reduction from cse+prune -------------
    assert opt["op_reduction"] >= 0.30, (
        f"cse+prune removed only {opt['op_reduction']:.1%} of HiSPN ops "
        f"({opt['suite_ops_before']} -> {opt['suite_ops_after']}); "
        "acceptance floor is 30%"
    )
    # Pruning itself must fire (planted zero/near-zero tail weights).
    prune_record = variants["cse+prune"]["passes"][-1]
    assert prune_record["name"] == "structure-prune"
    assert prune_record["ops_after"] < prune_record["ops_before"], (
        "structure-prune removed no ops despite planted near-zero weights"
    )

    # --- oracle proof across the execution-configuration matrix ----------
    oracle = DifferentialOracle()
    case = Case(
        seed=0,
        index=0,
        spn=mixture,
        num_features=16,
        query=JointProbability(batch_size=64),
        inputs=inputs[:64].astype(np.float64),
    )
    divergences = oracle.check_structure_case(
        case, "cse,prune", accuracy_budget=BUDGET
    )
    assert divergences == [], [d.config for d in divergences]

    payload = {
        "model": {
            "classes": workload["config"].num_classes,
            "features": workload["config"].num_features,
            "nodes_per_head": workload["nodes_per_head"],
            "hispn_ops_baseline": base["suite_ops_before"],
        },
        "accuracy_budget": BUDGET,
        "variants": variants,
        "acceptance": {
            "op_reduction_cse_prune": opt["op_reduction"],
            "op_reduction_floor": 0.30,
            "compile_speedup_cse_prune": round(
                base["compile_seconds"] / opt["compile_seconds"], 4
            ),
            "inference_speedup_cse_prune": round(
                base["inference_seconds"] / opt["inference_seconds"], 4
            ),
            "oracle_divergences": 0,
        },
    }
    _RESULTS.update(payload)
    path = write_bench_json("structure", payload)
    report.note(f"wrote {path}")


def test_structure_gate(benchmark):
    """Measured compile-time regression tripwire (CI structure canary).

    The cse+prune suite shrinks the HiSPN module by ≥ 30%, so every
    downstream stage (lower, partition, bufferize, codegen) has less to
    chew on — optimized compiles must not be slower than baseline. The
    floor is deliberately loose (1.0x) so runner noise survives while a
    suite that *adds* net compile time is caught.
    """
    if os.environ.get("REPRO_STRUCTURE_GATE") != "1":
        pytest.skip("structure gate disabled (set REPRO_STRUCTURE_GATE=1)")
    if not _RESULTS:
        pytest.skip("structure suite results unavailable")
    benchmark(lambda: None)

    speedup = _RESULTS["acceptance"]["compile_speedup_cse_prune"]
    report.add("gate: compile speedup", speedup)
    assert speedup >= 1.0, (
        f"cse+prune compile is {1.0 / speedup:.2f}x SLOWER than baseline "
        f"(BENCH_structure.json acceptance.compile_speedup_cse_prune="
        f"{speedup}); the structure suite must pay for itself"
    )
    assert _RESULTS["acceptance"]["op_reduction_cse_prune"] >= 0.30


def test_structure_summary(benchmark):
    benchmark(lambda: None)
    if not _RESULTS:
        pytest.skip("structure suite results unavailable")
    acceptance = _RESULTS["acceptance"]
    report.note(
        f"cse+prune: {acceptance['op_reduction_cse_prune']:.1%} fewer HiSPN "
        f"ops, {acceptance['compile_speedup_cse_prune']:.2f}x compile, "
        f"{acceptance['inference_speedup_cse_prune']:.2f}x inference, "
        f"oracle clean at budget {BUDGET}"
    )
    report.show()
