"""Names, units and bounds of the ledger: the one place they are defined.

BENCHMARK.json repeats these for the driver; ``test_ledger.py`` checks
that the two agree.
"""

from __future__ import annotations

#: name -> one-line reason (BENCHMARK.json ``why``). Names are fixed:
#: later issues cite them.
WORKLOADS = {
    "speaker_batch": (
        "8192-row joint calls on 3 speaker SPNs: row-proportional vector "
        "compute dominates, the compiler is ~0 % of the run"
    ),
    "speaker_rowwise": (
        "1-row marginal calls with 30 % NaN on the same SPNs: only the "
        "row-independent term (dispatch, entry, buffer pool, chunk plan)"
    ),
    "rat_compile": (
        "RAT-SPN class roots at -O2 with partitioning: the compiler is most "
        "of the wall time; steady phase is dispatch-heavy at ~10k ops"
    ),
    "serve_poisson": (
        "InferenceServer under 2000 req/s open-loop Poisson, then a "
        "256-outstanding closed loop: admission, queueing, coalescing, futures"
    ),
    "speaker_gpu": (
        "speaker SPN 0 on the GPU simulator: shares frontend to bufferize "
        "with the CPU path and forks at gpu-lowering/gpu-codegen/gpusim"
    ),
}

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen. Every workload reports all of
#: them; none can be 0. Failures are not a metric here because their
#: seed value is 0: they are the ``failed``/``attempted`` counts of the
#: result line and make ``correct`` false. Each bound is above the
#: largest shift between the medians of two ten-run sets, and (``setup_s``
#: apart, whose bound is the largest allowed) at least twice the widest
#: ten-run spread, that its metric showed on any workload while the ledger
#: was built (README, "Numbers at this commit").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("compile_s", "s", "lower", 0.25),
    ("rows_per_s", "1/s", "higher", 0.20),
    ("latency_ms_p50", "ms", "lower", 0.20),
    ("latency_ms_p95", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Stages of ``repro.compiler.pipeline.STAGE_NAMES`` that run in at least
#: one workload (CPU -O1, CPU -O2 with partitioning, GPU -O1). A stage
#: that did not run in a workload reads 0 there.
STAGES = (
    "frontend",
    "hispn-simplify",
    "lower-to-lospn",
    "graph-partitioning",
    "bufferize",
    "buffer-optimization",
    "buffer-deallocation",
    "cpu-lowering",
    "gpu-lowering",
    "gpu-copy-elimination",
    "canonicalize",
    "cse",
    "licm",
    "dce",
    "canonicalize-2",
    "cse-2",
    "codegen",
    "gpu-codegen",
)
#: Codegen leaves IR-land, so the compiler records no op count for it.
CODEGEN_STAGES = ("codegen", "gpu-codegen")
#: The stages of the ``rat_compile`` pipeline, whose growth is fitted.
GROWTH_STAGES = tuple(
    s for s in STAGES if not s.startswith("gpu-")
)


def _per_layer():
    rows = [
        ("serialization.deserialize_s", "s", "lower"),
        ("serialization.model_bytes", "count", "lower"),
    ]
    for stage in STAGES:
        rows.append((f"compiler.pass.{stage}.s", "s", "lower"))
        if stage not in CODEGEN_STAGES:
            rows.append((f"compiler.pass.{stage}.ops_after", "count", "lower"))
    rows += [
        ("compiler.driver_self_s", "s", "lower"),
        ("compiler.hispn_ops", "count", "lower"),
        ("compiler.final_ops", "count", "lower"),
        ("compiler.num_tasks", "count", "lower"),
        ("compiler.growth_exponent", "ratio", "lower"),
    ]
    rows += [(f"compiler.pass.{s}.growth", "ratio", "lower") for s in GROWTH_STAGES]
    rows += [
        ("codegen.source_bytes", "count", "lower"),
        ("codegen.source_lines", "count", "lower"),
        ("runtime.fixed_call_us", "us", "lower"),
        ("runtime.per_row_ns", "ns", "lower"),
        ("runtime.minor_faults_per_call", "count", "lower"),
        ("bufferpool.requests_per_call", "count", "lower"),
        ("bufferpool.allocations_steady", "count", "lower"),
        ("bufferpool.retained_mb", "MB", "lower"),
        ("threadpool.chunks_per_call", "count", "lower"),
        ("threadpool.speedup_2t", "ratio", "higher"),
        ("threadpool.shard_busy_share", "ratio", "higher"),
        ("registry.publish_s", "s", "lower"),
        ("server.submit_us_p50", "us", "lower"),
        ("admission.rejected", "count", "lower"),
        ("admission.expired", "count", "lower"),
        ("server.retries", "count", "lower"),
        ("server.degraded", "count", "lower"),
        ("server.lost", "count", "lower"),
        ("batcher.batches_per_s", "1/s", "lower"),
        ("batcher.batch_rows_mean", "count", "higher"),
        ("batcher.batch_rows_p95", "count", "higher"),
        ("server.reported_latency_ms_p50", "ms", "lower"),
        ("loadgen.late_ms_p99", "ms", "lower"),
        ("httpd.roundtrip_ms_p50", "ms", "lower"),
        ("gpusim.simulated_s_per_call", "s", "lower"),
        ("gpusim.transfer_share", "ratio", "lower"),
        ("gpusim.compute_share", "ratio", "higher"),
        ("gpusim.overlap_share", "ratio", "higher"),
        ("gpusim.launches_per_call", "count", "lower"),
        ("gpusim.h2d_bytes_per_call", "count", "lower"),
        ("gpusim.d2h_bytes_per_call", "count", "lower"),
        ("api.cache_hit_call_us", "us", "lower"),
        ("baseline.reference_rows_per_s", "1/s", "higher"),
        ("baseline.tensorized_rows_per_s", "1/s", "higher"),
        ("steady.latency_ms_p99", "ms", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("host.nproc", "count", "higher"),
        ("host.calib_ms", "ms", "lower"),
        ("host.unusual_share", "ratio", "lower"),
    ]
    return tuple(rows)


#: (name, unit, better). Reported by the traced run only; no bounds.
PER_LAYER = _per_layer()

#: How long one run measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 16

#: Output check, fixed here and not taken from the compiler's own
#: error analysis: |out - ref| <= ABS_TOL + REL_TOL * |ref| in log space.
ABS_TOL = 1e-3
REL_TOL = 1e-5

#: ``serve_poisson``: a request that takes longer than this has failed.
REQUEST_LIMIT_S = 0.25
OPEN_LOOP_RATE = 2000.0
CLOSED_LOOP_CLIENTS = 256
