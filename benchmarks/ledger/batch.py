"""The four workloads that call compiled kernels directly.

One flow serves all of them: set up (timed, several times), one
discarded toy compile, the cold compiles (bytes -> first verified row),
then a steady phase that rotates over the workload's kernels and checks
every output against the precomputed reference outside the timed
region. A traced run halves the steady phase and spends the rest on the
per-layer probes.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.compiler import CompilerOptions, compile_spn
from repro.runtime.threadpool import plan_chunks
from repro.spn import inference
from repro.spn.serialization import deserialize

from . import fixtures, harness, spec
from .harness import CompileSample, Result, Run


@dataclass(frozen=True)
class BatchConfig:
    models: Tuple[str, ...]
    #: ``CompilerOptions`` keyword arguments (the rest are defaults).
    options: dict
    rows_per_call: int
    #: Input rows generated per set-up; calls walk through them.
    pool_rows: int
    #: Each group is one ``compile_s`` sample: the mean cold-compile time
    #: of the models (indices) in it. The last compile of each model
    #: serves the steady phase.
    compile_groups: Tuple[Tuple[int, ...], ...]
    nan_share: float = 0.0
    support_marginal: bool = False
    #: Extra per-layer probes of the traced run: f(run, state) -> metrics.
    probes: Tuple[Callable, ...] = ()


@dataclass
class State:
    """What the probes may look at after the steady phase."""

    config: BatchConfig
    fixture: fixtures.Fixture
    compilations: List[object]
    #: Median steady-phase call seconds per kernel (untraced calls).
    call_s: List[float]
    #: The run's ``harness.pick_timed`` wrapper.
    timed: Callable

    @property
    def executables(self):
        return [c.executable for c in self.compilations]


def cold_compile(
    run: Run, config: BatchConfig, fixture, model: int, op: str
) -> CompileSample:
    """Serialized bytes in, first verified 1-row result out."""
    tracer = run.tracer
    payload = fixture.payloads[model]
    gc.collect()
    start = time.perf_counter()
    with tracer.span("compile", op=op, model=fixture.names[model]):
        with tracer.span("serialization.deserialize", op=op):
            root, query = deserialize(payload)
        deserialized = time.perf_counter()
        query = dataclasses.replace(
            query, support_marginal=config.support_marginal
        )
        with tracer.span("compiler.compile_spn", op=op) as span:
            compile_start = time.perf_counter()
            compilation = compile_spn(
                root, query, options=CompilerOptions(**config.options)
            )
            compiled = time.perf_counter()
        harness.add_pass_spans(
            tracer, span, op, compile_start, compilation.timings.records
        )
        with tracer.span("runtime.first_call", op=op):
            first = compilation.executable.execute(fixture.inputs[:1])
    seconds = time.perf_counter() - start
    return CompileSample(
        model=model,
        seconds=seconds,
        deserialize_s=deserialized - start,
        compile_spn_s=compiled - compile_start,
        compilation=compilation,
        mismatched=fixtures.mismatches(first, fixture.references[model][:1]),
    )


def compile_phase(run: Run, config: BatchConfig, fixture, result: Result):
    """Run the compile groups; returns (groups of samples, the last
    compilation of each model)."""
    groups: List[List[CompileSample]] = []
    current: Dict[int, object] = {}
    for number, group in enumerate(config.compile_groups):
        groups.append([])
        for model in group:
            sample = cold_compile(run, config, fixture, model, f"compile-{number}-{model}")
            previous = current.get(model)
            if previous is not None:
                previous.executable.close()
            current[model] = sample.compilation
            groups[-1].append(sample)
    samples = [s for group in groups for s in group]
    result.count("compile", len(samples), sum(1 for s in samples if s.mismatched))
    return groups, [current[m] for m in range(len(config.models))]


def steady_phase(run: Run, config: BatchConfig, fixture, executables, timed, seconds, result):
    """Rotate over the kernels for ``seconds``; every call is timed on its
    own and checked against the reference before the next one starts.

    The host probe is read every ``HostProbe.EVERY_S`` of work; the
    timings reported are those of the calls between two readings of the
    host's usual state (see ``HostProbe``), failures are counted over
    all calls.
    In a traced run every other rotation is wrapped in a span, and the
    difference between the two kinds of call is the tracing overhead.
    Returns (median plain call seconds per kernel, tracing overhead).
    """
    tracer, probe = run.tracer, run.probe
    rows, pool = config.rows_per_call, config.pool_rows
    kernels = len(executables)
    #: (kernel, traced, seconds, index of the reading before the call)
    calls: List[tuple] = []
    failed = 0
    attempted = 0
    faults = harness.minor_faults()
    reading = probe.read()
    now = read_at = time.perf_counter()
    end = now + seconds
    while now < end:
        kernel = attempted % kernels
        rotation = attempted // kernels
        offset = (rotation * rows) % pool
        batch = fixture.inputs[offset : offset + rows]
        traced = tracer.enabled and rotation % 2 == 1
        span = (
            partial(tracer.span, "runtime.execute", op=f"call-{attempted}", rows=rows)
            if traced
            else None
        )
        try:
            output, elapsed = timed(executables[kernel].execute, batch, span)
        except Exception:
            failed += 1
        else:
            calls.append((kernel, traced, elapsed, reading))
            reference = fixture.references[kernel][offset : offset + rows]
            if fixtures.mismatches(output, reference):
                failed += 1
        attempted += 1
        now = time.perf_counter()
        if now - read_at >= probe.EVERY_S:
            reading = probe.read()
            now = read_at = time.perf_counter()
    probe.read()
    result.samples["minor_faults_per_call"] = (harness.minor_faults() - faults) // attempted
    result.count("steady", attempted, failed)

    usual = probe.usual()
    kept = [c for c in calls if usual[c[3]] and usual[c[3] + 1]] or calls
    result.samples["latency_set_aside"] = len(calls) - len(kept)
    per_kernel = [[c[2] for c in kept if c[0] == k] for k in range(kernels)]
    if not all(per_kernel):
        raise RuntimeError("a kernel completed no steady-phase call")
    harness.latency_metrics(result, [c[2] for c in kept])
    # Rows per second of one rotation at each kernel's median call (a
    # median, so that a few calls in a burst of interference do not count).
    result.end_to_end["rows_per_s"] = (
        rows * kernels / sum(statistics.median(p) for p in per_kernel)
    )

    def medians(traced):
        return [
            statistics.median([c[2] for c in kept if c[0] == k and c[1] == traced] or [0.0])
            for k in range(kernels)
        ]

    plain, spanned = medians(False), medians(True)
    overhead = (sum(spanned) - sum(plain)) / sum(plain) if all(spanned) and all(plain) else 0.0
    return plain, overhead


def run_batch(run: Run, config: BatchConfig) -> Result:
    if run.smoke:
        # First model only, compiled once, and without the 13 s growth fit.
        config = dataclasses.replace(
            config,
            models=config.models[:1],
            compile_groups=((0,),),
            probes=tuple(p for p in config.probes if p is not probe_growth),
        )
    result = Result()
    fixture, setup_s = harness.timed_setups(
        run,
        lambda: fixtures.set_up(
            config.models, config.pool_rows, run.seed, config.nan_share
        ),
    )
    result.end_to_end["setup_s"] = setup_s
    harness.warm_up_compiler()
    groups, compilations = compile_phase(run, config, fixture, result)
    executables = [c.executable for c in compilations]
    pools = [getattr(e, "buffer_pool", None) for e in executables]
    pools = [p for p in pools if p is not None]

    # The calls in here also grow the buffer pools from the compile phase's
    # single row to the steady batch, before the timed phase.
    timed = harness.pick_timed(executables, fixture.inputs[: config.rows_per_call])
    gc.collect()
    gc.freeze()
    steady_s = run.seconds * (0.4 if run.trace else 1.0)
    requests = sum(p.requests for p in pools)
    allocations = sum(p.allocations for p in pools)
    call_s, overhead = steady_phase(
        run, config, fixture, executables, timed, steady_s, result
    )
    calls = result.phases[-1]["sent"]
    harness.compile_seconds(result, groups)
    result.end_to_end["peak_rss_mb"] = harness.peak_rss_mb()

    if run.trace:
        layer = result.per_layer
        layer.update(
            harness.pass_metrics([s for g in groups for s in g], fixture.payloads)
        )
        layer["bufferpool.requests_per_call"] = (
            sum(p.requests for p in pools) - requests
        ) / calls
        layer["bufferpool.allocations_steady"] = float(
            sum(p.allocations for p in pools) - allocations
        )
        layer["bufferpool.retained_mb"] = sum(p.retained_bytes for p in pools) / 2**20
        layer["threadpool.chunks_per_call"] = statistics.mean(
            len(
                plan_chunks(
                    config.rows_per_call,
                    e.signature.batch_size,
                    config.options.get("num_threads", 1),
                )
            )
            for e in executables
        )
        layer.update(
            harness.amdahl_split(
                timed, executables, fixture.inputs, max(config.rows_per_call, 64)
            )
        )
        layer["baseline.reference_rows_per_s"] = fixture.reference_rows_per_s
        layer["trace.overhead_share"] = overhead
        layer["runtime.minor_faults_per_call"] = result.samples["minor_faults_per_call"]
        state = State(config, fixture, compilations, call_s, timed)
        for probe in config.probes:
            layer.update(probe(run, state))
        layer.update(run.probe.metrics())
    for executable in executables:
        executable.close()
    return result


# -- workload-specific probes (traced run only) ---------------------------------


def probe_two_threads(run: Run, state: State) -> Dict[str, float]:
    """Recompile with ``num_threads=2`` and measure, on both cores, what
    sharding the batch buys (or costs) against the 1-thread kernels."""
    config, fixture = state.config, state.fixture
    rows = config.rows_per_call
    speedups, busy = [], []
    for model, payload in enumerate(fixture.payloads):
        root, query = deserialize(payload)
        options = CompilerOptions(**{**config.options, "num_threads": 2})
        with compile_spn(root, query, options=options).executable as executable:
            with run.tracer.span("threadpool.two_thread_calls", model=model):
                seconds = harness.median_call_s(
                    state.timed, executable.execute, fixture.inputs[:rows], repeats=20
                )
            timeline = executable.last_timeline
            if fixtures.mismatches(
                executable.execute(fixture.inputs[:rows]), fixture.references[model][:rows]
            ):
                raise AssertionError("2-thread kernel disagrees with the reference")
        speedups.append(state.call_s[model] / seconds)
        if timeline is not None and timeline.makespan_seconds > 0:
            busy.append(timeline.busy_seconds / (2 * timeline.makespan_seconds))
    return {
        "threadpool.speedup_2t": statistics.mean(speedups),
        "threadpool.shard_busy_share": statistics.mean(busy) if busy else 0.0,
    }


def probe_api_cache_hit(run: Run, state: State) -> Dict[str, float]:
    """What ``CPUCompiler.log_likelihood`` on an already compiled model
    adds to the bare ``execute`` (cache lookup, NaN routing, checks)."""
    from repro import CPUCompiler

    fixture = state.fixture
    root, query = deserialize(fixture.payloads[0])
    compiler = CPUCompiler(
        batch_size=query.batch_size, support_marginal=True, **state.config.options
    )
    row = fixture.inputs[:1]
    executable = compiler.compile(root).executable
    try:
        with run.tracer.span("api.log_likelihood_calls"):
            through_api = harness.median_call_s(
                state.timed, partial(compiler.log_likelihood, root), row, repeats=200
            )
        bare = harness.median_call_s(state.timed, executable.execute, row, repeats=200)
    finally:
        executable.close()
    return {"api.cache_hit_call_us": (through_api - bare) * 1e6}


def probe_growth(run: Run, state: State) -> Dict[str, float]:
    """Compile the one three-times-larger class root once and fit, in
    total and per pass, the exponent k of seconds ~ hispn_ops**k against
    the workload's own models. k > 1 names a superlinear pass."""
    config = state.config
    manifest = fixtures.load_manifest()
    payload = fixtures.load_payload(manifest, "rat_growth")
    root, query = deserialize(payload)
    with run.tracer.span("compiler.compile_spn", op="growth") as span:
        start = time.perf_counter()
        big = compile_spn(root, query, options=CompilerOptions(**config.options))
    harness.add_pass_spans(run.tracer, span, "growth", start, big.timings.records)
    inputs = state.fixture.inputs
    with big.executable as executable:
        if fixtures.mismatches(
            executable.execute(inputs), inference.log_likelihood(root, inputs)
        ):
            raise AssertionError("growth kernel disagrees with the reference")
    small_ops = statistics.mean(
        manifest["models"][name]["hispn_ops"] for name in config.models
    )
    size_ratio = np.log(manifest["models"]["rat_growth"]["hispn_ops"] / small_ops)

    def exponent(big_s, small_s):
        if big_s <= 0 or not small_s or min(small_s) <= 0:
            return 0.0
        return float(np.log(big_s / statistics.mean(small_s)) / size_ratio)

    out = {
        "compiler.growth_exponent": exponent(
            big.compile_time, [c.compile_time for c in state.compilations]
        )
    }
    for stage in spec.GROWTH_STAGES:
        out[f"compiler.pass.{stage}.growth"] = exponent(
            big.stage_seconds.get(stage, 0.0),
            [c.stage_seconds.get(stage, 0.0) for c in state.compilations],
        )
    return out


def probe_tensorized(run: Run, state: State) -> Dict[str, float]:
    """The hand-tensorized NumPy baseline on the same class roots: the
    target ROADMAP item 3 sets for the compiled kernels."""
    from repro.baselines.rat_tensorized import TensorizedRatExecutor

    fixture = state.fixture
    roots = [deserialize(payload)[0] for payload in fixture.payloads]
    executor = TensorizedRatExecutor(roots)
    rows = state.config.rows_per_call
    with run.tracer.span("baseline.tensorized_calls"):
        seconds = harness.median_call_s(
            state.timed, executor.log_likelihoods, fixture.inputs[:rows], repeats=5
        )
    return {"baseline.tensorized_rows_per_s": rows * len(roots) / seconds}


def probe_gpusim(run: Run, state: State) -> Dict[str, float]:
    """The simulator's own profile of one steady-phase call. Simulated
    time is a model, never an end-to-end number; bytes are computed from
    buffer sizes by the simulator, not measured on a bus."""
    executable = state.executables[0]
    rows = state.config.rows_per_call
    executable.execute(state.fixture.inputs[:rows])
    profile = executable.last_profile
    serialized = profile.serialized_seconds
    by_direction = {"h2d": 0, "d2h": 0}
    for transfer in profile.transfers:
        if transfer.direction in by_direction:
            by_direction[transfer.direction] += transfer.num_bytes
    return {
        "gpusim.simulated_s_per_call": profile.makespan_seconds,
        "gpusim.transfer_share": profile.transfer_seconds / serialized,
        "gpusim.compute_share": profile.compute_seconds / serialized,
        "gpusim.overlap_share": profile.overlap_fraction,
        "gpusim.launches_per_call": float(len(profile.launches)),
        "gpusim.h2d_bytes_per_call": float(by_direction["h2d"]),
        "gpusim.d2h_bytes_per_call": float(by_direction["d2h"]),
    }


_SPEAKERS = ("speaker0", "speaker1", "speaker2")

CONFIGS = {
    "speaker_batch": BatchConfig(
        models=_SPEAKERS,
        options={},
        rows_per_call=8192,
        pool_rows=8192,
        compile_groups=((0, 1, 2),) * 9,
        probes=(probe_two_threads,),
    ),
    "speaker_rowwise": BatchConfig(
        models=_SPEAKERS,
        options={},
        rows_per_call=1,
        pool_rows=4096,
        compile_groups=((0, 1, 2),) * 9,
        nan_share=0.3,
        support_marginal=True,
        probes=(probe_api_cache_hit,),
    ),
    "rat_compile": BatchConfig(
        models=("rat0", "rat1", "rat2", "rat3"),
        options={"opt_level": 2, "max_partition_size": 2500},
        rows_per_call=1024,
        pool_rows=1024,
        compile_groups=((0,), (1,), (2,), (3,)),
        probes=(probe_growth, probe_tensorized),
    ),
    "speaker_gpu": BatchConfig(
        models=("speaker0",),
        options={"target": "gpu"},
        rows_per_call=8192,
        pool_rows=8192,
        compile_groups=((0,),) * 21,
        probes=(probe_gpusim,),
    ),
}
