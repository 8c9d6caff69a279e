"""Command-line driver: compile, inspect and run serialized SPN models.

Mirrors what the original project's `spnc` binary offers on top of the
library, operating on the binary exchange format (``.spnb``):

    python -m repro info model.spnb
    python -m repro compile model.spnb --target cpu --vectorize --dump-ir lower-to-lospn
    python -m repro run model.spnb inputs.npy -o loglik.npy --target gpu
    python -m repro sample model.spnb 1000 -o samples.npy

``inputs.npy``/outputs are plain NumPy arrays (``np.save`` format).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from ..compiler.pipeline import CompilerOptions, compile_spn
from ..spn.nodes import GraphStatistics
from ..spn.sampling import sample as sample_spn
from ..spn.serialization import deserialize_from_file


def _add_compiler_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target", choices=("cpu", "gpu"), default="cpu")
    parser.add_argument("--opt", type=int, default=1, choices=(0, 1, 2, 3),
                        help="optimization level (-O0..-O3)")
    parser.add_argument("--vectorize", nargs="?", const="lanes", default="batch",
                        choices=("off", "lanes", "batch"), metavar="MODE",
                        help="batch-loop vectorization mode: off, lanes or "
                             "batch (default: batch; a bare --vectorize "
                             "selects the fixed-lane SIMD strategy)")
    parser.add_argument("--vector-isa", choices=("avx2", "avx512", "neon"),
                        default="avx2")
    parser.add_argument("--no-veclib", action="store_true",
                        help="disable the vector math library")
    parser.add_argument("--no-shuffle", action="store_true",
                        help="use gathers instead of loads+shuffles")
    parser.add_argument("--partition", type=int, default=None, metavar="N",
                        help="max graph-partition size (ops per task)")
    parser.add_argument("--threads", type=int, default=1,
                        help="runtime worker threads the CPU batch is "
                             "sharded across (per-worker buffer arenas)")
    parser.add_argument("--streams", type=int, default=1,
                        help="GPU device streams for the chunked "
                             "transfer/compute software pipeline "
                             "(1 = serialized timeline)")
    parser.add_argument("--linear-space", action="store_true",
                        help="compute in linear instead of log space")
    parser.add_argument("--query",
                        choices=("joint", "mpe", "sample", "conditional",
                                 "expectation"),
                        default="joint",
                        help="query modality to compile: joint/marginal "
                             "log-likelihood (default), mpe (most probable "
                             "explanation), sample (seeded ancestral "
                             "sampling), conditional (log P(Q|E)) or "
                             "expectation (posterior moments)")
    parser.add_argument("--query-variables", default=None, metavar="A,B,...",
                        help="comma-separated feature indices forming the "
                             "query set Q of a conditional query")
    parser.add_argument("--moment", type=int, default=1, choices=(1, 2),
                        help="raw moment order for expectation queries")
    parser.add_argument("--structure-opt", default=None, metavar="PASSES",
                        help="structure-level optimization suite run on the "
                             "HiSPN graph before lowering: a comma list of "
                             "cse, prune (in order), or 'none'; "
                             "the default derives from -O (-O3 enables "
                             "cse,prune)")
    parser.add_argument("--accuracy-budget", type=float, default=0.0,
                        metavar="EPS",
                        help="max acceptable absolute log-likelihood error "
                             "for structure pruning; 0 limits pruning to "
                             "exactly-zero weights")
    parser.add_argument("--pipeline", default=None, metavar="SPEC",
                        help="override the pass pipeline with an mlir-opt "
                             "style spec (see --print-pipeline for the "
                             "default of any configuration)")
    parser.add_argument("--verify-each", nargs="?", const="structural",
                        default="off",
                        choices=("off", "structural", "boundaries",
                                 "every-pass"),
                        metavar="MODE",
                        help="per-pass instrumentation: off, structural "
                             "(IR verifier after every pass; the default "
                             "for a bare --verify-each), boundaries "
                             "(verifier + static checks at dialect "
                             "boundaries) or every-pass (verifier + "
                             "static checks after every pass)")


def _query_variables_from(args: argparse.Namespace) -> tuple:
    if not getattr(args, "query_variables", None):
        return ()
    return tuple(
        int(v.strip()) for v in args.query_variables.split(",") if v.strip()
    )


def _options_from(args: argparse.Namespace, collect_ir: bool = False) -> CompilerOptions:
    return CompilerOptions(
        target=args.target,
        opt_level=args.opt,
        query=args.query,
        query_variables=_query_variables_from(args),
        moment=args.moment,
        vectorize=args.vectorize,
        vector_isa=args.vector_isa,
        use_vector_library=not args.no_veclib,
        use_shuffle=not args.no_shuffle,
        max_partition_size=args.partition,
        num_threads=args.threads,
        streams=args.streams,
        use_log_space=not args.linear_space,
        structure_opt=args.structure_opt,
        accuracy_budget=args.accuracy_budget,
        pipeline=args.pipeline,
        verify_each=args.verify_each,
        collect_ir=collect_ir,
    )


def _cmd_info(args: argparse.Namespace) -> int:
    root, query = deserialize_from_file(args.model)
    stats = GraphStatistics(root)
    print(f"model: {args.model}")
    print(f"  nodes:      {stats.num_nodes}")
    print(f"  sums:       {stats.num_sums}")
    print(f"  products:   {stats.num_products}")
    print(f"  leaves:     {stats.num_leaves} "
          f"({stats.gaussian_share:.0%} Gaussian)")
    print(f"  features:   {stats.num_features}")
    print(f"  depth:      {stats.depth}")
    print(f"query:")
    print(f"  kind:       {query.kind}")
    print(f"  batch size: {query.batch_size}")
    print(f"  input type: {query.input_dtype}")
    print(f"  marginal:   {query.support_marginal}")
    print(f"  rel. error: {query.relative_error}")
    return 0


def _effective_query(args: argparse.Namespace, file_query):
    """The query to compile: the model file's unless ``--query`` overrides.

    A non-joint ``--query`` replaces the serialized (joint) query with
    one built from the CLI options via ``CompilerOptions.make_query``.
    """
    if args.query == "joint":
        return file_query
    return None  # compile_spn derives it from the options


def _cmd_compile(args: argparse.Namespace) -> int:
    root, query = deserialize_from_file(args.model)
    options = _options_from(args, collect_ir=bool(args.dump_ir))
    query = _effective_query(args, query)
    if args.print_pipeline:
        from ..compiler.pipeline import build_compile_pipeline

        _, spec = build_compile_pipeline(
            options, query or options.make_query()
        )
        print(spec)
        return 0
    result = compile_spn(root, query, options)
    print(f"compiled '{args.model}' for {args.target} "
          f"(-O{args.opt}, {result.num_tasks} task(s)) "
          f"in {result.compile_time:.3f}s")
    for stage, seconds in result.stage_seconds.items():
        print(f"  {stage:24s} {seconds * 1e3:9.2f} ms")
    if args.dump_ir:
        dump = result.ir_dumps.get(args.dump_ir)
        if dump is None:
            print(f"error: no IR dump for stage '{args.dump_ir}'; "
                  f"available: {', '.join(result.ir_dumps)}", file=sys.stderr)
            return 1
        print(dump)
    if args.emit_source:
        print(result.executable.source)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    root, query = deserialize_from_file(args.model)
    inputs = np.load(args.inputs)
    result = compile_spn(root, _effective_query(args, query), _options_from(args))
    if args.query == "sample":
        outputs = result.executable.execute(inputs, seed=args.seed)
    else:
        outputs = result.executable(inputs)
    if args.query in ("mpe", "sample", "expectation"):
        # Kernel outputs are row-major [heads, batch]; present them
        # batch-major (mpe: [score, completions...] per row).
        outputs = outputs.T
    if args.output:
        np.save(args.output, outputs)
        print(f"wrote {outputs.shape[0]} results to {args.output}")
    else:
        np.set_printoptions(threshold=20)
        print(outputs)
    if args.target == "gpu":
        profile = result.executable.last_profile
        print(f"simulated GPU time: {profile.total_seconds * 1e3:.3f} ms "
              f"({profile.transfer_fraction:.0%} data movement)")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    root, _ = deserialize_from_file(args.model)
    rng = np.random.default_rng(args.seed)
    samples = sample_spn(root, args.count, rng)
    if args.output:
        np.save(args.output, samples)
        print(f"wrote {args.count} samples to {args.output}")
    else:
        np.set_printoptions(threshold=20)
        print(samples)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    """End-to-end robustness check of the compile/execute path.

    Builds a tiny Gaussian SPN, injects a failure into a mid-pipeline
    pass and verifies that the graceful-degradation fallback still
    produces reference-exact log-likelihoods (plus a clean run as a
    control). Exits non-zero on any mismatch.
    """
    import warnings

    from ..api import CPUCompiler, FallbackWarning
    from ..spn import Gaussian, Product, Sum
    from ..spn.inference import log_likelihood as reference_ll
    from ..testing import faults

    spn = Sum(
        [
            Product([Gaussian(0, -1.0, 1.0), Gaussian(1, 0.5, 2.0)]),
            Product([Gaussian(0, 1.5, 0.5), Gaussian(1, -0.5, 1.5)]),
        ],
        [0.4, 0.6],
    )
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(64, 2))
    reference = reference_ll(spn, inputs)
    failures = 0

    def check(label, ok, detail=""):
        nonlocal failures
        status = "ok" if ok else "FAIL"
        print(f"  {label:42s} {status}{detail}")
        if not ok:
            failures += 1

    print("selftest: compile/execute robustness")

    clean = CPUCompiler(batch_size=32).log_likelihood(spn, inputs)
    check("clean compile matches reference",
          bool(np.allclose(clean, reference, atol=1e-5, rtol=1e-5)))

    compiler = CPUCompiler(batch_size=32, fallback="interpret")
    with faults.inject_pass_failure("cse"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = compiler.log_likelihood(spn, inputs)
    warned = [w for w in caught if issubclass(w.category, FallbackWarning)]
    check("interpreter fallback matches reference",
          bool(np.allclose(degraded, reference, atol=1e-9, rtol=0)))
    check("exactly one fallback warning", len(warned) == 1,
          f" ({len(warned)} warnings)")
    errors = compiler.diagnostics.errors()
    check("diagnostic names the failed stage",
          bool(errors) and errors[0].stage == "cse",
          f" (stage={errors[0].stage if errors else None})")

    print("selftest: static analyses catch seeded bugs")
    for label, expected, build in (
        ("use-after-free flagged by buffer-safety",
         "buffer-safety.use-after-free", _broken_module_use_after_free),
        ("linear underflow flagged by range analysis",
         "range.linear-underflow", _broken_module_underflow),
        ("dead pure result flagged by lint",
         "lint.unused-result", _broken_module_dead_result),
        ("unconfined shard write flagged by concurrency",
         "concurrency.shard-overlap", _broken_module_shard_overlap),
    ):
        from ..ir.analysis import run_checks

        findings = run_checks(build(), phase="final")
        names = {f.check for f in findings}
        check(label, expected in names, f" (reported: {sorted(names) or '-'})")

    if failures:
        print(f"selftest: {failures} check(s) failed", file=sys.stderr)
        return 1
    print("selftest: all checks passed")
    return 0


def _broken_module_use_after_free():
    """A function loading from a buffer after deallocating it."""
    from ..dialects import arith, func as func_dialect, memref as memref_dialect
    from ..ir import Builder, ModuleOp
    from ..ir.types import FloatType, IndexType, MemRefType

    module = ModuleOp.build()
    b = Builder.at_end(module.body)
    fn = b.create(func_dialect.FuncOp, "use_after_free", [], [])
    fb = Builder.at_end(fn.body)
    buf = fb.create(
        memref_dialect.AllocOp, MemRefType((4,), FloatType(64)), []
    ).result
    index = fb.create(arith.ConstantOp, 0, IndexType()).result
    fb.create(memref_dialect.DeallocOp, buf)
    fb.create(memref_dialect.LoadOp, buf, [index])  # use after free!
    fb.create(func_dialect.ReturnOp, [])
    return module


def _broken_module_underflow():
    """Linear-space probability product that underflows f64."""
    from ..dialects import func as func_dialect, lospn
    from ..ir import Builder, ModuleOp
    from ..ir.types import FloatType

    module = ModuleOp.build()
    b = Builder.at_end(module.body)
    fn = b.create(func_dialect.FuncOp, "underflow", [], [])
    fb = Builder.at_end(fn.body)
    f64 = FloatType(64)
    tiny_a = fb.create(lospn.ConstantOp, 1e-160, f64).result
    tiny_b = fb.create(lospn.ConstantOp, 1e-160, f64).result
    product = fb.create(lospn.MulOp, tiny_a, tiny_b)  # 1e-320 < DBL_MIN
    fb.create(lospn.LogOp, product.results[0])
    fb.create(func_dialect.ReturnOp, [])
    return module


def _broken_module_dead_result():
    """A pure op whose result is never used (dead code)."""
    from ..dialects import arith, func as func_dialect
    from ..ir import Builder, ModuleOp
    from ..ir.types import FloatType

    module = ModuleOp.build()
    b = Builder.at_end(module.body)
    fn = b.create(func_dialect.FuncOp, "dead_result", [], [])
    fb = Builder.at_end(fn.body)
    lhs = fb.create(arith.ConstantOp, 1.5, FloatType(64)).result
    rhs = fb.create(arith.ConstantOp, 2.5, FloatType(64)).result
    fb.create(arith.AddFOp, lhs, rhs)  # result never used
    fb.create(func_dialect.ReturnOp, [])
    return module


def _broken_module_shard_overlap():
    """A task writing its output at a constant batch index: row-sharded
    execution would race on that element across shards."""
    from ..ir import parse_module

    return parse_module(
        '"builtin.module"() ({\n'
        '  "lo_spn.kernel"() ({\n'
        "  ^bb0(%0: memref<?x2xf32>, %1: memref<1x?xf32>):\n"
        '    "lo_spn.task"(%0, %1) ({\n'
        "    ^bb0(%2: index, %3: memref<?x2xf32>, %4: memref<1x?xf32>):\n"
        '      %5 = "lo_spn.batch_read"(%3, %2) {staticIndex = 0 : i64, '
        "transposed = false} : (memref<?x2xf32>, index) -> f32\n"
        '      %6 = "arith.constant"() {value = 0 : i64} : () -> index\n'
        '      "memref.store"(%5, %4, %6, %6) : '
        "(f32, memref<1x?xf32>, index, index) -> ()\n"
        '    }) {batchSize = 4 : i64} : '
        "(memref<?x2xf32>, memref<1x?xf32>) -> ()\n"
        '    "lo_spn.kernel_return"() : () -> ()\n'
        '  }) {arg_types = [memref<?x2xf32>, memref<1x?xf32>], '
        "numInputs = 1 : i64, readonlyArgs = [0 : i64], result_types = [], "
        'sym_name = "overlapping_shards"} : () -> ()\n'
        "}) : () -> ()\n"
    )


def _demo_spn():
    """Small Gaussian mixture used when no ``.spnb`` model is given."""
    from ..spn import Gaussian, Product, Sum

    return Sum(
        [
            Product([Gaussian(0, -1.0, 1.0), Gaussian(1, 0.5, 2.0),
                     Gaussian(2, 0.0, 1.0)]),
            Product([Gaussian(0, 1.5, 0.5), Gaussian(1, -0.5, 1.5),
                     Gaussian(2, 2.0, 0.7)]),
            Product([Gaussian(0, 0.0, 2.0), Gaussian(1, 1.0, 1.0),
                     Gaussian(2, -2.0, 1.2)]),
        ],
        [0.3, 0.45, 0.25],
    )


def _serving_model(args: argparse.Namespace):
    """Resolve ``(name, spn)`` from an optional ``.spnb`` path."""
    if getattr(args, "model", None):
        root, _ = deserialize_from_file(args.model)
        import os

        return os.path.splitext(os.path.basename(args.model))[0], root
    return "demo", _demo_spn()


def _server_config(args: argparse.Namespace):
    from ..serving import BreakerConfig, ServerConfig

    return ServerConfig(
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        queue_capacity=args.queue_capacity,
        default_timeout_s=(
            None if args.timeout_ms is None else args.timeout_ms / 1e3
        ),
        breaker=BreakerConfig(cooldown_s=args.breaker_cooldown),
        workers_per_model=args.workers,
        kernel_threads=args.kernel_threads,
        max_parallel_batches=args.max_parallel_batches,
    )


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-batch", type=int, default=1024,
                        help="max rows coalesced per kernel call")
    parser.add_argument("--max-wait-us", type=int, default=2000,
                        help="max microseconds a lone request waits for "
                             "batch company")
    parser.add_argument("--queue-capacity", type=int, default=1024,
                        help="bounded admission queue depth (overflow is "
                             "rejected with a retry-after hint)")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        help="default per-request deadline")
    parser.add_argument("--workers", type=int, default=1,
                        help="batch workers per model")
    parser.add_argument("--kernel-threads", type=int, default=1,
                        help="runtime threads each compiled kernel "
                             "shards coalesced batches across")
    parser.add_argument("--max-parallel-batches", type=int, default=None,
                        help="per-model cap on concurrently executing "
                             "kernel batches (default: unbounded)")
    parser.add_argument("--breaker-cooldown", type=float, default=0.25,
                        help="circuit-breaker cooldown before half-open "
                             "probes (seconds)")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the async inference server with the HTTP facade.

    Publishes the model (a ``.spnb`` file, or a built-in demo SPN when
    omitted) and serves ``POST /v1/models/<name>:predict`` plus
    ``GET /healthz`` until interrupted.
    """
    from ..serving import InferenceServer
    from ..serving.httpd import serve_http

    name, spn = _serving_model(args)
    server = InferenceServer(config=_server_config(args))
    try:
        version = server.publish(name, spn)
        httpd = serve_http(server, host=args.host, port=args.port)
        host, port = httpd.server_address[:2]
        print(f"serving model '{name}' v{version.version} on "
              f"http://{host}:{port}")
        print(f"  predict: POST /v1/models/{name}:predict "
              f'{{"inputs": [[...]], "timeout_ms": 250}}')
        print(f"  health:  GET /healthz")
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            print("shutting down (draining in-flight requests)...")
        httpd.shutdown()
        httpd.server_close()
    finally:
        server.close(drain=True)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive an in-process server with Poisson traffic and verify the
    zero-lost-requests invariant.

    With ``--inject``, the named faults are armed for the middle third
    of the run (kernel failures trip the circuit breaker, which must
    recover once the faults clear). Exits non-zero when any request is
    lost, when any request fails terminally, or when the breaker is
    stuck open after recovery.
    """
    import json as json_module

    from ..serving import InferenceServer
    from ..serving.loadgen import poisson_load
    from ..spn.sampling import sample as sample_spn
    from ..testing import faults

    known_faults = {
        "kernel-fault": lambda: faults.inject_kernel_failure(),
        "kernel-nan": faults.inject_kernel_nan,
        "slow-chunk": lambda: faults.inject_slow_chunks(0.001),
    }
    injected = []
    if args.inject:
        injected = [f.strip() for f in args.inject.split(",") if f.strip()]
        unknown = sorted(set(injected) - set(known_faults))
        if unknown:
            print(f"error: unknown fault(s) {', '.join(unknown)}; "
                  f"available: {', '.join(sorted(known_faults))}",
                  file=sys.stderr)
            return 2

    name, spn = _serving_model(args)
    rng = np.random.default_rng(args.seed)
    rows = sample_spn(spn, 256, rng)

    server = InferenceServer(config=_server_config(args))
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"  {label:46s} {'ok' if ok else 'FAIL'}{detail}")
        if not ok:
            failures += 1

    try:
        server.publish(name, spn)
        timeout_s = None if args.timeout_ms is None else args.timeout_ms / 1e3

        # Arm faults (and optionally hot-swap) for the middle third of
        # the run from a side thread; the tail third must recover.
        import contextlib
        import threading

        def fault_window():
            time.sleep(args.duration / 3)
            with contextlib.ExitStack() as stack:
                for fault in injected:
                    stack.enter_context(known_faults[fault]())
                if args.swap_under_load:
                    server.swap(name, spn)
                time.sleep(args.duration / 3)

        chaos = None
        if injected or args.swap_under_load:
            chaos = threading.Thread(target=fault_window, daemon=True)
            chaos.start()

        print(f"loadgen: {args.qps:g} qps for {args.duration:g}s against "
              f"'{name}' (faults: {', '.join(injected) or 'none'}"
              f"{', swap-under-load' if args.swap_under_load else ''})")
        report = poisson_load(
            server, name, rows,
            rate_qps=args.qps, duration_s=args.duration,
            seed=args.seed, timeout_s=timeout_s,
        )
        if chaos is not None:
            chaos.join()

        outcomes = report["outcomes"]
        check("every request reached a terminal outcome",
              report["lost"] == 0, f" (lost={report['lost']})")
        check("no request failed terminally",
              outcomes["failed"] == 0, f" (failed={outcomes['failed']})")

        # Breaker must not be stuck open once the faults are gone: wait
        # out the cooldown, send a probe, and require closed.
        breaker_state = server.health()["models"][name]["breaker"]["state"]
        if injected and breaker_state != "closed":
            time.sleep(args.breaker_cooldown + 0.05)
            with contextlib.suppress(Exception):
                server.infer(name, rows[0])
            breaker_state = server.health()["models"][name]["breaker"]["state"]
        check("circuit breaker recovered (not stuck open)",
              breaker_state == "closed", f" (state={breaker_state})")

        payload = {
            "batched": report,
            "health": server.health(),
            "config": {
                "qps": args.qps, "duration_s": args.duration,
                "max_batch": args.max_batch, "max_wait_us": args.max_wait_us,
                "queue_capacity": args.queue_capacity,
                "timeout_ms": args.timeout_ms,
                "injected_faults": injected,
                "swap_under_load": bool(args.swap_under_load),
            },
        }
        if args.baseline:
            # Same open-loop traffic against a no-batching server:
            # max_batch=1 means one request per kernel call.
            from ..serving import ServerConfig

            naive_config = ServerConfig(
                max_batch=1,
                max_wait_us=0,
                queue_capacity=args.queue_capacity,
                default_timeout_s=timeout_s,
                workers_per_model=args.workers,
            )
            with InferenceServer(config=naive_config) as naive_server:
                naive_server.publish(name, spn)
                payload["naive"] = poisson_load(
                    naive_server, name, rows,
                    rate_qps=args.qps, duration_s=args.duration,
                    seed=args.seed, timeout_s=timeout_s,
                )
            print(f"  naive (max_batch=1): "
                  f"{payload['naive']['achieved_qps']:.0f} qps, "
                  f"p99 {payload['naive']['latency_ms']['p99']:.2f} ms "
                  f"vs batched {report['achieved_qps']:.0f} qps, "
                  f"p99 {report['latency_ms']['p99']:.2f} ms")

        ok = outcomes["ok"]
        print(f"  outcomes: ok={ok} rejected={outcomes['rejected']} "
              f"expired={outcomes['expired']} failed={outcomes['failed']} "
              f"degraded={report['degraded']}")
        print(f"  latency: p50 {report['latency_ms']['p50']:.2f} ms, "
              f"p99 {report['latency_ms']['p99']:.2f} ms "
              f"({report['achieved_qps']:.0f} qps served)")

        if args.output:
            with open(args.output, "w") as handle:
                json_module.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"  wrote report to {args.output}")
    finally:
        server.close(drain=True)

    if failures:
        print(f"loadgen: {failures} check(s) failed", file=sys.stderr)
        return 1
    print("loadgen: all checks passed")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Cross-backend differential fuzzing (see repro.testing.oracle).

    Generates seeded random SPN/query/input cases, runs each through
    every backend configuration and compares against the reference
    evaluator under calibrated tolerances; interleaves IR print/parse
    round-trip and pass-permutation fuzzing, and adds one sum-layer case
    (wide fan-in, shared children) per four generated ones. Divergences
    are shrunk,
    dumped as reproducers (``--artifact-dir`` / ``$SPNC_ARTIFACT_DIR``)
    and make the command exit non-zero.
    """
    from ..testing.generators import QUERY_CASE_KINDS
    from ..testing.oracle import (
        DEFAULT_CONFIGS,
        DEFAULT_STRUCTURE_BUDGET,
        DifferentialOracle,
    )

    if getattr(args, "structure_opt", False):
        budget = args.accuracy_budget
        if budget is None:
            budget = DEFAULT_STRUCTURE_BUDGET

        def structure_progress(message: str) -> None:
            print(f"  {message}", file=sys.stderr)

        oracle = DifferentialOracle(
            artifact_dir=args.artifact_dir, log=structure_progress
        )
        print(f"structure-fuzzing {args.count} case(s), seed {args.seed}, "
              f"accuracy budget {budget}...")
        report = oracle.fuzz_structure(
            args.count,
            seed=args.seed,
            start=args.start,
            accuracy_budget=budget,
            max_features=args.max_features,
            max_depth=args.max_depth,
        )
        print(report.summary())
        return 0 if report.ok else 1

    query_kinds = tuple(
        kind.strip() for kind in args.queries.split(",") if kind.strip()
    )
    unknown_kinds = sorted(set(query_kinds) - set(QUERY_CASE_KINDS))
    if unknown_kinds:
        print(f"error: unknown query kind(s) {', '.join(unknown_kinds)}; "
              f"available: {', '.join(QUERY_CASE_KINDS)}", file=sys.stderr)
        return 2

    configs = DEFAULT_CONFIGS
    if args.configs:
        wanted = {name.strip() for name in args.configs.split(",") if name.strip()}
        known = {spec.name for spec in DEFAULT_CONFIGS}
        unknown = wanted - known
        if unknown:
            print(f"error: unknown config(s) {', '.join(sorted(unknown))}; "
                  f"available: {', '.join(sorted(known))}", file=sys.stderr)
            return 2
        configs = tuple(s for s in DEFAULT_CONFIGS if s.name in wanted)

    def progress(message: str) -> None:
        print(f"  {message}", file=sys.stderr)

    oracle = DifferentialOracle(
        configs=configs, artifact_dir=args.artifact_dir, log=progress
    )
    print(f"fuzzing {args.count} case(s), seed {args.seed}, "
          f"{len(configs)} backend config(s), "
          f"queries: {', '.join(query_kinds)}...")
    report = oracle.fuzz(
        args.count,
        seed=args.seed,
        start=args.start,
        max_features=args.max_features,
        max_depth=args.max_depth,
        ir_share=0.0 if args.no_ir else 0.25,
        query_kinds=query_kinds,
    )
    if "joint" in query_kinds:
        # One sum-layer case per four generated ones: the shapes the
        # random generator rarely reaches (fan-in 9-144, shared children).
        oracle.fuzz_layers(
            -(-args.count // 4),
            seed=args.seed,
            start=args.start // 4,
            ir=not args.no_ir,
            report=report,
        )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Static analysis over textual IR modules (see repro.ir.analysis).

    Runs the registered checks (buffer safety, log-space range, lint)
    over each module and prints the findings with op paths. Exits
    non-zero when any finding at or above ``--min-severity`` (default:
    warning) is reported; reproducers are dumped via
    ``--artifact-dir`` / ``$SPNC_ARTIFACT_DIR``.
    """
    from ..diagnostics import (
        Diagnostic,
        ErrorCode,
        Severity,
        dump_reproducer,
    )
    from ..ir import parse_module, print_op, verify
    from ..ir.analysis import registered_checks, run_checks, severity_at_least
    from ..ir.verifier import VerificationError

    if getattr(args, "structure_stats", None):
        return _analyze_structure_stats(args)

    checks = None
    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = sorted(set(checks) - set(registered_checks()))
        if unknown:
            print(f"error: unknown check(s) {', '.join(unknown)}; "
                  f"available: {', '.join(registered_checks())}",
                  file=sys.stderr)
            return 2
    threshold = {
        "note": Severity.NOTE,
        "warning": Severity.WARNING,
        "error": Severity.ERROR,
    }[args.min_severity]

    if not args.modules and not args.corpus:
        print("error: nothing to analyze (pass module files and/or --corpus N)",
              file=sys.stderr)
        return 2

    as_json = getattr(args, "format", "text") == "json"
    records = []  # structured per-module reports (--format json)

    def emit(message: str, err: bool = False) -> None:
        if not as_json:
            print(message, file=sys.stderr if err else sys.stdout)

    modules = []  # (label, module) pairs
    failures = 0
    for path in args.modules:
        if path == "-":
            text = sys.stdin.read()
            label = "<stdin>"
        else:
            with open(path) as handle:
                text = handle.read()
            label = path
        modules.append((label, parse_module(text)))
    if args.corpus:
        from ..ir.pipeline_spec import parse_pipeline
        from ..testing.generators import CaseGenerator
        from ..testing.oracle import _lowered_module

        generator = CaseGenerator(seed=args.seed)
        for index in range(args.corpus):
            case = generator.case(index)
            for vec in ("off", "batch"):
                label = f"corpus(seed={args.seed}, index={index}, {vec})"
                module = _lowered_module(case, vec)
                try:
                    # Cleanup pipeline under every-pass instrumentation:
                    # the checks run after each pass, so a pass that
                    # breaks an invariant fails right here.
                    parse_pipeline(
                        "canonicalize,cse,licm,dce", verify_each="every-pass"
                    ).run(module)
                except Exception as error:
                    emit(f"{label}: FAIL {type(error).__name__}: {error}")
                    records.append({
                        "label": label,
                        "status": "error",
                        "error": f"{type(error).__name__}: {error}",
                        "findings": [],
                    })
                    failures += 1
                    continue
                modules.append((label, module))

    for label, module in modules:
        try:
            verify(module)
        except VerificationError as error:
            emit(f"{label}: error: structural verification failed: {error}")
            records.append({
                "label": label,
                "status": "error",
                "error": f"structural verification failed: {error}",
                "findings": [],
            })
            failures += 1
            continue
        findings = run_checks(module, checks=checks, phase=args.phase)
        gating = [
            f for f in findings if severity_at_least(f.severity, threshold)
        ]
        for finding in findings:
            emit(f"{label}: {finding.render()}")
        record = {
            "label": label,
            "status": "findings" if gating else "clean",
            "findings": [
                {
                    "check": f.check,
                    "severity": str(f.severity),
                    "message": f.message,
                    "op_path": f.op_path,
                    "detail": f.detail,
                    "gating": severity_at_least(f.severity, threshold),
                }
                for f in findings
            ],
        }
        if gating:
            failures += 1
            diagnostic = Diagnostic(
                severity=Severity.ERROR,
                code=ErrorCode.ANALYSIS_FAILED,
                message=(
                    f"static analysis reported {len(gating)} finding(s) "
                    f"at or above '{args.min_severity}' for {label}"
                ),
                op_path=gating[0].op_path,
                detail={"findings": [f.render() for f in gating]},
            )
            reproducer = dump_reproducer(
                diagnostic,
                module_text=print_op(module),
                artifact_dir=args.artifact_dir,
            )
            if reproducer:
                emit(f"{label}: reproducer dumped to {reproducer}", err=True)
                record["reproducer"] = reproducer
        else:
            emit(f"{label}: clean ({len(findings)} finding(s) below "
                 f"'{args.min_severity}')")
        records.append(record)
    if as_json:
        import json as json_module

        json_module.dump(
            {
                "checks": checks or sorted(registered_checks()),
                "phase": args.phase,
                "min_severity": args.min_severity,
                "modules": records,
                "failures": failures,
                "ok": failures == 0,
            },
            sys.stdout,
            indent=2,
            default=repr,
        )
        print()
    if failures:
        emit(f"analyze: {failures} module(s) with findings", err=True)
        return 1
    return 0


def _analyze_structure_stats(args: argparse.Namespace) -> int:
    """The ``analyze --structure-stats`` report (architecture §17).

    Profiles a model's HiSPN graph *before* any structure pass runs, so
    the numbers estimate what the optimization suite would buy: the
    duplicate-op count is exactly what ``structure-cse`` merges, the
    weight histogram shows the mass ``structure-prune`` could drop at a
    given budget, and the dense layers are the sum groups the lowering
    emits as one ``lo_spn.weighted_sum`` each.
    """
    from ..compiler.frontend import build_hispn_module
    from ..compiler.structure import render_structure_stats, structure_stats

    root, query = deserialize_from_file(args.structure_stats)
    module = build_hispn_module(root, query)
    stats = structure_stats(module)
    if getattr(args, "format", "text") == "json":
        import json as json_module

        json_module.dump(
            {"model": args.structure_stats, **stats}, sys.stdout, indent=2
        )
        print()
    else:
        print(f"model: {args.structure_stats}")
        print(render_structure_stats(stats))
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    from ..diagnostics import PassError
    from ..ir import parse_module, print_op, verify
    from ..ir.pipeline_spec import parse_pipeline, registered_passes

    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as handle:
            text = handle.read()
    module = parse_module(text)
    verify(module)
    try:
        manager = parse_pipeline(args.pipeline, verify_each=args.verify_each)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        timing = manager.run(module)
    except PassError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(print_op(module))
    for finding in manager.analysis_findings:
        print(finding.render(), file=sys.stderr)
    if args.timing:
        print(timing.report(), file=sys.stderr)
    return 0


def _cmd_pipelines(args: argparse.Namespace) -> int:
    """Print the declarative pipeline for every registered configuration.

    One line per ``(target, opt_level, vectorize)`` combination, in a
    stable format the CI canary diffs against the golden snapshots
    (``tests/compiler/golden_pipelines.txt``). Every printed spec is
    constructible by ``repro.ir.pipeline_spec.build_pipeline`` (and
    therefore usable with ``compile --pipeline``).
    """
    from ..compiler.targets import get_target, registered_targets

    targets = registered_targets()
    if args.target:
        if args.target not in targets:
            print(f"error: unknown target '{args.target}'; "
                  f"registered: {', '.join(targets)}", file=sys.stderr)
            return 2
        targets = [args.target]
    for target_name in targets:
        target = get_target(target_name)
        for opt_level in range(4):
            for vectorize in ("off", "lanes", "batch"):
                options = CompilerOptions(
                    target=target_name,
                    opt_level=opt_level,
                    vectorize=vectorize,
                )
                spec = target.pipeline(options)
                print(f"{target_name} -O{opt_level} vectorize={vectorize}: {spec}")
    # Query-modality section: the registered pipeline for every non-joint
    # query kind at the default configuration. The same pass registry
    # serves every modality (no target special-casing) — this snapshot
    # pins that property.
    for target_name in targets:
        target = get_target(target_name)
        for kind in ("mpe", "sample", "conditional", "expectation"):
            options = CompilerOptions(
                target=target_name,
                query=kind,
                query_variables=(0,) if kind == "conditional" else (),
            )
            spec = target.pipeline(options, options.make_query())
            print(f"{target_name} -O1 query={kind}: {spec}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPNC: compile and run Sum-Product Network inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="show model and query statistics")
    info.add_argument("model")
    info.set_defaults(fn=_cmd_info)

    comp = sub.add_parser("compile", help="compile a model and report stats")
    comp.add_argument("model")
    _add_compiler_arguments(comp)
    comp.add_argument("--dump-ir", metavar="STAGE", default=None,
                      help="print the IR after the named pipeline stage")
    comp.add_argument("--emit-source", action="store_true",
                      help="print the generated kernel source")
    comp.add_argument("--print-pipeline", action="store_true",
                      help="print the textual pass pipeline for this "
                           "configuration and exit without compiling")
    comp.set_defaults(fn=_cmd_compile)

    run = sub.add_parser("run", help="compile and execute on an input array")
    run.add_argument("model")
    run.add_argument("inputs", help="input .npy array [batch, features]")
    run.add_argument("-o", "--output", default=None)
    run.add_argument("--seed", type=int, default=0,
                     help="random seed for --query sample (execute-time "
                          "parameter; same seed, same samples)")
    _add_compiler_arguments(run)
    run.set_defaults(fn=_cmd_run)

    opt = sub.add_parser(
        "opt", help="run a pass pipeline over textual IR (mlir-opt style)"
    )
    opt.add_argument("input", help="IR file in generic textual form ('-' = stdin)")
    opt.add_argument("--pipeline", default="canonicalize,cse,dce",
                     help="comma-separated pass list")
    opt.add_argument("--verify-each", nargs="?", const="structural",
                     default="off",
                     choices=("off", "structural", "boundaries", "every-pass"),
                     metavar="MODE",
                     help="per-pass instrumentation: off, structural "
                          "(verifier only; the default for a bare "
                          "--verify-each), boundaries (static checks after "
                          "the last pass) or every-pass (verifier + static "
                          "checks after every pass)")
    opt.add_argument("--timing", action="store_true",
                     help="print per-pass timing to stderr")
    opt.set_defaults(fn=_cmd_opt)

    analyze = sub.add_parser(
        "analyze",
        help="run static analyses (buffer safety, range, lint) over IR",
    )
    analyze.add_argument("modules", nargs="*", metavar="MODULE",
                         help="IR file(s) in generic textual form "
                              "('-' = stdin)")
    analyze.add_argument("--checks", default=None, metavar="A,B,...",
                         help="comma-separated subset of checks "
                              "(default: all registered)")
    analyze.add_argument("--phase", choices=("mid", "final"), default="final",
                         help="analysis phase: 'final' (default; full "
                              "strictness) or 'mid' (suppress rules that "
                              "are transient between passes)")
    analyze.add_argument("--min-severity",
                         choices=("note", "warning", "error"),
                         default="warning",
                         help="lowest severity that fails the command "
                              "(default: warning)")
    analyze.add_argument("--corpus", type=int, default=None, metavar="N",
                         help="also analyze N generated lowered modules "
                              "(run through the cleanup pipeline at "
                              "verify_each=every-pass)")
    analyze.add_argument("--seed", type=int, default=0,
                         help="seed for --corpus generation")
    analyze.add_argument("--artifact-dir", default=None,
                         help="reproducer dump directory "
                              "(default: $SPNC_ARTIFACT_DIR)")
    analyze.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format: human-readable text (default) "
                              "or a machine-readable JSON report on stdout "
                              "(findings as structured records)")
    analyze.add_argument("--structure-stats", default=None, metavar="MODEL",
                         help="instead of static checks, print the "
                              "structure-optimization opportunity profile "
                              "of a .spnb model: op counts by kind, sharing "
                              "factor, prunable-weight histogram and dense "
                              "sum layers (honors --format json)")
    analyze.set_defaults(fn=_cmd_analyze)

    pipelines = sub.add_parser(
        "pipelines",
        help="print the declarative pass pipeline for every target/-O level",
    )
    pipelines.add_argument("--target", default=None,
                           help="restrict to one registered target")
    pipelines.set_defaults(fn=_cmd_pipelines)

    samp = sub.add_parser("sample", help="draw samples from the model")
    samp.add_argument("model")
    samp.add_argument("count", type=int)
    samp.add_argument("-o", "--output", default=None)
    samp.add_argument("--seed", type=int, default=None)
    samp.set_defaults(fn=_cmd_sample)

    selftest = sub.add_parser(
        "selftest",
        help="verify fallback robustness under an injected pass failure",
    )
    selftest.set_defaults(fn=_cmd_selftest)

    serve = sub.add_parser(
        "serve",
        help="run the async inference server (dynamic batching + HTTP)",
    )
    serve.add_argument("model", nargs="?", default=None,
                       help=".spnb model file (default: built-in demo SPN)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="HTTP port (0 = OS-assigned)")
    _add_serving_arguments(serve)
    serve.set_defaults(fn=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="Poisson load generator against an in-process server "
             "(verifies zero lost requests)",
    )
    loadgen.add_argument("model", nargs="?", default=None,
                         help=".spnb model file (default: built-in demo SPN)")
    loadgen.add_argument("--qps", type=float, default=500.0,
                         help="target Poisson arrival rate")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="seconds of generated traffic")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--inject", default=None, metavar="A,B,...",
                         help="faults armed mid-run: kernel-fault, "
                              "kernel-nan, slow-chunk")
    loadgen.add_argument("--swap-under-load", action="store_true",
                         help="hot-swap the model mid-run (drain-before-"
                              "unload must drop zero requests)")
    loadgen.add_argument("--baseline", action="store_true",
                         help="also measure the naive one-request-per-"
                              "kernel baseline")
    loadgen.add_argument("-o", "--output", default=None, metavar="FILE",
                         help="write the JSON report (e.g. "
                              "BENCH_serving.json)")
    _add_serving_arguments(loadgen)
    loadgen.set_defaults(fn=_cmd_loadgen)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz every backend against the reference",
    )
    fuzz.add_argument("count", type=int, help="number of generated cases")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--start", type=int, default=0, metavar="N",
                      help="first case index (resume/shard long runs)")
    fuzz.add_argument("--max-features", type=int, default=5)
    fuzz.add_argument("--max-depth", type=int, default=3)
    fuzz.add_argument("--configs", default=None, metavar="A,B,...",
                      help="comma-separated subset of backend configs")
    fuzz.add_argument("--queries",
                      default="joint,mpe,sample,conditional,expectation",
                      metavar="A,B,...",
                      help="comma-separated query modalities to fuzz "
                           "(round-robin; default: all five kinds)")
    fuzz.add_argument("--no-ir", action="store_true",
                      help="skip IR round-trip/pass-permutation fuzzing")
    fuzz.add_argument("--structure-opt", action="store_true",
                      help="fuzz the structure-optimization suite instead: "
                           "random permutations of cse/prune per "
                           "case, asserting exact semantics for CSE-only "
                           "spellings and within-budget max-abs "
                           "log-likelihood error otherwise, across cpu "
                           "off/lanes/batch and gpu-sim")
    fuzz.add_argument("--accuracy-budget", type=float, default=None,
                      metavar="EPS",
                      help="accuracy budget for --structure-opt fuzzing "
                           "(default: 0.05)")
    fuzz.add_argument("--artifact-dir", default=None,
                      help="reproducer dump directory "
                           "(default: $SPNC_ARTIFACT_DIR)")
    fuzz.set_defaults(fn=_cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # `--selftest` / `--fuzz` are accepted as flag aliases for the
    # subcommands so CI can call `python -m repro --selftest` and
    # `python -m repro --fuzz 200 --seed 0`.
    argv = [
        {"--selftest": "selftest", "--fuzz": "fuzz"}.get(a, a) for a in argv
    ]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
