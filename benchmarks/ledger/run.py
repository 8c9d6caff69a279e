"""Run one ledger workload and print its result line.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

This is the command BENCHMARK.json names. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1`` (0 where the workload does not
exercise the layer). The exit code is 0 unless the run itself broke; a
reference mismatch shows as ``correct: false`` and ``failed > 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up, one compile, first model only")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for the details and trace files")
    args = parser.parse_args(argv)

    # One harness thread plus one kernel/server worker: keep the BLAS
    # and OpenMP pools out of it. Must be set before NumPy is imported.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    # Replace the script's own directory on the path (its module names,
    # such as ``trace``, would shadow the standard library's).
    sys.path[:1] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.ledger import spec
    from benchmarks.ledger.harness import Run

    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload (expected one of {', '.join(spec.WORKLOADS)})")
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=spec.RUN_SECONDS if args.seconds is None else args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    result = execute(run)
    line = report(run, result, args.out)
    print(json.dumps(line))
    return 0


def execute(run):
    """Dispatch to the workload; returns its ``harness.Result``."""
    if run.workload == "serve_poisson":
        from benchmarks.ledger.serve import run_serve

        return run_serve(run)
    from benchmarks.ledger.batch import CONFIGS, run_batch

    return run_batch(run, CONFIGS[run.workload])


def report(run, result, out_dir: str) -> dict:
    """Print the per-phase counts, write the details (and the trace) under
    ``out_dir`` and return the result line."""
    from benchmarks.ledger import spec

    for phase in result.phases:
        print(
            f"{run.workload} {phase['phase']}: sent {phase['sent']} "
            f"ok {phase['ok']} failed {phase['failed']}"
        )
    if run.trace:
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        values = {name: 0.0 for name in units}
        values.update(result.per_layer)
    else:
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        values = result.end_to_end
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{run.workload}-seed{run.seed}-trace{int(run.trace)}")
    with open(stem + ".json", "w") as handle:
        json.dump(
            {**line, "phases": result.phases, "samples": result.samples,
             "seconds": run.seconds, "smoke": run.smoke,
             "host_readings_ms": run.probe.readings},
            handle, indent=1,
        )
    if run.trace:
        run.tracer.write_chrome(stem + ".trace.json")
    return line


if __name__ == "__main__":
    sys.exit(main())
