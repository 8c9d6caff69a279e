"""Run the whole ledger: every workload, each in its own child process.

    PYTHONPATH=src python -m benchmarks.ledger --seed N [--trace]
        [--workload NAME ...] [--repeats R] [--smoke] [--seconds S] [--out DIR]

Children run one after another (clean caches, clean ``ru_maxrss``), in
the order given. The untraced run of a workload gives its end-to-end
metrics; ``--trace`` adds a second, traced run that gives the per-layer
numbers and a Chrome-trace file. ``--repeats R`` runs seeds N..N+R-1 and
prints, per metric, the median, the quartiles and their distance as a
share of the median (the spread a bound has to exceed); the summary is
also written to ``<out>/summary-seedN.json`` with the host fingerprint.
The exit code is non-zero if any run broke or any output disagreed with
its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from . import spec

HERE = os.path.dirname(os.path.abspath(__file__))


def host_fingerprint() -> dict:
    """What a reader needs to judge whether two sets of numbers are
    from comparable machines."""
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_child(workload: str, seed: int, trace: int, args):
    """One ``run.py`` child; its log goes under ``--out``. Returns the
    details ``run.py`` wrote (the result line plus phases and sample
    counts), or ``None`` if the run produced no result."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out,
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".log", "w") as handle:
        handle.write(done.stdout)
        handle.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"{workload}: run failed (exit {done.returncode}), see {stem}.log")
        return None
    with open(stem + ".json") as handle:
        details = json.load(handle)
    for phase in details["phases"]:
        print(
            f"{workload} seed {seed} {phase['phase']}: sent {phase['sent']} "
            f"ok {phase['ok']} failed {phase['failed']}"
        )
    share = details["failed"] / details["attempted"]
    samples = ", ".join(f"{k} {v}" for k, v in details["samples"].items())
    print(f"{workload} seed {seed}: failed_share {share:.6f}; samples: {samples}")
    return details


def summarize(runs: list) -> dict:
    """Median, quartiles and spread per metric over the runs of one
    workload (quartiles need two runs or more)."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        row = {"n": len(values), "median": median}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        out[name] = row
    return out


def print_table(title: str, rows, summary: dict) -> None:
    """One row per metric, one column per workload (medians)."""
    names = list(summary)
    print(f"\n{title}")
    print(f"{'metric':44s} {'unit':6s} {'bound':>6s} " + " ".join(f"{n:>15s}" for n in names))
    for name, unit, *rest in rows:
        bound = f"{rest[1]:.0%}" if len(rest) > 1 else "-"
        values = [summary[workload][name] for workload in names]
        if not any(v["median"] for v in values):
            continue
        cells = " ".join(
            f"{v['median']:15.6g}" if v["median"] else f"{'-':>15s}" for v in values
        )
        print(f"{name:44s} {unit:6s} {bound:>6s} {cells}")
        if "spread" in values[0]:
            spreads = " ".join(f"{v['spread']:15.3f}" for v in values)
            print(f"{'  spread (q3-q1)/median, n=' + str(values[0]['n']):58s} {spreads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec.RUN_SECONDS)

    workloads = args.workload or list(spec.WORKLOADS)
    seeds = range(args.seed, args.seed + args.repeats)
    broken = False
    document = {"host": host_fingerprint(), "seconds": args.seconds,
                "seeds": list(seeds), "workloads": {}}
    for trace, title, rows in (
        (0, "end-to-end (untraced runs)", spec.END_TO_END),
        (1, "per layer (traced runs; '-' = layer not exercised)", spec.PER_LAYER),
    ):
        if trace and not args.trace:
            continue
        summary = {}
        for workload in workloads:
            runs = [run_child(workload, seed, trace, args) for seed in seeds]
            broken = broken or any(run is None or not run["correct"] for run in runs)
            runs = [run for run in runs if run is not None]
            if runs:
                summary[workload] = summarize(runs)
                document["workloads"].setdefault(workload, {}).update(summary[workload])
        if summary:
            print_table(title, rows, summary)
    path = os.path.join(args.out, f"summary-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nsummary: {path}")
    if args.trace:
        print(f"traces:  {args.out}/<workload>-seed<N>-trace1.trace.json")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
