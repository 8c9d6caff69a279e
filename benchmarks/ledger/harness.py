"""What every workload shares: the run's context, timing helpers, the
compile-phase measurement and the layout of a result.

Every layer is measured from outside: the harness times its own calls
into public functions, and the per-pass split is read from the
``CompilationResult.timings.records`` the compiler already returns.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from . import spec
from .trace import Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


@dataclass
class Run:
    """One invocation of one workload."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: ~1 s self-check: one set-up, one compile group.
    smoke: bool = False
    #: Test hook: add 1.0 to this reference row after set-up, so that the
    #: output check must fail (``test_ledger.py``).
    corrupt_row: int = -1
    tracer: Tracer = field(init=False)
    probe: "HostProbe" = field(init=False)

    def __post_init__(self):
        self.tracer = Tracer(self.trace)
        self.probe = HostProbe()


@dataclass
class Result:
    """What a workload hands back; ``run.py`` turns it into the result line."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Sample counts behind the timings.
    samples: Dict[str, int] = field(default_factory=dict)
    #: {"phase", "sent", "ok", "failed"} per phase, printed by ``run.py``.
    phases: List[dict] = field(default_factory=list)

    def count(self, phase: str, sent: int, failed: int) -> None:
        self.attempted += sent
        self.failed += failed
        self.phases.append(
            {"phase": phase, "sent": sent, "ok": sent - failed, "failed": failed}
        )


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def latency_metrics(result: Result, seconds: Sequence[float]) -> None:
    """p50 and p95 in ms of per-operation latencies given in seconds.

    p99 is kept out of the bounded metrics: on this class of host it is
    set by bursts of interference (calls that take twice as long, many in
    a row) and its run-to-run spread (0.33 on ``speaker_rowwise``) is
    wider than any bound allowed. The traced run reports it per layer.
    """
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    result.end_to_end["latency_ms_p50"] = percentile(ms, 50)
    result.end_to_end["latency_ms_p95"] = percentile(ms, 95)
    result.per_layer["steady.latency_ms_p99"] = percentile(ms, 99)
    result.samples["latency"] = len(ms)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


#: Local-variable slots of the candidate ``timed`` frames (8 bytes each):
#: all larger than CPython's 16 KiB frame-stack chunk, 2 KiB apart.
TIMED_FRAME_SLOTS = (2304, 2560, 2816, 3072)


def make_timed(slots: int) -> Callable:
    """``timed(f, x, span=None) -> (f(x), seconds)`` from a frame of
    ``slots`` unused local slots; see :func:`pick_timed`."""
    unused = " = ".join(f"p{i}" for i in range(slots))
    source = f"""def timed(f, x, span=None):
    if 0:
        {unused} = None
    if span is None:
        start = perf_counter()
        out = f(x)
        return out, perf_counter() - start
    start = perf_counter()
    with span():
        out = f(x)
    return out, perf_counter() - start
"""
    namespace = {"perf_counter": time.perf_counter}
    exec(source, namespace)
    return namespace["timed"]


def pick_timed(executables, batch: np.ndarray) -> Callable:
    """The ``timed`` wrapper every timed kernel call of a run goes through.

    CPython 3.11 keeps interpreter frames on a stack of 16 KiB chunks and
    unmaps a chunk the moment it is empty. A generated kernel task is one
    function with up to ~1800 locals (a ~14 KiB frame); when such a frame
    happens to end within a few hundred bytes of a chunk's end, every
    Python call the task makes (``BufferPool.buffer`` alone, ~1800 times
    per RAT-SPN call) maps a fresh chunk, faults it in and unmaps it
    again. Where the frame lands depends on the size of every frame
    beneath it, so unrelated edits to a caller moved ``rat_compile``
    between 33, 45 and 93 ms per call with the kernels unchanged.

    ``timed`` takes the callers out of it: its own frame is larger than
    a chunk, so it always starts a fresh one, and what lies above it
    depends on ``src/`` alone. It reads the clock inside that frame, so
    the one chunk it costs per call is outside the timed region. Of four
    frame sizes 2 KiB apart the one whose calls fault least is used (the
    bad window is well under 2 KiB wide); ``runtime.minor_faults_per_call``
    shows what was left.
    """
    best = None
    for slots in TIMED_FRAME_SLOTS:
        timed = make_timed(slots)
        for executable in executables:
            timed(executable.execute, batch)
        before = minor_faults()
        for executable in executables:
            timed(executable.execute, batch)
        faults = minor_faults() - before
        if best is None or faults < best[0]:
            best = (faults, timed)
    return best[1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostProbe:
    """Reads the host's speed between operations, so that a run can
    report its timings from the state the host was in most of the time.

    The sandbox this ledger was built on has three states that last from
    a second to a quarter of a minute each: a common one, a fast one
    (this probe reads ~25 % less and every kernel call is that much
    faster) and bursts of interference (calls take up to twice as long,
    a dozen in a row). A plain median over a steady phase landed in
    whichever state the run saw most, and the tail percentiles in the
    bursts. So a steady phase reports its timings from the calls it made
    while the probe read within 10 % of its most common reading, and
    says how many calls it set aside. On a quiet host with one speed
    nothing is set aside.

    A reading is the best of three windows of a fixed NumPy loop that
    allocates nothing (so it reads the processor and not the allocator).
    """

    #: Readings within this ratio of the most common one are "usual".
    WITHIN = 1.10
    #: Seconds of work between two readings in a steady phase.
    EVERY_S = 0.05

    def __init__(self):
        self._values = np.linspace(0.1, 1.0, 1 << 14)
        self._scratch = np.empty_like(self._values)
        #: Milliseconds per window, in the order taken.
        self.readings: List[float] = []

    def read(self) -> int:
        """Take a reading (~1.5 ms); returns its index in ``readings``."""
        values, scratch = self._values, self._scratch
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(10):
                np.exp(values, out=scratch)
                np.add(scratch, values, out=scratch)
                np.log(scratch, out=scratch)
            best = min(best, time.perf_counter() - start)
        self.readings.append(best * 1e3)
        return len(self.readings) - 1

    def usual_level(self) -> float:
        """The reading with the most other readings within 5 % of it."""
        logs = np.log(self.readings)
        near = np.abs(logs[:, None] - logs[None, :]) <= np.log(1.05)
        return float(self.readings[int(np.argmax(near.sum(axis=1)))])

    def usual(self) -> List[bool]:
        """Per reading: was the host in its most common state?"""
        level = self.usual_level()
        return [level / self.WITHIN <= r <= level * self.WITHIN for r in self.readings]

    def metrics(self) -> Dict[str, float]:
        usual = self.usual()
        return {
            "host.nproc": float(os.cpu_count() or 1),
            "host.calib_ms": self.usual_level(),
            "host.unusual_share": 1.0 - sum(usual) / len(usual),
        }


def timed_setups(run: Run, make: Callable[[], object]):
    """Set up ``SETUP_REPEATS`` times; returns (last fixture, median s)."""
    seconds = []
    fixture = None
    for _ in range(1 if run.smoke else SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        with run.tracer.span("setup"):
            fixture = make()
        seconds.append(time.perf_counter() - start)
    if run.corrupt_row >= 0:
        fixture.references[0][run.corrupt_row] += 1.0
    return fixture, statistics.median(seconds)


def warm_up_compiler() -> None:
    """One discarded toy-model compile and call, so that lazy imports
    and first-use caches are not charged to the first cold compile."""
    from repro.compiler import compile_spn
    from repro.spn.nodes import Gaussian, Product, Sum

    toy = Sum(
        [
            Product([Gaussian(0, 0.0, 1.0), Gaussian(1, 0.0, 1.0)]),
            Product([Gaussian(0, 1.0, 2.0), Gaussian(1, -1.0, 0.5)]),
        ],
        [0.4, 0.6],
    )
    with compile_spn(toy).executable as executable:
        executable.execute(np.zeros((2, 2), dtype=np.float32))


@dataclass
class CompileSample:
    """One cold compile: serialized bytes in, first verified row out."""

    model: int
    seconds: float
    deserialize_s: float
    compile_spn_s: float
    #: ``CompilationResult`` (``timings.records`` is the per-pass split).
    compilation: object
    mismatched: int


def compile_seconds(result: Result, groups: List[List[CompileSample]]) -> None:
    """``compile_s``: the median over groups of the group's mean cold
    compile (a group compiles each of its models once)."""
    result.end_to_end["compile_s"] = statistics.median(
        statistics.mean(s.seconds for s in group) for group in groups
    )
    result.samples["compile_s"] = len(groups)


def add_pass_spans(tracer: Tracer, parent, op: str, start: float, records) -> None:
    """Show the compiler's own per-pass records as children of the
    harness's ``compile_spn`` span. The records carry durations, not
    start times: passes run back to back, so each is placed where the
    previous one ended (the driver's own time is what is left over)."""
    if parent is None:
        return
    cursor = start
    for record in records:
        tracer.add(
            f"pass:{record.name}",
            cursor,
            cursor + record.seconds,
            parent=parent,
            op=op,
            ops_after=record.ops_after,
            source="CompilationResult.timings.records",
        )
        cursor += record.seconds


def pass_metrics(samples: List[CompileSample], payloads) -> Dict[str, float]:
    """Per-layer compile numbers for compiling the workload's model set
    once: per model the median over its cold compiles, summed over the
    models. Counts (ops, bytes, lines) are exact and summed."""
    by_model: Dict[int, List[CompileSample]] = {}
    for sample in samples:
        by_model.setdefault(sample.model, []).append(sample)
    out: Dict[str, float] = {}

    def add(name, value):
        out[name] = out.get(name, 0.0) + value

    for model, group in by_model.items():
        add("serialization.deserialize_s",
            statistics.median(s.deserialize_s for s in group))
        add("serialization.model_bytes", len(payloads[model]))
        compilation = group[-1].compilation
        records = compilation.timings.records
        for stage in spec.STAGES:
            seconds = [
                sum(r.seconds for r in s.compilation.timings.records if r.name == stage)
                for s in group
            ]
            add(f"compiler.pass.{stage}.s", statistics.median(seconds))
            counted = [r.ops_after for r in records if r.name == stage and r.ops_after]
            if stage not in spec.CODEGEN_STAGES:
                add(f"compiler.pass.{stage}.ops_after", counted[-1] if counted else 0)
        add("compiler.driver_self_s", statistics.median(
            s.compile_spn_s - sum(r.seconds for r in s.compilation.timings.records)
            for s in group
        ))
        counts = [r.ops_after for r in records if r.ops_after is not None]
        add("compiler.hispn_ops", counts[0])
        add("compiler.final_ops", counts[-1])
        add("compiler.num_tasks", compilation.num_tasks)
        source = compilation.executable.source
        add("codegen.source_bytes", len(source.encode("utf-8")))
        add("codegen.source_lines", source.count("\n"))
    return out


def median_call_s(timed: Callable, function: Callable, argument, repeats: int = 15):
    """Median seconds of ``function(argument)`` through ``timed`` (after
    one discarded call)."""
    timed(function, argument)
    return statistics.median(timed(function, argument)[1] for _ in range(repeats))


def amdahl_split(timed, executables, inputs: np.ndarray, rows: int) -> Dict[str, float]:
    """The measured split of a call into its row-independent and its
    row-proportional part: a 1-row call, and the slope from there to a
    ``rows``-row call; means over the workload's kernels."""
    fixed, slope = [], []
    for executable in executables:
        one = median_call_s(timed, executable.execute, inputs[:1])
        full = median_call_s(timed, executable.execute, inputs[:rows])
        fixed.append(one)
        slope.append(max(full - one, 0.0) / (rows - 1))
    return {
        "runtime.fixed_call_us": statistics.mean(fixed) * 1e6,
        "runtime.per_row_ns": statistics.mean(slope) * 1e9,
    }
