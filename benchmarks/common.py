"""Shared infrastructure for the figure/table reproduction benchmarks.

Every benchmark prints a paper-style summary table (what the figure
shows) next to the values this reproduction measures. Absolute numbers
are not comparable — the backend is a Python-ISA simulator (DESIGN.md) —
so EXPERIMENTS.md tracks the *shape*: orderings, rough factors and
crossovers.

Environment knobs:

- ``REPRO_BENCH_SCALE``: float multiplier on workload sizes (default 1.0).
  Raise it to push sample counts / SPN sizes toward paper scale.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data import SpeakerDatasetConfig, generate_speaker_dataset, train_speaker_spns
from repro.spn import LearnSPNOptions

#: Workload scale factor (1.0 = laptop scale).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    return max(minimum, int(round(value * SCALE)))


def round_to(value: int, multiple: int) -> int:
    """Round ``value`` up to a multiple (so vector widths divide batches)."""
    return max(multiple, ((value + multiple - 1) // multiple) * multiple)


class TimingResult(float):
    """Median wall-clock seconds per round, as a plain float.

    Extra attributes keep the warm-up call (which absorbs first-call
    compile/caching cost) separate from the measured rounds, and expose
    per-round variance so BENCH numbers can be sanity-checked:

    - ``warmup_seconds``: duration of the discarded warm-up call,
    - ``mean`` / ``stdev``: statistics over the measured rounds,
    - ``rounds``: number of measured rounds,
    - ``times``: the raw per-round durations.
    """

    warmup_seconds: float
    mean: float
    stdev: float
    rounds: int
    times: tuple

    def __new__(cls, times: List[float], warmup_seconds: float) -> "TimingResult":
        self = super().__new__(cls, float(np.median(times)))
        self.warmup_seconds = float(warmup_seconds)
        self.mean = float(np.mean(times))
        self.stdev = float(np.std(times))
        self.rounds = len(times)
        self.times = tuple(times)
        return self


def time_callable(
    fn: Callable, min_rounds: int = 3, max_seconds: float = 5.0
) -> TimingResult:
    """Median wall-clock seconds of ``fn`` over adaptive rounds.

    The first call is a discarded warm-up (its duration is reported
    separately as ``warmup_seconds``), so first-call compile time never
    pollutes the measured rounds.
    """
    warmup_start = time.perf_counter()
    fn()  # warm-up
    warmup_seconds = time.perf_counter() - warmup_start
    times: List[float] = []
    budget_start = time.perf_counter()
    while len(times) < min_rounds and time.perf_counter() - budget_start < max_seconds:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return TimingResult(times, warmup_seconds)


def write_bench_json(name: str, payload: dict, merge: bool = False) -> str:
    """Write a BENCH_*.json perf-trajectory file at the repo root.

    ``REPRO_BENCH_OUT`` overrides the output directory. With
    ``merge=True`` existing top-level keys not present in ``payload``
    are preserved, so independent benchmarks (e.g. the Fig. 7 table and
    the scaling curve) can co-own one file without clobbering each
    other. Returns the path.
    """
    out_dir = os.environ.get(
        "REPRO_BENCH_OUT", os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    if merge and os.path.exists(path):
        try:
            with open(path) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = {}
        existing.update(payload)
        payload = existing
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def scaling_curve(
    make_executable: Callable[[int], object],
    inputs: np.ndarray,
    workers=(1, 2, 4, 8),
) -> dict:
    """Thread-count → throughput curve for the sharded batch executor.

    ``make_executable(w)`` must return a compiled executable whose
    kernel was built with ``num_threads=w``; every executable this
    opens is closed before returning. Every point is measured
    wall-clock: worker counts above the host's core count
    (``os.cpu_count()``) are left out rather than extrapolated.
    """
    host_cores = os.cpu_count() or 1
    rows = int(inputs.shape[0])
    workers = sorted({1, *(int(w) for w in workers if int(w) <= host_cores)})

    opened = []
    try:
        points: Dict[str, dict] = {}
        wall_1 = 0.0
        for w in workers:
            ex = make_executable(w)
            opened.append(ex)
            seconds = float(time_callable(lambda: ex.execute(inputs)))
            if w == 1:
                wall_1 = seconds
            speedup = wall_1 / seconds if seconds > 0 else 0.0
            points[str(w)] = {
                "seconds": seconds,
                "samples_per_second": rows / seconds if seconds > 0 else 0.0,
                "speedup": speedup,
                "efficiency": speedup / w,
            }
        return {
            "host_cores": host_cores,
            "rows": rows,
            "chunk_hint": min(int(opened[0].signature.batch_size), rows),
            "measured_single_thread_seconds": wall_1,
            "workers": points,
        }
    finally:
        for ex in opened:
            ex.close()


#: Every FigureReport registers itself here; the benchmark conftest
#: prints them in the terminal summary so the paper-vs-measured tables
#: appear even when pytest captures stdout.
ALL_REPORTS: List["FigureReport"] = []


@dataclass
class FigureReport:
    """Collects (configuration → measurement) rows and prints the figure."""

    figure: str
    title: str
    unit: str = "us/sample"
    paper: Dict[str, str] = field(default_factory=dict)
    rows: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def __post_init__(self):
        ALL_REPORTS.append(self)

    def add(self, name: str, value: float) -> None:
        self.rows[name] = value

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        width = max([len(k) for k in list(self.rows) + list(self.paper)] + [12])
        lines = [
            "",
            f"=== {self.figure}: {self.title} ===",
            f"{'configuration':<{width}}  {'measured (' + self.unit + ')':>22}  paper",
        ]
        for name, value in self.rows.items():
            paper = self.paper.get(name, "-")
            lines.append(f"{name:<{width}}  {value:>22.3f}  {paper}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append("")
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())


# --- cached speaker workload (shared by Figs. 6-9 and compile-time stats) ---------

_SPEAKER_CACHE: Optional[dict] = None


def speaker_workload() -> dict:
    """Speaker-ID SPNs + clean/noisy evaluation sets (cached per session).

    Learned SPNs land in the high hundreds to low thousands of operations
    (the paper's average is ~2.5k); sample counts default to 8192 clean /
    16384 noisy and grow with REPRO_BENCH_SCALE (paper: 245k / 1.2M).
    """
    global _SPEAKER_CACHE
    if _SPEAKER_CACHE is not None:
        return _SPEAKER_CACHE

    clean = round_to(scaled(8192), 4096)
    noisy = round_to(scaled(16384), 4096)
    config = SpeakerDatasetConfig(
        num_speakers=3,
        train_samples_per_speaker=scaled(2500),
        clean_samples=clean,
        noisy_samples=noisy,
        noise_missing_fraction=0.3,
        seed=17,
    )
    dataset = generate_speaker_dataset(config)
    options = LearnSPNOptions(
        min_instances=10, independence_threshold=0.28, max_depth=20
    )
    spns = train_speaker_spns(dataset, options)
    _SPEAKER_CACHE = {
        "dataset": dataset,
        "spns": spns,
        "clean": dataset.clean,
        "noisy": dataset.noisy,
    }
    return _SPEAKER_CACHE


# --- cached RAT-SPN workload (Figs. 10-13 and the V-B2 table) ----------------------

_RAT_CACHE: Optional[dict] = None


def rat_workload() -> dict:
    """RAT-SPN class models + image data (cached per session).

    The default scale gives ~1.6k nodes (~10k LoSPN operations) per class
    — the paper's models have ~340k nodes; REPRO_BENCH_SCALE grows
    ``num_repetitions`` toward that. The partition-size and
    opt-level sweeps are shape-invariant in this range.
    """
    global _RAT_CACHE
    if _RAT_CACHE is not None:
        return _RAT_CACHE
    from repro.data import ImageDatasetConfig, generate_image_dataset
    from repro.spn import RatSpnConfig, build_rat_spn, train_rat_spn

    config = RatSpnConfig(
        num_features=64,
        num_classes=4,
        depth=3,
        num_repetitions=scaled(4),
        num_sums=6,
        num_input_distributions=3,
        seed=2,
    )
    roots = build_rat_spn(config)
    images = generate_image_dataset(
        ImageDatasetConfig(
            num_classes=config.num_classes,
            side=8,
            train_per_class=scaled(150),
            test_samples=round_to(scaled(2048), 1024),
            seed=23,
        )
    )
    train_rat_spn(roots, images.train, images.train_labels, em_iterations=2)
    _RAT_CACHE = {"config": config, "roots": roots, "images": images}
    return _RAT_CACHE


#: Max-partition-size sweep for the ~10k-op default RAT models.
RAT_PARTITION_SIZES = (300, 600, 1200, 2500, 5000, 10000)


def geomean(values) -> float:
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.exp(np.log(values).mean()))
