"""Self-check of the ledger (not part of tier-1; run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.compiler import STAGE_NAMES, compile_spn
from repro.spn.serialization import deserialize

from . import batch, fixtures, spec
from .harness import Run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_names_and_counts_fit_the_contract():
    end_to_end = [row[0] for row in spec.END_TO_END]
    per_layer = [row[0] for row in spec.PER_LAYER]
    names = list(spec.WORKLOADS) + end_to_end + per_layer
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    for name, unit, better, bound in spec.END_TO_END:
        assert unit and better in ("lower", "higher") and 0 < bound <= 0.25
    assert ("setup_s", "s", "lower") in [row[:3] for row in spec.END_TO_END]
    assert set(spec.STAGES) <= set(STAGE_NAMES)


def test_benchmark_json_agrees_with_the_harness():
    doc = benchmark_json()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert {w["name"]: w["why"] for w in doc["workloads"]} == spec.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == list(spec.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == list(spec.PER_LAYER)


def test_fixture_hashes_and_drift_detection(tmp_path, monkeypatch):
    manifest = fixtures.load_manifest()
    for name in manifest["models"]:
        fixtures.load_payload(manifest, name)
    (tmp_path / "speaker0.spnb").write_bytes(b"SPNB drifted")
    monkeypatch.setattr(fixtures, "MODELS_DIR", str(tmp_path))
    with pytest.raises(fixtures.FixtureDrift):
        fixtures.load_payload(manifest, "speaker0")


def test_output_check():
    reference = np.array([-10.0, -np.inf, -200.0])
    assert fixtures.mismatches(reference.copy(), reference) == 0
    assert fixtures.mismatches(reference + 9e-4, reference) == 0
    assert fixtures.mismatches(np.array([-10.0, -np.inf, -200.01]), reference) == 1
    assert fixtures.mismatches(np.array([-10.0, -1e30, -200.0]), reference) == 1
    assert fixtures.mismatches(np.array([np.nan, -np.inf, -200.0]), reference) == 1
    assert fixtures.mismatches(reference[:2], reference) == 3


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace, tmp_path):
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
            "--out", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    rows = spec.PER_LAYER if trace else spec.END_TO_END
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        row[0]: row[1] for row in rows
    }
    if trace:
        assert line["metrics"]["bufferpool.allocations_steady"]["value"] == 0
        assert line["metrics"]["server.lost"]["value"] == 0
        events = json.loads(
            (tmp_path / f"{workload}-seed3-trace1.trace.json").read_text()
        )["traceEvents"]
        names = {event["name"] for event in events}
        assert "pass:frontend" in names
        # A stage the pipeline gains must be named in spec.STAGES, or the
        # per-pass split would silently lose it.
        passes = {name[5:] for name in names if name.startswith("pass:")}
        assert passes <= set(spec.STAGES)
        assert ("request" in names) == (workload == "serve_poisson")
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_corrupted_reference_row_counts_as_failed():
    run = Run("speaker_rowwise", seed=3, seconds=0.3, trace=False, smoke=True,
              corrupt_row=0)
    result = batch.run_batch(run, batch.CONFIGS["speaker_rowwise"])
    assert result.failed > 0
    clean = dataclasses.replace(run, corrupt_row=-1)
    assert batch.run_batch(clean, batch.CONFIGS["speaker_rowwise"]).failed == 0


def test_codegen_is_deterministic():
    manifest = fixtures.load_manifest()
    payload = fixtures.load_payload(manifest, "speaker1")
    sources = []
    for _ in range(2):
        root, query = deserialize(payload)
        with compile_spn(root, query).executable as executable:
            sources.append(executable.source)
    assert sources[0] == sources[1]
    assert len(sources[0].encode("utf-8")) > 0


def test_run_fails_without_the_source_tree(tmp_path):
    """In a directory with only BENCHMARK.json and the ledger, the
    command exits non-zero and prints no result line."""
    import shutil

    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "speaker_batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
