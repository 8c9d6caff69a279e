"""Frozen models, seeded inputs, reference outputs and the output check.

Nothing here imports learning or data-generation code: models come from
the committed ``models/*.spnb`` bytes (hash-checked), inputs from NumPy
and ``--seed`` alone, and reference outputs from ``repro.spn.inference``
on the deserialized node graph, in f64.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.spn import inference
from repro.spn.serialization import deserialize

from . import spec

MODELS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models")


class FixtureDrift(RuntimeError):
    """A committed model file no longer matches the manifest."""


@dataclass
class Fixture:
    """What one set-up produces: everything the timed phases consume."""

    names: List[str]
    #: Serialized models, as committed (the compile phase starts here).
    payloads: List[bytes]
    #: [rows, features] f64, shared by every model of the workload.
    inputs: np.ndarray
    #: One [rows] f64 reference log-likelihood vector per model.
    references: List[np.ndarray]
    #: Rows per second of the reference interpreter while making them.
    reference_rows_per_s: float = 0.0


def load_manifest() -> dict:
    with open(os.path.join(MODELS_DIR, "manifest.json")) as handle:
        return json.load(handle)


def load_payload(manifest: dict, name: str) -> bytes:
    with open(os.path.join(MODELS_DIR, f"{name}.spnb"), "rb") as handle:
        payload = handle.read()
    digest = hashlib.sha256(payload).hexdigest()
    expected = manifest["models"][name]["sha256"]
    if digest != expected:
        raise FixtureDrift(
            f"models/{name}.spnb has sha256 {digest}, manifest says {expected}; "
            "regenerate with make_models.py and re-measure the baseline"
        )
    return payload


def make_inputs(
    manifest: dict, family: str, rows: int, seed: int, nan_share: float = 0.0
) -> np.ndarray:
    """Independent normal features with the family's recorded mean/std;
    ``nan_share`` of the cells are NaN (marginalized evidence)."""
    stats = manifest["families"][family]
    rng = np.random.default_rng(seed)
    inputs = rng.normal(stats["mean"], stats["std"], size=(rows, stats["num_features"]))
    if nan_share:
        inputs[rng.random(inputs.shape) < nan_share] = np.nan
    return inputs


def set_up(names, rows: int, seed: int, nan_share: float = 0.0) -> Fixture:
    """Load and verify the models, generate inputs, compute references."""
    manifest = load_manifest()
    family = manifest["models"][names[0]]["family"]
    payloads = [load_payload(manifest, name) for name in names]
    inputs = make_inputs(manifest, family, rows, seed, nan_share)
    start = time.perf_counter()
    references = [
        inference.log_likelihood(deserialize(payload)[0], inputs)
        for payload in payloads
    ]
    elapsed = time.perf_counter() - start
    return Fixture(
        names=list(names),
        payloads=payloads,
        inputs=inputs,
        references=references,
        reference_rows_per_s=rows * len(names) / elapsed,
    )


def mismatches(output, reference) -> int:
    """Rows of ``output`` outside the ledger's tolerance of ``reference``.

    ``-inf`` must match on both sides; NaN on either side is a mismatch;
    a wrong shape fails every reference row.
    """
    output = np.asarray(output, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if output.shape != reference.shape:
        return int(reference.size)
    return int(np.count_nonzero(~within_tolerance(output, reference)))


def within_tolerance(output: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Element-wise: the ledger's output check (same-shape f64 arrays)."""
    with np.errstate(invalid="ignore"):
        close = np.isfinite(reference) & (
            np.abs(output - reference) <= spec.ABS_TOL + spec.REL_TOL * np.abs(reference)
        )
    return close | (np.isneginf(output) & np.isneginf(reference))
