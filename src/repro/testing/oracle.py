"""Cross-backend differential-testing oracle and IR fuzzer.

Every compiled configuration of the same SPN query — CPU scalar, CPU
fixed-lane and whole-batch vectorized, GPU simulator, partitioned,
different optimization levels, the IR interpreter — must compute the
same log-likelihoods as the reference NumPy evaluator, up to the
floating-point error bounds predicted by
:mod:`repro.compiler.error_analysis`. This module turns that invariant
into an executable oracle:

- :class:`DifferentialOracle` runs a :class:`~repro.testing.generators.Case`
  through every configured backend and compares against the reference
  under calibrated tolerances. On divergence it *shrinks* the case
  (single failing row, sum nodes collapsed to single children while the
  divergence persists) and dumps a self-contained reproducer —
  ``module.mlir``, ``options.json``, ``diagnostic.json``, ``model.spnb``,
  ``inputs.npy`` and a README with the replay command — through the
  :mod:`repro.diagnostics` artifact machinery (``$SPNC_ARTIFACT_DIR``).
- :class:`IRFuzzer` stresses the IR layer itself: print → parse →
  reprint must be a fixed point on fully lowered modules, and random
  permutations of the target-independent pass pipeline must preserve
  interpreter semantics.

``python -m repro fuzz N --seed S`` (and the nightly CI job) drive both.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.bufferization import (
    bufferize,
    insert_deallocations,
    remove_result_copies,
)
from ..compiler.cpu.lowering import CPULoweringOptions, lower_kernel_to_cpu
from ..compiler.error_analysis import UNIT_ROUNDOFF, analyze_error
from ..compiler.frontend import build_hispn_module
from ..compiler.lower_to_lospn import decide_computation_type, lower_to_lospn
from ..compiler.pipeline import CompilerOptions, compile_spn
from ..diagnostics import (
    Diagnostic,
    ErrorCode,
    Severity,
    artifact_directory,
    dump_reproducer,
)
from ..dialects import hispn
from ..ir import parse_module, print_op, verify
from ..ir.interpreter import Interpreter
from ..ir.pipeline_spec import parse_pipeline
from ..spn.inference import conditional_log_likelihood, expectation, log_likelihood
from ..spn.mpe import max_log_likelihood, mpe
from ..spn.nodes import (
    Categorical,
    Gaussian,
    Histogram,
    Node,
    Product,
    Sum,
    leaves,
    num_nodes,
)
from ..spn.query import JointProbability, Query
from ..spn.serialization import serialize_to_file
from .generators import QUERY_CASE_KINDS, Case, CaseGenerator

#: Safety factor applied to the analytic error bounds. The bounds are
#: first-order worst-case estimates over a *modeled* input domain;
#: real inputs (extreme magnitudes, cancellation patterns) can exceed
#: them by a small constant factor without indicating a semantic bug.
#: Calibrated empirically: across seeded fuzz runs the worst observed
#: gap stays a factor ~4 below the raw bound, so 8 keeps real headroom
#: while still flagging any semantic deviation.
TOLERANCE_SAFETY = 8.0

#: Absolute floor of the log-space tolerance — two f64 reference-grade
#: evaluations of the same tiny graph still differ by a few ulps.
TOLERANCE_FLOOR = 1e-9

#: The interpreter walks scalar IR one Python op at a time; cap the rows
#: it replays per case so fuzzing stays fast. Divergences are per-row,
#: so a prefix is as good a witness as the full batch.
INTERPRETER_ROW_LIMIT = 8

#: Expectation queries compare in *linear* space (moments are not
#: probabilities): both sides run the same f64 (likelihood, moment)
#: recursion, differing only in association order, so a modest relative
#: tolerance plus an absolute floor for near-cancelled moments suffices.
EXPECTATION_RTOL = 1e-5
EXPECTATION_ATOL = 1e-8

#: Default accuracy budget for structure-suite fuzzing (`fuzz
#: --structure-opt`): generous enough that pruning actually fires on
#: generated cases, small enough that a semantic bug (not a budgeted
#: approximation) still stands out.
DEFAULT_STRUCTURE_BUDGET = 0.05

#: Execution configurations the structure suite is crossed with: the
#: budget must hold on every backend, not just the one that compiled
#: fastest (cpu off/lanes/batch and the GPU simulator).
STRUCTURE_EXECUTION_CONFIGS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("cpu-off", {"vectorize": "off", "opt_level": 1}),
    ("cpu-lanes", {"vectorize": "lanes", "opt_level": 1}),
    ("cpu-batch", {"vectorize": "batch", "opt_level": 2}),
    ("gpu-sim", {"target": "gpu"}),
)

#: Structure-suite pass names the fuzzer permutes.
STRUCTURE_PASS_NAMES = ("cse", "prune")


def clamp_to_modeled_domain(spn: Node, inputs: np.ndarray) -> np.ndarray:
    """Project inputs onto the modeled leaf domain of the lossy passes.

    The accuracy budget of pruning is proven over the same
    bounded domain the error analysis models — every Gaussian leaf
    within :data:`~repro.compiler.error_analysis.GAUSSIAN_DOMAIN_SIGMAS`
    standard deviations of its mean, every histogram leaf within its
    bucket bounds (see :mod:`repro.compiler.structure.ranges`). Outside
    it the log-space bound has no meaning (the linear-space error is
    still bounded by the dropped mass, but log-likelihoods diverge), so
    the oracle's budget enforcement clips each continuous feature into
    the intersection of its leaves' domains. NaN (marginalized) entries
    and categorical features pass through unchanged.
    """
    from ..compiler.error_analysis import GAUSSIAN_DOMAIN_SIGMAS

    # Histogram clamp edges live on the f32 grid, one f32 ulp inside the
    # covered range: a clamped value that lands exactly on a bucket
    # bound after an f32 round-trip (kernels may compute in f32 even for
    # f64 inputs) would sit in-range for the f64 reference but
    # out-of-range for the f32 kernel — a representation edge, not a
    # structure-pass defect. One f32 ulp inside is exactly representable
    # in both precisions and strictly inside the range in both.
    f32 = np.float32
    lows: Dict[int, float] = {}
    highs: Dict[int, float] = {}
    for leaf in leaves(spn):
        if isinstance(leaf, Gaussian):
            radius = GAUSSIAN_DOMAIN_SIGMAS * leaf.stdev
            low, high = leaf.mean - radius, leaf.mean + radius
        elif isinstance(leaf, Histogram):
            low = float(np.nextafter(f32(leaf.bounds[0]), f32(np.inf)))
            high = float(np.nextafter(f32(leaf.bounds[-1]), f32(-np.inf)))
        else:
            continue
        variable = leaf.variable
        lows[variable] = max(lows.get(variable, -np.inf), low)
        highs[variable] = min(highs.get(variable, np.inf), high)
    if not lows:
        return inputs
    clamped = np.array(inputs, dtype=np.float64, copy=True)
    for variable, low in lows.items():
        column = clamped[:, variable]
        clamped[:, variable] = np.clip(column, low, highs[variable])
    return clamped.astype(inputs.dtype)


@dataclasses.dataclass(frozen=True)
class ConfigSpec:
    """One execution configuration the oracle compares against reference."""

    name: str
    kind: str = "compiled"  # "compiled" | "interpreter"
    options: Dict[str, object] = dataclasses.field(default_factory=dict)
    row_limit: Optional[int] = None

    def compiler_options(
        self, artifact_dir: Optional[str] = None, query: Optional[Query] = None
    ) -> CompilerOptions:
        """The configuration as :class:`CompilerOptions`; with ``query``,
        also its kind, variables and moment (what a reproducer replays)."""
        options = dict(self.options)
        if query is not None:
            options.update(
                query=query.kind,
                query_variables=getattr(query, "query_variables", ()),
                moment=getattr(query, "moment", 1),
            )
        return CompilerOptions(artifact_dir=artifact_dir, **options)


#: The default configuration matrix: every CPU vectorization strategy,
#: the opt-level extremes, graph partitioning, the GPU simulator and the
#: IR interpreter.
DEFAULT_CONFIGS: Tuple[ConfigSpec, ...] = (
    ConfigSpec("cpu-o0-scalar", options={"vectorize": "off", "opt_level": 0}),
    ConfigSpec("cpu-o1-lanes", options={"vectorize": "lanes", "opt_level": 1}),
    # Batch kernels get scratch registers from -O1 on; at -O0 the
    # sum-layer ops (stack / contract) take their allocating codegen
    # path, over IR no cleanup pass has touched.
    ConfigSpec("cpu-o0-batch", options={"vectorize": "batch", "opt_level": 0}),
    ConfigSpec("cpu-o2-batch", options={"vectorize": "batch", "opt_level": 2}),
    ConfigSpec(
        "cpu-o3-partitioned",
        options={"vectorize": "batch", "opt_level": 3, "max_partition_size": 6},
    ),
    # Parallel execution must be invisible in the results: sharding a
    # batch across pool workers and pipelining GPU chunks over streams
    # are pure scheduling decisions, bit-identical to the single-worker
    # / single-stream runs at every chunk and tail size.
    ConfigSpec(
        "cpu-o2-batch-sharded",
        options={"vectorize": "batch", "opt_level": 2, "num_threads": 4},
    ),
    ConfigSpec("gpu-sim", options={"target": "gpu"}),
    ConfigSpec("gpu-sim-pipelined", options={"target": "gpu", "streams": 4}),
    ConfigSpec("interpreter", kind="interpreter", row_limit=INTERPRETER_ROW_LIMIT),
)


@dataclasses.dataclass
class Divergence:
    """A confirmed disagreement between a backend and the reference."""

    case: Case
    config: str
    reference: np.ndarray
    observed: np.ndarray
    tolerance: np.ndarray
    reproducer_path: Optional[str] = None
    error: Optional[str] = None

    @property
    def worst_row(self) -> int:
        return int(np.argmax(self._gap()))

    @property
    def max_gap(self) -> float:
        return float(np.max(self._gap()))

    def _gap(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            diff = np.abs(self.observed - self.reference)
        # Structural mismatches (one-sided inf/NaN) rank above any
        # numeric gap so shrinking homes in on them first.
        diff = np.where(np.isnan(diff), np.inf, diff)
        both_nan = np.isnan(self.observed) & np.isnan(self.reference)
        both_neg_inf = np.isneginf(self.observed) & np.isneginf(self.reference)
        diff = np.where(both_nan | both_neg_inf, 0.0, diff)
        if diff.ndim > 1:
            # Multi-column modalities (MPE [score, completions...],
            # expectation moments): rank rows by their worst column.
            diff = diff.reshape(diff.shape[0], -1).max(axis=1)
        return diff

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.config} failed on {self.case.name}: {self.error}"
        row = self.worst_row
        return (
            f"{self.config} diverges from reference on {self.case.describe()}: "
            f"row {row}: {self.observed[row]!r} vs {self.reference[row]!r} "
            f"(tolerance {self.tolerance[row]:.3e})"
        )


@dataclasses.dataclass
class FuzzReport:
    """Outcome of a fuzzing run."""

    cases_run: int = 0
    configs_compared: int = 0
    divergences: List[Divergence] = dataclasses.field(default_factory=list)
    ir_failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.ir_failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} case(s), "
            f"{self.configs_compared} backend comparison(s), "
            f"{len(self.divergences)} divergence(s), "
            f"{len(self.ir_failures)} IR failure(s)"
        ]
        for divergence in self.divergences:
            lines.append(f"  DIVERGENCE: {divergence.describe()}")
            if divergence.reproducer_path:
                lines.append(f"    reproducer: {divergence.reproducer_path}")
        for failure in self.ir_failures:
            lines.append(f"  IR: {failure}")
        return "\n".join(lines)


def compute_tolerance(
    spn: Node, query: Query, reference: np.ndarray
) -> np.ndarray:
    """Per-row comparison tolerance in log space.

    Calibrated from the compiler's own error analysis: the bound of the
    format the type decision actually selects, plus the f64-log bound
    the reference evaluation is subject to, scaled by
    :data:`TOLERANCE_SAFETY`. A relative term covers log magnitudes far
    outside the modeled leaf domain (adversarial extreme inputs), where
    representation error alone grows with ``|log p|``.

    Query-kind scaling: a conditional is the *difference* of two such
    evaluations, so its tolerance doubles; an MPE score replaces sums by
    maxima (no accumulation growth), so the joint bound is conservative
    and reused as-is.
    """
    module = build_hispn_module(spn, query)
    query_op_names = set(hispn.QUERY_OP_NAMES.values())
    query_op = next(
        op
        for op in module.body_block.ops
        if op.op_name in query_op_names
    )
    decision = decide_computation_type(query_op, use_log_space=True)
    estimates = analyze_error(query_op)
    width = decision.float_type.width
    space = "log" if decision.use_log_space else "linear"
    selected = estimates[f"f{width}-{space}"]
    baseline = estimates["f64-log"]
    atol = TOLERANCE_SAFETY * (
        selected.max_relative_error + baseline.max_relative_error
    )
    atol = max(atol, TOLERANCE_FLOOR)
    # |log p| beyond the modeled range: one unit roundoff per represented
    # log value, accumulated over the graph's add chain.
    rtol = TOLERANCE_SAFETY * UNIT_ROUNDOFF[width] * max(num_nodes(spn), 8)
    if query.kind == "conditional":
        atol, rtol = 2.0 * atol, 2.0 * rtol
    with np.errstate(invalid="ignore"):
        magnitude = np.where(np.isfinite(reference), np.abs(reference), 0.0)
    return atol + rtol * magnitude


def outputs_match(
    observed: np.ndarray,
    reference: np.ndarray,
    tolerance: np.ndarray,
    nan_agrees: bool = False,
) -> np.ndarray:
    """Per-row agreement under the log-space comparison rules.

    ``-inf == -inf`` (probability zero on both sides) is agreement; a
    one-sided ``-inf`` or any NaN is a structural divergence regardless
    of tolerance. With ``nan_agrees=True`` a *two-sided* NaN also counts
    as agreement — conditional and expectation queries define NaN as a
    legitimate answer (zero-probability evidence, out-of-scope
    features), so only a one-sided NaN diverges there.
    """
    observed = np.asarray(observed, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    both_neg_inf = np.isneginf(observed) & np.isneginf(reference)
    both_nan = np.isnan(observed) & np.isnan(reference)
    structurally_bad = (
        np.isnan(observed)
        | np.isnan(reference)
        | (np.isneginf(observed) ^ np.isneginf(reference))
    )
    with np.errstate(invalid="ignore"):
        close = np.abs(observed - reference) <= tolerance
    agreed = both_neg_inf | (~structurally_bad & close)
    if nan_agrees:
        agreed = agreed | both_nan
    return agreed


def run_interpreter(case: Case, row_limit: Optional[int] = None) -> np.ndarray:
    """Evaluate a case by interpreting the fully lowered scalar IR."""
    return _interpret_lowered(_lowered_module(case, "off"), case, row_limit)


class DifferentialOracle:
    """Compares every configured backend against the reference evaluator."""

    def __init__(
        self,
        configs: Sequence[ConfigSpec] = DEFAULT_CONFIGS,
        artifact_dir: Optional[str] = None,
        shrink: bool = True,
        dump_reproducers: bool = True,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.configs = tuple(configs)
        self.artifact_dir = artifact_dir
        self.shrink = shrink
        self.dump_reproducers = dump_reproducers
        self.log = log or (lambda message: None)
        self.comparisons = 0
        #: Extra absolute tolerance added on top of the calibrated
        #: floating-point bounds — the structure checks set this to the
        #: accuracy budget of the lossy passes under test, so shrinking
        #: re-verification uses the same budgeted comparison.
        self.extra_tolerance = 0.0

    # -- execution ---------------------------------------------------------------

    def run_config(self, spec: ConfigSpec, case: Case) -> np.ndarray:
        if spec.kind == "interpreter":
            return run_interpreter(case, spec.row_limit)
        options = spec.compiler_options(self.artifact_dir)
        result = compile_spn(case.spn, case.query, options)
        inputs = case.inputs
        if spec.row_limit is not None:
            inputs = inputs[:spec.row_limit]
        # Every backend satisfies the common Executable contract, so the
        # oracle runs and releases kernels uniformly — no target cases.
        with result.executable as executable:
            if case.query.kind == "sample":
                values = executable.execute(inputs, seed=case.sample_seed)
            else:
                values = executable(inputs)
        return np.asarray(values, dtype=np.float64)

    # -- per-modality reference + comparison --------------------------------------

    def _reference_and_tolerance(
        self, case: Case
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-major reference output and comparison tolerance for a case.

        Shapes by kind: joint/conditional ``[batch]``; MPE
        ``[batch, 1 + F]`` (score column, then the completed features);
        expectation ``[batch, F]`` with elementwise tolerance.
        """
        reference, tolerance = self._base_reference_and_tolerance(case)
        if self.extra_tolerance:
            tolerance = tolerance + self.extra_tolerance
        return reference, tolerance

    def _base_reference_and_tolerance(
        self, case: Case
    ) -> Tuple[np.ndarray, np.ndarray]:
        data = case.inputs.astype(np.float64)
        kind = case.query.kind
        if kind == "mpe":
            completions, scores = mpe(case.spn, data)
            reference = np.column_stack([scores, completions])
            return reference, compute_tolerance(case.spn, case.query, scores)
        if kind == "conditional":
            reference = conditional_log_likelihood(
                case.spn, data, case.query.query_variables
            )
            return reference, compute_tolerance(case.spn, case.query, reference)
        if kind == "expectation":
            reference = expectation(case.spn, data, moment=case.query.moment)
            with np.errstate(invalid="ignore"):
                tolerance = EXPECTATION_ATOL + EXPECTATION_RTOL * np.abs(reference)
            return reference, tolerance
        reference = log_likelihood(
            case.spn, data, marginal=case.query.support_marginal
        )
        return reference, compute_tolerance(case.spn, case.query, reference)

    def _compare(
        self,
        case: Case,
        observed: np.ndarray,
        reference: np.ndarray,
        tolerance: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row agreement plus the row-major observed representation."""
        kind = case.query.kind
        if kind == "mpe":
            observed = np.atleast_2d(observed)
            scores, completions = observed[0], observed[1:].T
            ref_scores, ref_completions = reference[:, 0], reference[:, 1:]
            ok = outputs_match(scores, ref_scores, tolerance)
            exact = np.all(completions == ref_completions, axis=1)
            tied = ok & ~exact
            if tied.any():
                # The compiled argmax may legally break a (near-)tie the
                # other way; the completion is correct iff rescoring it
                # with the reference max-product evaluator achieves the
                # reference maximum within tolerance.
                rescored = max_log_likelihood(case.spn, completions[tied])
                rows = np.flatnonzero(tied)
                ok[rows] = outputs_match(
                    rescored, ref_scores[tied], tolerance[tied]
                )
            return ok, np.column_stack([scores, completions])
        if kind == "conditional":
            return outputs_match(
                observed, reference, tolerance, nan_agrees=True
            ), observed
        if kind == "expectation":
            observed = np.atleast_2d(observed).T
            match = outputs_match(observed, reference, tolerance, nan_agrees=True)
            return match.all(axis=1), observed
        return outputs_match(observed, reference, tolerance), observed

    def check_case(self, case: Case) -> List[Divergence]:
        """Run one case through every backend; shrink and dump failures."""
        if case.query.kind == "sample":
            return self._check_sample_case(case)
        reference, tolerance = self._reference_and_tolerance(case)
        divergences: List[Divergence] = []
        for spec in self.configs:
            if spec.kind == "interpreter" and case.query.kind != "joint":
                # The scalar-IR replay rung only understands the joint
                # kernel layout; the other modalities are checked against
                # the repro.spn reference implementations instead.
                continue
            self.comparisons += 1
            divergence = self._check_config(spec, case, reference, tolerance)
            if divergence is not None:
                if self.shrink and divergence.error is None:
                    divergence = self._shrink(spec, divergence)
                if self.dump_reproducers:
                    divergence.reproducer_path = self._dump(spec, divergence)
                divergences.append(divergence)
                self.log(divergence.describe())
        return divergences

    def _check_config(
        self,
        spec: ConfigSpec,
        case: Case,
        reference: np.ndarray,
        tolerance: np.ndarray,
    ) -> Optional[Divergence]:
        limit = spec.row_limit
        ref = reference[:limit] if limit is not None else reference
        tol = tolerance[:limit] if limit is not None else tolerance
        try:
            observed = self.run_config(spec, case)
        except Exception as error:  # a backend crash is a divergence too
            return Divergence(
                case=case,
                config=spec.name,
                reference=ref,
                observed=np.full_like(ref, np.nan),
                tolerance=tol,
                error=f"{type(error).__name__}: {error}",
            )
        ok, observed_rows = self._compare(case, observed, ref, tol)
        if ok.all():
            return None
        return Divergence(
            case=case, config=spec.name, reference=ref,
            observed=np.asarray(observed_rows, dtype=np.float64), tolerance=tol,
        )

    # -- sampling invariants -------------------------------------------------------

    def _check_sample_case(self, case: Case) -> List[Divergence]:
        """Sampling has no pointwise reference; check its invariants.

        Per configuration: seeded determinism (same seed ⇒ bit-identical
        samples), bit-exact pass-through of observed evidence, finite
        sampled values, and membership in the leaf supports (integer
        categories in range, histogram draws within bounds).
        Distributional goodness-of-fit lives in the differential test
        suite, where the model is controlled.
        """
        divergences: List[Divergence] = []
        rows = case.inputs.shape[0]
        for spec in self.configs:
            if spec.kind != "compiled":
                continue
            self.comparisons += 1
            error = self._sample_config_error(spec, case)
            if error is None:
                continue
            divergence = Divergence(
                case=case,
                config=spec.name,
                reference=np.zeros(rows),
                observed=np.full(rows, np.nan),
                tolerance=np.zeros(rows),
                error=error,
            )
            if self.dump_reproducers:
                divergence.reproducer_path = self._dump(spec, divergence)
            divergences.append(divergence)
            self.log(divergence.describe())
        return divergences

    def _sample_config_error(self, spec: ConfigSpec, case: Case) -> Optional[str]:
        try:
            first = self.run_config(spec, case)
            second = self.run_config(spec, case)
        except Exception as error:
            return f"{type(error).__name__}: {error}"
        if not np.array_equal(first, second):
            return "seeded sampling not deterministic (same seed, different samples)"
        samples = np.atleast_2d(first).T
        original = case.inputs.astype(np.float64)
        observed_mask = ~np.isnan(original)
        if not np.array_equal(samples[observed_mask], original[observed_mask]):
            return "observed evidence not preserved bit-exactly in samples"
        if not np.isfinite(samples).all():
            return "non-finite sampled values"
        return self._support_violation(case, samples, observed_mask)

    @staticmethod
    def _support_violation(
        case: Case, samples: np.ndarray, observed_mask: np.ndarray
    ) -> Optional[str]:
        by_variable: Dict[int, list] = {}
        for leaf in leaves(case.spn):
            by_variable.setdefault(leaf.variable, []).append(leaf)
        for variable, choices in by_variable.items():
            column = samples[~observed_mask[:, variable], variable]
            if column.size == 0:
                continue
            if all(isinstance(leaf, Categorical) for leaf in choices):
                count = max(len(leaf.probabilities) for leaf in choices)
                ok = (column == np.round(column)) & (column >= 0) & (column < count)
                if not ok.all():
                    return (
                        f"sampled categorical value outside support for "
                        f"variable {variable}"
                    )
            elif all(isinstance(leaf, Histogram) for leaf in choices):
                lo = min(leaf.bounds[0] for leaf in choices)
                hi = max(leaf.bounds[-1] for leaf in choices)
                if not ((column >= lo) & (column <= hi)).all():
                    return (
                        f"sampled histogram value outside bounds for "
                        f"variable {variable}"
                    )
        return None

    # -- shrinking ---------------------------------------------------------------

    def _shrink(self, spec: ConfigSpec, divergence: Divergence) -> Divergence:
        """Minimize a failing case while the divergence persists.

        Two scope-preserving reductions: keep only the single worst
        input row, then repeatedly collapse sum nodes to one of their
        children (sum children share the parent scope, so validity and
        the feature count are untouched).
        """
        case = divergence.case
        row = divergence.worst_row
        candidate = case.replace(inputs=case.inputs[row:row + 1])
        shrunk = self._recheck(spec, candidate) or divergence

        improved = True
        while improved:
            improved = False
            for target in _sum_nodes(shrunk.case.spn):
                for child in target.children:
                    smaller = _replace_node(shrunk.case.spn, target, child)
                    if smaller is shrunk.case.spn:
                        continue
                    candidate = shrunk.case.replace(spn=smaller)
                    reduced = self._recheck(spec, candidate)
                    if reduced is not None:
                        shrunk = reduced
                        improved = True
                        break
                if improved:
                    break
        return shrunk

    def _recheck(self, spec: ConfigSpec, case: Case) -> Optional[Divergence]:
        try:
            reference, tolerance = self._reference_and_tolerance(case)
            return self._check_config(spec, case, reference, tolerance)
        except Exception:
            # A reduction that breaks the harness itself is not a valid
            # smaller witness; keep the current one.
            return None

    # -- reproducer dumps --------------------------------------------------------

    def _dump(self, spec: ConfigSpec, divergence: Divergence) -> Optional[str]:
        case = divergence.case
        diagnostic = Diagnostic(
            severity=Severity.ERROR,
            code=ErrorCode.DIVERGENCE,
            message=divergence.describe(),
            stage="differential-test",
            target=str(spec.options.get("target", "cpu")),
            detail={
                "config": spec.name,
                "seed": case.seed,
                "index": case.index,
                "max_gap": None if divergence.error else divergence.max_gap,
            },
        )
        module_text = None
        try:
            module_text = print_op(
                lower_to_lospn(build_hispn_module(case.spn, case.query))
            )
        except Exception:
            pass
        options = None
        if spec.kind == "compiled":
            try:
                options = spec.compiler_options(self.artifact_dir, case.query)
            except Exception:
                options = dict(spec.options)
        path = dump_reproducer(
            diagnostic,
            module_text=module_text,
            options=options,
            artifact_dir=self.artifact_dir,
        )
        if path is None:
            return None
        try:
            serialize_to_file(
                case.spn, case.query, os.path.join(path, "model.spnb")
            )
            np.save(os.path.join(path, "inputs.npy"), case.inputs)
            with open(os.path.join(path, "README.txt"), "w") as handle:
                handle.write(
                    f"Differential divergence: {spec.name} vs reference\n"
                    f"case: seed={case.seed} index={case.index}\n\n"
                    "Replay the failing configuration:\n"
                    "  python -m repro run model.spnb inputs.npy "
                    f"{_replay_flags(spec, case)}\n\n"
                    "Reference values:\n"
                    f"  {divergence.reference.tolist()}\n"
                    "Observed values:\n"
                    f"  {divergence.observed.tolist()}\n"
                )
        except OSError:
            pass
        return path

    # -- structure-suite verification ---------------------------------------------

    def check_structure_case(
        self,
        case: Case,
        suite: str,
        accuracy_budget: float = DEFAULT_STRUCTURE_BUDGET,
        execution_configs: Sequence[
            Tuple[str, Dict[str, object]]
        ] = STRUCTURE_EXECUTION_CONFIGS,
    ) -> List[Divergence]:
        """Verify one structure-suite spelling against the unoptimized
        reference, across the execution-configuration matrix.

        ``suite`` is a ``structure_opt`` spec ("cse", "prune,cse", ...).
        CSE is exact, so a suite without pruning is held to the
        reference tolerance; suites containing prune get
        ``accuracy_budget`` of additional absolute log-likelihood slack
        — the budget is the *semantic contract* of that pass, and this
        check is what enforces it. Divergences
        shrink and dump reproducers exactly like backend divergences.
        """
        lossy = any(name != "cse" for name in suite.split(","))
        budget = accuracy_budget if lossy else 0.0
        if lossy:
            # The budget is a modeled-domain contract: lossy drops are
            # proven over bounded leaf domains, so enforcement projects
            # the inputs into that domain first (CSE-only suites stay
            # bit-exact on arbitrary inputs and are checked unclamped).
            case = case.replace(
                inputs=clamp_to_modeled_domain(case.spn, case.inputs)
            )
        divergences: List[Divergence] = []
        previous = self.extra_tolerance
        self.extra_tolerance = budget
        try:
            reference, tolerance = self._reference_and_tolerance(case)
            for name, options in execution_configs:
                spec = ConfigSpec(
                    f"{name}+structure[{suite}]",
                    options={
                        **options,
                        "structure_opt": suite,
                        "accuracy_budget": budget,
                    },
                )
                self.comparisons += 1
                divergence = self._check_config(spec, case, reference, tolerance)
                if divergence is not None:
                    if self.shrink and divergence.error is None:
                        divergence = self._shrink(spec, divergence)
                    if self.dump_reproducers:
                        divergence.reproducer_path = self._dump(spec, divergence)
                    divergences.append(divergence)
                    self.log(divergence.describe())
        finally:
            self.extra_tolerance = previous
        return divergences

    def fuzz_structure(
        self,
        count: int,
        seed: int = 0,
        start: int = 0,
        accuracy_budget: float = DEFAULT_STRUCTURE_BUDGET,
        max_features: int = 5,
        max_depth: int = 3,
        report: Optional[FuzzReport] = None,
    ) -> FuzzReport:
        """Permute the structure suite over generated cases.

        Each case gets a random non-empty subset of the suite passes in
        a random order (``fuzz --structure-opt``); semantic preservation
        is asserted exactly for CSE-only spellings and within
        ``accuracy_budget`` when prune participates.
        """
        report = report or FuzzReport()
        generator = CaseGenerator(
            seed=seed, max_features=max_features, max_depth=max_depth
        )
        names = list(STRUCTURE_PASS_NAMES)
        for case in generator.cases(count, start=start):
            rng = np.random.default_rng([seed, case.index, 0x57])
            chosen = [n for n in names if rng.random() < 0.5] or [
                names[int(rng.integers(len(names)))]
            ]
            rng.shuffle(chosen)
            suite = ",".join(chosen)
            report.cases_run += 1
            report.divergences.extend(
                self.check_structure_case(
                    case, suite, accuracy_budget=accuracy_budget
                )
            )
        report.configs_compared = self.comparisons
        return report

    # -- fuzzing loop ------------------------------------------------------------

    def fuzz(
        self,
        count: int,
        seed: int = 0,
        start: int = 0,
        max_features: int = 5,
        max_depth: int = 3,
        ir_share: float = 0.25,
        query_kinds: Sequence[str] = ("joint",),
        report: Optional[FuzzReport] = None,
    ) -> FuzzReport:
        """Run ``count`` generated cases (plus interleaved IR fuzzing).

        ``query_kinds`` selects the modality mix (round-robin over the
        tuple; see :data:`~repro.testing.generators.QUERY_CASE_KINDS`).
        IR round-trip/permutation fuzzing rides on joint cases only —
        its interpreter baseline replays the joint kernel layout.
        """
        report = report or FuzzReport()
        generator = CaseGenerator(
            seed=seed, max_features=max_features, max_depth=max_depth,
            query_kinds=query_kinds,
        )
        ir_fuzzer = IRFuzzer(artifact_dir=self.artifact_dir)
        ir_every = max(1, int(round(1.0 / ir_share))) if ir_share > 0 else 0
        for case in generator.cases(count, start=start):
            report.cases_run += 1
            report.divergences.extend(self.check_case(case))
            if (
                ir_every
                and case.index % ir_every == 0
                and case.query.kind == "joint"
            ):
                report.ir_failures.extend(ir_fuzzer.fuzz_case(case))
        report.configs_compared = self.comparisons
        return report


    def fuzz_layers(
        self,
        count: int,
        seed: int = 0,
        start: int = 0,
        ir: bool = True,
        report: Optional[FuzzReport] = None,
    ) -> FuzzReport:
        """Run ``count`` sum-layer cases (``CaseGenerator.layer_case``).

        The random shapes of :meth:`fuzz` rarely reach the fan-in at
        which batch kernels switch to the stacked sum lowering; these
        cases sit on both sides of it, up to a RAT-SPN class root. With
        ``ir``, each case also goes through the IR fuzzer with the
        scalar *and* the batch lowering, so ``lo_spn.weighted_sum`` and
        the rank-2 vector ops are in the round-trip and
        pass-permutation corpus.
        """
        report = report or FuzzReport()
        generator = CaseGenerator(seed=seed)
        ir_fuzzer = IRFuzzer(artifact_dir=self.artifact_dir)
        for index in range(start, start + count):
            case = generator.layer_case(index)
            report.cases_run += 1
            report.divergences.extend(self.check_case(case))
            if ir:
                report.ir_failures.extend(
                    ir_fuzzer.fuzz_case(case, permute=("off", "batch"))
                )
        report.configs_compared = self.comparisons
        return report


def _replay_flags(spec: ConfigSpec, case: Case) -> str:
    """``repro run`` flags replaying ``spec`` on ``case``'s query."""
    options = spec.options
    query = case.query
    flags = []
    if query.kind != "joint":
        flags.append(f"--query {query.kind}")
    if query.kind == "conditional":
        variables = ",".join(str(v) for v in query.query_variables)
        flags.append(f"--query-variables {variables}")
    elif query.kind == "expectation":
        flags.append(f"--moment {query.moment}")
    elif query.kind == "sample":
        flags.append(f"--seed {case.sample_seed}")
    if options.get("target"):
        flags.append(f"--target {options['target']}")
    if "opt_level" in options:
        flags.append(f"--opt {options['opt_level']}")
    if "vectorize" in options:
        flags.append(f"--vectorize {options['vectorize']}")
    if options.get("max_partition_size") is not None:
        flags.append(f"--partition {options['max_partition_size']}")
    if options.get("structure_opt"):
        flags.append(f"--structure-opt {options['structure_opt']}")
    if options.get("accuracy_budget"):
        flags.append(f"--accuracy-budget {options['accuracy_budget']}")
    return " ".join(flags)


def _sum_nodes(root: Node) -> List[Sum]:
    found: List[Sum] = []
    seen = set()

    def walk(node: Node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, Sum):
            found.append(node)
        for child in getattr(node, "children", ()):
            walk(child)

    walk(root)
    return found


def _replace_node(root: Node, target: Node, replacement: Node) -> Node:
    """Rebuild the tree with ``target`` swapped for ``replacement``."""
    if root is target:
        return replacement
    if isinstance(root, Sum):
        children = [_replace_node(c, target, replacement) for c in root.children]
        if all(a is b for a, b in zip(children, root.children)):
            return root
        return Sum(children, root.weights)
    if isinstance(root, Product):
        children = [_replace_node(c, target, replacement) for c in root.children]
        if all(a is b for a, b in zip(children, root.children)):
            return root
        return Product(children)
    return root


# --- IR-layer fuzzing ----------------------------------------------------------

#: Pass names whose permutations must preserve semantics.
PERMUTABLE_PASSES = ("canonicalize", "cse", "dce", "licm")


class IRFuzzer:
    """Print/parse round-trip and pass-permutation fuzzing."""

    def __init__(
        self,
        artifact_dir: Optional[str] = None,
        dump_reproducers: bool = True,
    ):
        self.artifact_dir = artifact_dir
        self.dump_reproducers = dump_reproducers

    def fuzz_case(
        self, case: Case, permute: Sequence[str] = ("off",)
    ) -> List[str]:
        """Round-trip one lowering of ``case`` and permute the cleanup
        passes over each lowering mode in ``permute``."""
        failures: List[str] = []
        rng = np.random.default_rng([case.seed, case.index, 0xFE])
        vectorize = str(rng.choice(["off", "lanes", "batch"]))
        try:
            lowered = _lowered_module(case, vectorize)
        except Exception as error:
            failures.append(
                f"{case.name}: lowering ({vectorize}) failed: "
                f"{type(error).__name__}: {error}"
            )
            self._dump(case, failures[-1], None)
            return failures
        failures.extend(self.check_roundtrip(case, lowered, vectorize))
        for mode in permute:
            failures.extend(self.check_pass_permutation(case, rng, mode))
        return failures

    def check_roundtrip(self, case: Case, module, label: str) -> List[str]:
        """print → parse → reprint must be a fixed point, and verify."""
        first = print_op(module)
        try:
            reparsed = parse_module(first)
            verify(reparsed)
            second = print_op(reparsed)
        except Exception as error:
            message = (
                f"{case.name}: round-trip ({label}) failed: "
                f"{type(error).__name__}: {error}"
            )
            self._dump(case, message, first)
            return [message]
        if second != first:
            message = f"{case.name}: reprint ({label}) is not a fixed point"
            self._dump(case, message, first + "\n// --- reprint ---\n" + second)
            return [message]
        return []

    def check_pass_permutation(
        self, case: Case, rng, vectorize: str = "off"
    ) -> List[str]:
        """A random pass-pipeline permutation must preserve semantics."""
        order = list(PERMUTABLE_PASSES)
        rng.shuffle(order)
        # Random subset too — passes must not rely on a predecessor.
        keep = max(1, int(rng.integers(1, len(order) + 1)))
        spec = ",".join(order[:keep])
        try:
            baseline = _interpret_lowered(
                _lowered_module(case, vectorize), case, INTERPRETER_ROW_LIMIT
            )
            module = _lowered_module(case, vectorize)
            # "every-pass" runs the structural verifier *and* the static
            # analyses (buffer safety, range, lint, concurrency) after
            # each pass, so a pass that produces invalid-but-interpretable
            # IR fails structurally instead of surfacing only as a
            # numeric divergence downstream.
            parse_pipeline(spec, verify_each="every-pass").run(module)
            after = _interpret_lowered(module, case, INTERPRETER_ROW_LIMIT)
        except Exception as error:
            message = (
                f"{case.name}: pipeline [{spec}] ({vectorize}) failed: "
                f"{type(error).__name__}: {error}"
            )
            self._dump(case, message, None)
            return [message]
        match = outputs_match(
            after, baseline, np.full_like(baseline, TOLERANCE_FLOOR)
        )
        if not match.all():
            message = (
                f"{case.name}: pipeline [{spec}] ({vectorize}) changed "
                f"interpreter results: {after.tolist()} vs {baseline.tolist()}"
            )
            self._dump(case, message, print_op(module))
            return [message]
        return []

    def _dump(self, case: Case, message: str, module_text: Optional[str]):
        if not self.dump_reproducers:
            return None
        diagnostic = Diagnostic(
            severity=Severity.ERROR,
            code=ErrorCode.IR_FUZZ_FAILED,
            message=message,
            stage="ir-fuzz",
            detail={"seed": case.seed, "index": case.index},
        )
        return dump_reproducer(
            diagnostic, module_text=module_text, artifact_dir=self.artifact_dir
        )


def _lowered_module(case: Case, vectorize: str):
    module = lower_to_lospn(build_hispn_module(case.spn, case.query))
    module = bufferize(module)
    remove_result_copies(module)
    insert_deallocations(module)
    return lower_kernel_to_cpu(module, CPULoweringOptions(vectorize=vectorize))


def _interpret_lowered(
    lowered, case: Case, row_limit: Optional[int]
) -> np.ndarray:
    from ..backends.cpu.codegen import numpy_dtype
    from ..dialects.func import lookup_function

    kernel = lookup_function(lowered, "spn_kernel")
    if kernel is None:
        raise ValueError("lowered module has no 'spn_kernel' function")
    input_type, result_type = kernel.arg_types[0], kernel.arg_types[-1]
    x = np.ascontiguousarray(
        case.inputs[:row_limit], dtype=numpy_dtype(input_type.element_type)
    )
    out = np.empty(
        (result_type.shape[0] or 1, x.shape[0]),
        dtype=numpy_dtype(result_type.element_type),
    )
    Interpreter(lowered).call(kernel.sym_name, x, out)
    return out[0]
