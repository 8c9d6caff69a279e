"""End-to-end compilation driver (paper Section IV).

Since PR 5 the driver is *thin*: the entire flow is one declarative
pass pipeline, resolved from the target registry
(:mod:`repro.compiler.targets`) and run by a single
:class:`~repro.ir.passes.PassManager`. For the default CPU
configuration (-O1) the pipeline is::

    frontend,hispn-simplify,lower-to-lospn,bufferize,
    buffer-optimization,buffer-deallocation,
    cpu-lowering,canonicalize,cse,licm,dce

followed by the target's codegen step (which is not a pass — it leaves
IR-land). ``spnc compile --print-pipeline`` prints the spec for any
configuration and ``--pipeline`` overrides it.

Optimization levels mirror the paper's -O0…-O3 (Section V-B1), encoded
declaratively in :data:`repro.compiler.targets.CLEANUP_LADDER` and the
per-level stages of :func:`repro.compiler.targets.common_pipeline`:

========  ==========================================================
-O0       structural lowering only; no CSE/canonicalization/LICM,
          naive bufferization copies remain
-O1       ``hispn-simplify`` + ``buffer-optimization`` + the
          canonicalize/cse/licm/dce sweep after target lowering (the
          configuration the paper selects as the best trade-off)
-O2       a second canonicalize/cse round after target lowering
-O3       -O2 plus a LoSPN-level CSE round, chain re-balancing, and
          one more greedy canonicalization sweep
========  ==========================================================

The PassManager records unified per-pass instrumentation — wall time,
op-count deltas, optional IR snapshots — surfaced on
:class:`CompilationResult` (``stage_seconds`` keeps the historic
accumulated-per-stage view the compile-time experiments, Figs. 10-13,
read; ``timings`` carries the full per-pass records).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..diagnostics import (
    Diagnostic,
    ErrorCode,
    OptionsError,
    PassError,
    Severity,
    StageError,
    dump_reproducer,
)
from ..ir import ModuleOp, print_op
from ..ir.analysis import AnalysisFinding
from ..ir.passes import PassInstrumentation, PassManager
from ..ir.pipeline_spec import build_pipeline
from ..spn.nodes import Node
from ..spn.query import (
    QUERY_KINDS,
    ConditionalProbability,
    Expectation,
    JointProbability,
    Query,
)
from ..testing import faults
from .cpu.lowering import ISAS, normalize_vectorize_mode
from .partitioning import PartitioningStats
from .stages import FrontendPass, PartitionPass
from .targets import get_target, registered_targets

#: The frozen public stage-timing vocabulary: every key that can appear
#: in ``CompilationResult.stage_seconds`` for a registry-built pipeline.
#: Benchmarks and the EXPERIMENTS figures read these names — changing
#: one is an interface break (see tests/compiler/test_targets.py).
STAGE_NAMES = (
    "frontend",
    "hispn-simplify",
    "structure-cse",
    "structure-prune",
    "lower-to-lospn",
    "lospn-cse",
    "graph-partitioning",
    "balance-chains",
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
    "canonicalize-3",
    "codegen",
    "gpu-codegen",
)


@dataclass
class CompilerOptions:
    """User-facing compiler configuration (the Python interface knobs)."""

    target: str = "cpu"  # "cpu" | "gpu"
    opt_level: int = 1
    # CPU mapping strategy (Section V-A1). ``vectorize`` selects the
    # batch-loop strategy: "batch" (default — whole-chunk NumPy vector
    # kernels), "lanes" (fixed ISA-width vectors + scalar epilogue, for
    # the fig06/fig11 design-space exploration) or "off" (scalar loop).
    vectorize: str = "batch"
    vector_isa: str = "avx2"
    use_vector_library: bool = True
    use_shuffle: bool = True
    superword_factor: int = 128
    num_threads: int = 1
    # Target-independent knobs.
    max_partition_size: Optional[int] = None
    use_log_space: bool = True
    #: Structure-level optimization suite (architecture §17): which of
    #: the HiSPN graph rewrites run before lowering. ``None`` derives
    #: the set from the -O ladder (-O3 enables "cse,prune"; lower levels
    #: none); "none"/"off" disables explicitly; otherwise a comma list
    #: drawn from {cse, prune} applied in the given order. "cse" is
    #: exact; "prune" is lossy and honors ``accuracy_budget``.
    structure_opt: Optional[str] = None
    #: Maximum acceptable absolute log-likelihood error introduced by
    #: pruning. 0.0 (default) restricts pruning to exactly-zero weights
    #: (semantics-preserving).
    accuracy_budget: float = 0.0
    #: Query modality compiled when no explicit Query object is passed:
    #: "joint" (default), "mpe", "sample", "conditional", "expectation".
    #: Every modality flows through the same registered pass pipeline;
    #: only the frontend op and the runtime wrapper differ.
    query: str = "joint"
    #: Conditioned variables for ``query="conditional"`` (P(Q | E)).
    query_variables: tuple = ()
    #: Raw moment order for ``query="expectation"`` (1 or 2).
    moment: int = 1
    # GPU knobs (block size defaults to the query batch size).
    gpu_block_size: Optional[int] = None
    #: Concurrent device streams for the GPU software pipeline: with
    #: ``streams > 1`` the executable slices batches into chunks and
    #: overlaps host↔device copies with kernel compute (Fig. 9 reclaim).
    #: 1 preserves the historic serialized execution.
    streams: int = 1
    #: Textual pipeline override (mlir-opt style). ``None`` resolves the
    #: declarative pipeline from the target registry; a spec string
    #: replaces the pass sequence wholesale (codegen still comes from
    #: the target). See ``spnc compile --print-pipeline``.
    pipeline: Optional[str] = None
    # Diagnostics.
    collect_ir: bool = False
    #: Static-analysis instrumentation level (see repro.ir.analysis):
    #: "off" (default), "structural" (IR verifier after every pass, no
    #: analyses), "boundaries" (verifier + the registered checks —
    #: buffer safety, log-space range, lint — at the pipeline's dialect
    #: boundaries: after LoSPN lowering, after bufferization and on the
    #: final lowered module) or "every-pass" (after every stage).
    #: ERROR findings abort compilation with a StageError; WARNING/NOTE
    #: findings are collected on CompilationResult.analysis_findings.
    verify_each: str = "off"
    #: Directory for reproducer dumps on failure; ``None`` resolves via
    #: ``$SPNC_ARTIFACT_DIR`` / the system temp dir (see
    #: :func:`repro.diagnostics.artifact_directory`).
    artifact_dir: Optional[str] = None

    def __post_init__(self):
        if self.target not in registered_targets():
            raise OptionsError(f"unknown target '{self.target}'")
        if not 0 <= self.opt_level <= 3:
            raise OptionsError("opt_level must be in 0..3")
        try:
            self.vectorize = normalize_vectorize_mode(self.vectorize)
        except ValueError as error:
            raise OptionsError(str(error)) from None
        if self.vector_isa not in ISAS:
            raise OptionsError(f"unknown vector ISA '{self.vector_isa}'")
        if self.verify_each not in ("off", "structural", "boundaries", "every-pass"):
            raise OptionsError(
                f"unknown verify_each mode '{self.verify_each}' "
                "(expected 'off', 'structural', 'boundaries' or 'every-pass')"
            )
        if self.num_threads < 1:
            raise OptionsError("num_threads must be >= 1")
        if self.streams < 1:
            raise OptionsError("streams must be >= 1")
        if self.query not in QUERY_KINDS:
            raise OptionsError(
                f"unknown query kind '{self.query}' "
                f"(expected one of {', '.join(sorted(QUERY_KINDS))})"
            )
        try:
            self.query_variables = tuple(
                sorted({int(v) for v in self.query_variables})
            )
        except (TypeError, ValueError):
            raise OptionsError("query_variables must be a sequence of ints") from None
        if self.query == "conditional" and not self.query_variables:
            raise OptionsError(
                "query='conditional' requires non-empty query_variables"
            )
        if self.moment not in (1, 2):
            raise OptionsError("moment must be 1 or 2")
        try:
            self.accuracy_budget = float(self.accuracy_budget)
        except (TypeError, ValueError):
            raise OptionsError("accuracy_budget must be a number") from None
        if self.accuracy_budget < 0:
            raise OptionsError("accuracy_budget must be >= 0")
        self.structure_passes()  # validates structure_opt

    def cache_fingerprint(self) -> tuple:
        """Normalized tuple of every option that affects the compiled
        kernel — the compiler caches key on this, so two spellings of the
        same configuration share an entry and any change in vectorization
        mode/width/veclib recompiles."""
        return (
            self.target,
            self.opt_level,
            self.vectorize,  # already normalized to "off"/"lanes"/"batch"
            self.vector_isa,
            self.use_vector_library,
            self.use_shuffle,
            self.superword_factor,
            self.num_threads,
            self.max_partition_size,
            self.use_log_space,
            self.gpu_block_size,
            self.streams,
            self.pipeline,
            self.collect_ir,
            self.query,
            self.query_variables,
            self.moment,
            # Fingerprint the *resolved* structure suite so explicit and
            # ladder-derived spellings of the same configuration share a
            # cache entry (and serving versions key on the real passes).
            self.structure_passes(),
            self.accuracy_budget,
        )

    #: Recognized structure-suite pass names, in canonical run order.
    STRUCTURE_PASSES = ("cse", "prune")

    def structure_passes(self) -> tuple:
        """Resolved structure-suite pass names, in run order.

        ``structure_opt=None`` derives from the -O ladder: -O3 enables
        the exact + semantics-preserving pair ("cse", "prune"); lower
        levels run nothing. Explicit specs are honored verbatim (order
        preserved, duplicates dropped).
        """
        if self.structure_opt is None:
            return ("cse", "prune") if self.opt_level >= 3 else ()
        spec = self.structure_opt.strip()
        if spec in ("", "none", "off"):
            return ()
        passes = []
        for name in spec.split(","):
            name = name.strip()
            if name not in self.STRUCTURE_PASSES:
                raise OptionsError(
                    f"unknown structure pass '{name}' (expected a comma "
                    f"list of {', '.join(self.STRUCTURE_PASSES)}, or "
                    "'none')"
                )
            if name not in passes:
                passes.append(name)
        return tuple(passes)

    def structure_budget_share(self) -> float:
        """Accuracy budget of the one lossy pass (prune); 0 when it is off."""
        return self.accuracy_budget if "prune" in self.structure_passes() else 0.0

    def make_query(self) -> Query:
        """The :class:`~repro.spn.query.Query` these options describe."""
        if self.query == "conditional":
            return ConditionalProbability(query_variables=self.query_variables)
        if self.query == "expectation":
            return Expectation(moment=self.moment)
        return QUERY_KINDS[self.query]()


@dataclass
class CompilationResult:
    """A compiled kernel plus compile-time diagnostics."""

    executable: object
    options: CompilerOptions
    query: JointProbability
    stage_seconds: "OrderedDict[str, float]"
    partitioning: Optional[PartitioningStats]
    num_tasks: int
    ir_dumps: Dict[str, str] = field(default_factory=dict)
    #: WARNING/NOTE static-analysis findings collected by the
    #: verify_each instrumentation (ERROR findings abort compilation).
    analysis_findings: List["AnalysisFinding"] = field(default_factory=list)
    #: Unified per-pass instrumentation (wall time + op-count deltas +
    #: optional IR snapshots) from the PassManager run. ``stage_seconds``
    #: is its accumulated-per-stage view plus the codegen step.
    timings: Optional[PassInstrumentation] = None
    #: The textual pipeline spec the driver ran (round-trips through
    #: ``repro.ir.pipeline_spec.build_pipeline``).
    pipeline: str = ""

    @property
    def compile_time(self) -> float:
        return sum(self.stage_seconds.values())


def build_compile_pipeline(
    options: CompilerOptions,
    query: Optional[JointProbability] = None,
) -> "tuple[Target, str]":
    """Resolve (target, textual pipeline spec) for a configuration."""
    target = get_target(options.target)
    spec = options.pipeline or target.pipeline(options, query)
    return target, spec


def compile_spn(
    root: Node,
    query: Optional[JointProbability] = None,
    options: Optional[CompilerOptions] = None,
) -> CompilationResult:
    """Compile an SPN query to an executable kernel.

    ``query`` may be any :class:`~repro.spn.query.Query` modality; when
    omitted it is derived from ``options.query`` (default: joint).
    """
    options = options or CompilerOptions()
    query = query or options.make_query()
    target, spec = build_compile_pipeline(options, query)

    try:
        passes = build_pipeline(spec)
    except ValueError as error:
        raise OptionsError(f"invalid pipeline: {error}") from None
    for pass_ in passes:
        if isinstance(pass_, FrontendPass):
            pass_.bind(root, query)

    manager = PassManager(
        verify_each=options.verify_each,
        artifact_dir=options.artifact_dir,
        collect_ir=options.collect_ir,
    )
    manager.reproducer_options = options
    manager.diagnostic_target = target.name
    manager.extend(passes)
    target.install_checkpoints(manager)

    module = ModuleOp.build()
    try:
        manager.run(module)
    except PassError as error:
        # Pipeline stages *are* passes; surface the failure as the
        # stage-level error the driver has always raised, reusing the
        # diagnostic (which names both pass and stage) and reproducer.
        raise StageError(
            error.args[0],
            diagnostic=error.diagnostic,
            reproducer_path=error.reproducer_path,
        ) from error

    # Codegen is not a pass (it leaves IR-land); the driver runs it as a
    # timed, fault-checked stage recorded into the same instrumentation,
    # so stage_seconds/report() cover the whole flow.
    codegen_stage = target.spec.codegen_stage
    start = time.perf_counter()
    try:
        faults.maybe_fail_stage(codegen_stage)
        executable = target.codegen(module, passes, options, query)
    except Exception as error:
        raise _codegen_error(codegen_stage, error, module, options) from error
    # Non-joint modalities carry a host-side query plan on the kernel;
    # wrap the backend executable with the matching post-processor (MPE
    # traceback, sampling, ...). Joint kernels pass through unchanged.
    from ..runtime.query_executable import make_query_executable

    executable = make_query_executable(executable, target.lowering_info(passes))
    manager.timing.record(codegen_stage, time.perf_counter() - start)

    stage_seconds: "OrderedDict[str, float]" = OrderedDict(
        manager.timing.stage_seconds()
    )
    return CompilationResult(
        executable=executable,
        options=options,
        query=query,
        stage_seconds=stage_seconds,
        partitioning=next(
            (p.stats for p in passes if isinstance(p, PartitionPass)), None
        ),
        num_tasks=target.lowering_info(passes).num_tasks,
        ir_dumps=manager.timing.ir_dumps(),
        analysis_findings=manager.analysis_findings,
        timings=manager.timing,
        pipeline=spec,
    )


def _codegen_error(
    name: str,
    error: BaseException,
    module: ModuleOp,
    options: CompilerOptions,
) -> StageError:
    if isinstance(error, faults.FaultInjectionError):
        code = ErrorCode.FAULT_INJECTED
    else:
        code = ErrorCode.CODEGEN_FAILED
    message = f"stage '{name}' failed: {type(error).__name__}: {error}"
    diagnostic = Diagnostic(
        severity=Severity.ERROR,
        code=code,
        message=message,
        stage=name,
        op_path=getattr(error, "op_path", None),
        target=options.target,
        detail={"exception_type": type(error).__name__},
    )
    try:
        module_text = print_op(module)
    except Exception:  # a broken module must not mask the error
        module_text = None
    reproducer = dump_reproducer(
        diagnostic,
        module_text=module_text,
        options=options,
        artifact_dir=options.artifact_dir,
    )
    return StageError(message, diagnostic=diagnostic, reproducer_path=reproducer)
