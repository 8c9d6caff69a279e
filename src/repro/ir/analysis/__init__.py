"""Static dataflow analyses over the IR (no execution required).

The package provides a generic MLIR-style dataflow engine
(:mod:`.engine`), the lattice domains it runs over (:mod:`.lattices`)
and three registered checks:

- ``"buffer-safety"`` (:mod:`.buffer_safety`) — use-after-dealloc,
  double-dealloc, leaks, read-only-argument writes, statically
  out-of-bounds constant indices;
- ``"range"`` (:mod:`.range_analysis`) — interval analysis over LoSPN
  probability computations, proving where linear-space math underflows
  f64 and warning on non-log intermediates that can reach 0 or ±inf;
- ``"lint"`` (:mod:`.linter`) — unused pure results, dead blocks,
  shadowed symbols, task batch-dim/kernel-signature disagreements.

Entry points: :func:`run_checks` (used by the pass-manager verify-each
instrumentation, the pipeline driver and ``python -m repro analyze``)
and :func:`run_analysis` for running a custom
:class:`DataflowAnalysis` directly.
"""

from .engine import (
    AnalysisContext,
    AnalysisFinding,
    DataflowAnalysis,
    register_check,
    registered_checks,
    run_analysis,
    run_checks,
    severity_at_least,
)
from .lattices import BOTTOM, LOG_F64_MAX, LOG_F64_MIN, TOP, Interval

# Importing the modules registers their checks.
from . import buffer_safety as _buffer_safety  # noqa: F401
from . import linter as _linter  # noqa: F401
from . import memory_access as _memory_access  # noqa: F401
from . import range_analysis as _range_analysis  # noqa: F401

from .buffer_safety import BufferSafetyAnalysis, check_buffer_safety
from .linter import check_lint
from .memory_access import (
    MemoryAccessSummary,
    check_concurrency,
    check_shard_plan,
    summarize_kernel,
)
from .range_analysis import RangeAnalysis, check_range
from .stream_hazards import verify_profile

__all__ = [
    "AnalysisContext",
    "AnalysisFinding",
    "BufferSafetyAnalysis",
    "DataflowAnalysis",
    "Interval",
    "MemoryAccessSummary",
    "RangeAnalysis",
    "BOTTOM",
    "TOP",
    "LOG_F64_MIN",
    "LOG_F64_MAX",
    "check_buffer_safety",
    "check_concurrency",
    "check_lint",
    "check_range",
    "check_shard_plan",
    "summarize_kernel",
    "verify_profile",
    "register_check",
    "registered_checks",
    "run_analysis",
    "run_checks",
    "severity_at_least",
]
