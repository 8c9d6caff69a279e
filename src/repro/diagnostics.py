"""Structured compiler diagnostics and the error hierarchy.

Production deployments drive the compiler behind SPFlow's Python API
("a single API call", paper Section IV-A1), so a defect anywhere in the
compile/execute path must surface as *actionable data*, not a bare
traceback. This module provides:

- :class:`Diagnostic` — a structured record (severity, stable error
  code, pipeline stage, pass name, op path into the IR) describing one
  event;
- :class:`DiagnosticLog` — an ordered collector attached to compiler
  entry points;
- the :class:`CompilerError` hierarchy — every failure raised out of the
  pipeline carries its :class:`Diagnostic`, so callers can tell *which*
  pass or stage broke without parsing messages;
- :func:`dump_reproducer` — writes the offending IR (generic textual
  form) plus the active :class:`~repro.compiler.pipeline.CompilerOptions`
  to an artifact directory, producing a self-contained reproducer for
  bug reports.

The module deliberately imports nothing from :mod:`repro.ir` so that the
IR layer (pass manager, verifier) can depend on it without cycles.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import enum
import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


class Severity(enum.Enum):
    """Severity of a diagnostic, ordered from least to most severe."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"
    FATAL = "fatal"

    def __str__(self) -> str:
        return self.value


class ErrorCode:
    """Stable machine-readable codes (stringly-typed, grep-friendly)."""

    INVALID_OPTIONS = "invalid-options"
    VERIFY_FAILED = "verify-failed"
    ANALYSIS_FAILED = "static-analysis-failed"
    PASS_FAILED = "pass-failed"
    STAGE_FAILED = "stage-failed"
    CODEGEN_FAILED = "codegen-failed"
    EXECUTION_FAILED = "execution-failed"
    QUERY_NAN = "query-variable-nan"
    KERNEL_NAN = "kernel-nan"
    DEVICE_OOM = "device-oom"
    DEVICE_OOM_RETRY = "device-oom-retry"
    FALLBACK_CPU = "fallback-cpu-kernel"
    FALLBACK_INTERPRETER = "fallback-interpreter"
    FAULT_INJECTED = "fault-injected"
    DIVERGENCE = "differential-divergence"
    IR_FUZZ_FAILED = "ir-fuzz-failed"
    # Serving-runtime codes (repro.serving).
    DEADLINE_EXCEEDED = "deadline-exceeded"
    ADMISSION_REJECTED = "admission-rejected"
    BREAKER_OPEN = "circuit-breaker-open"
    EXECUTABLE_CLOSED = "executable-closed"
    MODEL_SWAPPED = "model-swapped"
    MODEL_NOT_FOUND = "model-not-found"


@dataclass
class Diagnostic:
    """One structured diagnostic event.

    Attributes:
        severity: how bad it is.
        code: stable identifier from :class:`ErrorCode`.
        message: human-readable description.
        stage: pipeline stage name (as recorded by the stage driver),
            e.g. ``"cpu-lowering"`` or ``"codegen"``.
        pass_name: IR pass name when the failure happened inside a
            :class:`~repro.ir.passes.PassManager` run.
        op_path: path into the IR naming the offending operation, e.g.
            ``"builtin.module/lo_spn.kernel#0/lo_spn.task#1/arith.addf#3"``.
        target: compilation target the event relates to ("cpu"/"gpu").
        detail: free-form extra data (exception repr, retry counts, ...).
    """

    severity: Severity
    code: str
    message: str
    stage: Optional[str] = None
    pass_name: Optional[str] = None
    op_path: Optional[str] = None
    target: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """One-line human-readable form."""
        where = []
        if self.target:
            where.append(f"target={self.target}")
        if self.stage:
            where.append(f"stage={self.stage}")
        if self.pass_name:
            where.append(f"pass={self.pass_name}")
        if self.op_path:
            where.append(f"at={self.op_path}")
        location = f" [{', '.join(where)}]" if where else ""
        return f"{self.severity}: {self.code}: {self.message}{location}"

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["severity"] = str(self.severity)
        return data


# --- request-scoped diagnostic context ---------------------------------------------

#: Ambient key/value annotations attached to every diagnostic emitted
#: while a :func:`diagnostic_context` is active. Backed by a
#: ``contextvars.ContextVar`` so concurrent server threads (and asyncio
#: tasks) each see only their own request's context.
_DIAGNOSTIC_CONTEXT: contextvars.ContextVar[Dict[str, Any]] = contextvars.ContextVar(
    "repro_diagnostic_context", default={}
)


@contextlib.contextmanager
def diagnostic_context(**fields: Any):
    """Annotate all diagnostics emitted inside the block.

    The serving runtime wraps each request/batch in
    ``diagnostic_context(request_id=..., model=...)`` so a kernel
    failure deep inside the runtime can be traced back to the request
    that triggered it. Nested contexts merge (inner wins on key clash).
    """
    merged = dict(_DIAGNOSTIC_CONTEXT.get())
    merged.update(fields)
    token = _DIAGNOSTIC_CONTEXT.set(merged)
    try:
        yield merged
    finally:
        _DIAGNOSTIC_CONTEXT.reset(token)


def current_diagnostic_context() -> Dict[str, Any]:
    """The active request-scoped annotations (empty outside any context)."""
    return dict(_DIAGNOSTIC_CONTEXT.get())


class DiagnosticLog:
    """Ordered collection of diagnostics for one compiler/executor.

    Thread-safe for concurrent :meth:`emit` (the serving runtime shares
    one log across batcher workers). Diagnostics emitted inside a
    :func:`diagnostic_context` are annotated with the active request
    scope under ``detail["context"]``.
    """

    def __init__(self):
        self._diagnostics: List[Diagnostic] = []

    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        scope = _DIAGNOSTIC_CONTEXT.get()
        if scope and "context" not in diagnostic.detail:
            diagnostic.detail["context"] = dict(scope)
        self._diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics) -> None:
        for diagnostic in diagnostics:
            self.emit(diagnostic)

    def clear(self) -> None:
        self._diagnostics.clear()

    @property
    def last(self) -> Optional[Diagnostic]:
        return self._diagnostics[-1] if self._diagnostics else None

    def errors(self) -> List[Diagnostic]:
        return [
            d
            for d in self._diagnostics
            if d.severity in (Severity.ERROR, Severity.FATAL)
        ]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self._diagnostics if d.code == code]

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(list(self._diagnostics))

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __getitem__(self, index):
        return self._diagnostics[index]

    def report(self) -> str:
        return "\n".join(d.render() for d in self._diagnostics)


# --- error hierarchy ---------------------------------------------------------------


class CompilerError(Exception):
    """Base class for structured compile/execute failures.

    Every instance carries a :class:`Diagnostic` (``.diagnostic``) and,
    when a reproducer was dumped, the path to it (``.reproducer_path``).
    """

    default_code = ErrorCode.STAGE_FAILED

    def __init__(
        self,
        message: str,
        diagnostic: Optional[Diagnostic] = None,
        reproducer_path: Optional[str] = None,
    ):
        super().__init__(message)
        self.diagnostic = diagnostic or Diagnostic(
            severity=Severity.ERROR, code=self.default_code, message=message
        )
        self.reproducer_path = reproducer_path

    @property
    def stage(self) -> Optional[str]:
        return self.diagnostic.stage

    @property
    def pass_name(self) -> Optional[str]:
        return self.diagnostic.pass_name

    def __str__(self) -> str:
        base = super().__str__()
        if self.reproducer_path:
            return f"{base} (reproducer: {self.reproducer_path})"
        return base


class OptionsError(CompilerError, ValueError):
    """Invalid user-facing compiler configuration.

    Subclasses ``ValueError`` for backward compatibility with callers
    that predate the structured hierarchy.
    """

    default_code = ErrorCode.INVALID_OPTIONS


class PassError(CompilerError):
    """An IR pass raised, or verification failed right after it."""

    default_code = ErrorCode.PASS_FAILED


class StageError(CompilerError):
    """A pipeline stage (frontend, lowering, codegen, ...) failed."""

    default_code = ErrorCode.STAGE_FAILED


class ExecutionError(CompilerError):
    """A compiled kernel failed (raised, or produced invalid output)."""

    default_code = ErrorCode.EXECUTION_FAILED


class DeviceError(ExecutionError):
    """The (simulated) GPU device failed, e.g. out of device memory."""

    default_code = ErrorCode.DEVICE_OOM


class FallbackExhaustedError(CompilerError):
    """Every rung of the degradation cascade failed."""

    default_code = ErrorCode.EXECUTION_FAILED


class DeadlineError(ExecutionError, TimeoutError):
    """A per-request/per-batch deadline expired before completion.

    Subclasses :class:`TimeoutError` so generic timeout handling works,
    while carrying the structured :class:`Diagnostic` of the hierarchy.
    """

    default_code = ErrorCode.DEADLINE_EXCEEDED


class ExecutableClosedError(ExecutionError, RuntimeError):
    """An :class:`~repro.runtime.executable.Executable` was invoked after
    (or concurrently with) :meth:`close`.

    Subclasses :class:`RuntimeError` for backward compatibility with
    callers that predate the structured hierarchy.
    """

    default_code = ErrorCode.EXECUTABLE_CLOSED


class AdmissionError(CompilerError):
    """The serving admission layer rejected a request (backpressure).

    Carries ``retry_after_s`` — the client-facing hint for when capacity
    is expected to free up (maps to HTTP 429 ``Retry-After``).
    """

    default_code = ErrorCode.ADMISSION_REJECTED

    def __init__(
        self,
        message: str,
        diagnostic: Optional[Diagnostic] = None,
        retry_after_s: float = 0.05,
    ):
        super().__init__(message, diagnostic=diagnostic)
        self.retry_after_s = retry_after_s


# --- reproducer dumps --------------------------------------------------------------

#: Environment variable overriding the default artifact directory.
ARTIFACT_ENV_VAR = "SPNC_ARTIFACT_DIR"

_dump_counter = itertools.count()


def artifact_directory(configured: Optional[str] = None) -> str:
    """Resolve the reproducer artifact directory.

    Priority: explicit ``configured`` value (e.g.
    ``CompilerOptions.artifact_dir``) > ``$SPNC_ARTIFACT_DIR`` > a
    ``spnc-artifacts`` folder under the system temp directory.
    """
    if configured:
        return configured
    env = os.environ.get(ARTIFACT_ENV_VAR)
    if env:
        return env
    return os.path.join(tempfile.gettempdir(), "spnc-artifacts")


def _options_to_dict(options: Any) -> Dict[str, Any]:
    if options is None:
        return {}
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        return dataclasses.asdict(options)
    if isinstance(options, dict):
        return dict(options)
    return {"repr": repr(options)}


def dump_reproducer(
    diagnostic: Diagnostic,
    module_text: Optional[str] = None,
    options: Any = None,
    artifact_dir: Optional[str] = None,
) -> Optional[str]:
    """Write a self-contained reproducer for a failure to disk.

    Produces ``<dir>/<stage>-<pid>-<n>/`` containing ``module.mlir``
    (the offending IR in generic textual form, when available),
    ``options.json`` (the active compiler configuration) and
    ``diagnostic.json``. Returns the directory path, or ``None`` when
    writing failed — a reproducer dump must never mask the original
    error, so all I/O errors are swallowed.
    """
    try:
        root = artifact_directory(artifact_dir)
        label = diagnostic.stage or diagnostic.pass_name or "failure"
        label = "".join(c if c.isalnum() or c in "-_" else "_" for c in label)
        path = os.path.join(root, f"{label}-{os.getpid()}-{next(_dump_counter)}")
        os.makedirs(path, exist_ok=True)
        if module_text is not None:
            with open(os.path.join(path, "module.mlir"), "w") as handle:
                handle.write(module_text)
        with open(os.path.join(path, "options.json"), "w") as handle:
            json.dump(_options_to_dict(options), handle, indent=2, default=repr)
        with open(os.path.join(path, "diagnostic.json"), "w") as handle:
            json.dump(diagnostic.to_dict(), handle, indent=2, default=repr)
        return path
    except OSError:
        return None


def diagnostic_from_exception(
    error: BaseException,
    *,
    code: str = ErrorCode.STAGE_FAILED,
    stage: Optional[str] = None,
    pass_name: Optional[str] = None,
    target: Optional[str] = None,
) -> Diagnostic:
    """Build a Diagnostic from an arbitrary exception, preserving any
    structured information a :class:`CompilerError` already carries."""
    if isinstance(error, CompilerError):
        inner = error.diagnostic
        return Diagnostic(
            severity=inner.severity,
            code=inner.code,
            message=inner.message,
            stage=stage or inner.stage,
            pass_name=pass_name or inner.pass_name,
            op_path=inner.op_path,
            target=target or inner.target,
            detail=dict(inner.detail),
        )
    op_path = getattr(error, "op_path", None)
    return Diagnostic(
        severity=Severity.ERROR,
        code=code,
        message=f"{type(error).__name__}: {error}",
        stage=stage,
        pass_name=pass_name,
        op_path=op_path,
        target=target,
        detail={"exception_type": type(error).__name__},
    )
