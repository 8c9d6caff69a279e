"""Textual pass-pipeline specifications.

MLIR exposes pipelines as text (``--pass-pipeline='builtin.module(cse,
canonicalize)'``); this module provides the equivalent for our pass
infrastructure. A pipeline spec is a comma-separated list of registered
pass names, each optionally carrying options in braces::

    canonicalize,cse,licm
    frontend,hispn-simplify,lower-to-lospn,bufferize,
        buffer-deallocation,cpu-lowering{vectorize=off},canonicalize,cse

``parse_pipeline(spec)`` returns a configured
:class:`~repro.ir.passes.PassManager`; :func:`build_pipeline` returns
the raw pass list; :func:`pipeline_string` prints a pass list back to
its textual form — a guaranteed round trip
(``build_pipeline(pipeline_string(p))`` reconstructs the same passes,
options and instance names).

Since PR 5 the *entire* compile flow is registered here: alongside the
generic cleanup passes, every stage of :func:`repro.compiler.compile_spn`
(frontend build, ``hispn-simplify``, ``lower-to-lospn``, ``partition``,
``bufferize``, copy removal, dealloc insertion, the CPU/GPU target
lowerings and ``gpu-copy-elimination``) is a registered module-level
pass, so the whole flow is expressible — and printable — as a pipeline
string (see :mod:`repro.compiler.targets`).

Repeated pass names get stable, unique *instance* names by suffixing
the occurrence index ("canonicalize, canonicalize-2, canonicalize-3"),
which is what keeps per-pass timing keys stable for the compile-time
benchmarks.

Pass options use MLIR's spelling: ``name{key=value key2=value2}`` with
kebab-case keys; values parse as bools (``true``/``false``), ints,
floats, or bare strings. New passes register via :func:`register_pass`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .passes import Pass, PassManager

_PASS_REGISTRY: Dict[str, Callable[..., Pass]] = {}


def register_pass(name: str, factory: Callable[..., Pass]) -> None:
    """Register a pass factory under a pipeline-spec name.

    ``factory`` is called with the pass's parsed options as keyword
    arguments (none for option-less passes).
    """
    if name in _PASS_REGISTRY:
        raise ValueError(f"pass '{name}' is already registered")
    _PASS_REGISTRY[name] = factory


def registered_passes() -> List[str]:
    return sorted(_PASS_REGISTRY)


# -- textual form -------------------------------------------------------------------


def split_pipeline(spec: str) -> List[str]:
    """Split a pipeline spec on top-level commas (brace-aware)."""
    items: List[str] = []
    depth = 0
    current = []
    for char in spec:
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced '}}' in pipeline spec: {spec!r}")
        if char == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise ValueError(f"unbalanced '{{' in pipeline spec: {spec!r}")
    items.append("".join(current))
    return [item.strip() for item in items if item.strip()]


def _parse_option_value(text: str):
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered == "none":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _format_option_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    text = str(value)
    if any(c in text for c in "{}=, "):
        raise ValueError(f"pass option value {text!r} is not printable")
    return text


def parse_pass_spec(item: str) -> Tuple[str, Dict[str, object]]:
    """Parse one pipeline element into (registry name, options).

    Option keys are kebab-case in text and returned as python
    identifiers (``use-log-space`` -> ``use_log_space``).
    """
    item = item.strip()
    options: Dict[str, object] = {}
    if "{" in item:
        if not item.endswith("}"):
            raise ValueError(f"malformed pass options in {item!r}")
        name, _, rest = item.partition("{")
        body = rest[:-1].strip()
        for token in body.replace(",", " ").split():
            key, sep, value = token.partition("=")
            if not sep or not key:
                raise ValueError(
                    f"malformed pass option {token!r} in {item!r} "
                    "(expected key=value)"
                )
            options[key.strip().replace("-", "_")] = _parse_option_value(
                value.strip()
            )
        return name.strip(), options
    return item, options


def pass_spec(name: str, options: Optional[Dict[str, object]] = None) -> str:
    """Format one pipeline element: ``name`` or ``name{k=v k2=v2}``."""
    if not options:
        return name
    body = " ".join(
        f"{key.replace('_', '-')}={_format_option_value(value)}"
        for key, value in options.items()
    )
    return f"{name}{{{body}}}"


def pipeline_string(passes: Sequence[Pass]) -> str:
    """Print a pass sequence back to its textual pipeline spec.

    Uses each pass's registry name and explicit options; parsing the
    result reconstructs the same passes with the same instance names.
    """
    items = []
    for pass_ in passes:
        name = pass_.pipeline_name
        if name is None:
            raise ValueError(
                f"pass '{pass_.name}' was not built from the registry and "
                "has no textual form"
            )
        items.append(pass_spec(name, pass_.pipeline_options))
    return ",".join(items)


# -- construction -------------------------------------------------------------------


def build_pass(name: str, options: Optional[Dict[str, object]] = None) -> Pass:
    """Instantiate one registered pass with the given options."""
    factory = _PASS_REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown pass '{name}'; registered: {', '.join(registered_passes())}"
        )
    options = dict(options or {})
    try:
        pass_ = factory(**options)
    except TypeError as error:
        raise ValueError(f"invalid options for pass '{name}': {error}") from None
    pass_.pipeline_name = name
    pass_.pipeline_options = options
    return pass_


def build_pipeline(spec: str) -> List[Pass]:
    """Build the pass list for a textual pipeline spec.

    Repeated pass names get deterministic unique instance names by
    suffixing the occurrence count ("cse", "cse-2", ...), keeping
    timing keys distinct and the text form round-trippable.
    """
    passes: List[Pass] = []
    seen: Dict[str, int] = {}
    for item in split_pipeline(spec):
        name, options = parse_pass_spec(item)
        pass_ = build_pass(name, options)
        count = seen.get(pass_.name, 0) + 1
        seen[pass_.name] = count
        if count > 1:
            pass_.name = f"{pass_.name}-{count}"
        passes.append(pass_)
    return passes


def parse_pipeline(
    spec: str,
    verify_each="off",
    artifact_dir: Optional[str] = None,
    collect_ir: bool = False,
) -> PassManager:
    """Build a PassManager from a textual pipeline spec.

    ``verify_each`` accepts the :class:`PassManager` instrumentation
    modes ("off" / "structural" / "boundaries" / "every-pass") or a
    bool for backward compatibility (``True`` == "structural").
    """
    manager = PassManager(
        verify_each=verify_each,
        artifact_dir=artifact_dir,
        collect_ir=collect_ir,
    )
    manager.extend(build_pipeline(spec))
    return manager


def _compiler_stage(class_name: str) -> Callable[..., Pass]:
    """Lazy factory for a compile-stage pass (avoids an import cycle:
    :mod:`repro.compiler` imports the IR package at module load)."""

    def factory(**options) -> Pass:
        from ..compiler import stages

        return getattr(stages, class_name)(**options)

    return factory


def _register_builtin_passes() -> None:
    from .transforms.canonicalize import CanonicalizePass
    from .transforms.cse import CSEPass
    from .transforms.dce import DCEPass
    from .transforms.licm import LICMPass

    register_pass("canonicalize", CanonicalizePass)
    register_pass("cse", CSEPass)
    register_pass("dce", DCEPass)
    register_pass("licm", LICMPass)

    def _lospn_cse() -> Pass:
        # The LoSPN-level CSE round at -O3: same pass, distinct stable
        # stage name so its timing is attributable separately.
        pass_ = CSEPass()
        pass_.name = "lospn-cse"
        return pass_

    register_pass("lospn-cse", _lospn_cse)

    # The compile-flow stages (see repro.compiler.stages). Every stage
    # of compile_spn is constructible from text, which is what makes
    # `spnc compile --print-pipeline` / `--pipeline` possible.
    register_pass("frontend", _compiler_stage("FrontendPass"))
    register_pass("hispn-simplify", _compiler_stage("HiSPNSimplifyStage"))
    register_pass("structure-cse", _compiler_stage("StructureCSEStage"))
    register_pass("structure-prune", _compiler_stage("StructurePruneStage"))
    register_pass("lower-to-lospn", _compiler_stage("LowerToLoSPNPass"))
    register_pass("partition", _compiler_stage("PartitionPass"))
    register_pass("balance-chains", _compiler_stage("BalanceChainsPass"))
    register_pass("bufferize", _compiler_stage("BufferizePass"))
    register_pass("buffer-optimization", _compiler_stage("BufferOptimizationPass"))
    register_pass("buffer-deallocation", _compiler_stage("BufferDeallocationPass"))
    register_pass("cpu-lowering", _compiler_stage("CPULoweringPass"))
    register_pass("gpu-lowering", _compiler_stage("GPULoweringPass"))
    register_pass("gpu-copy-elimination", _compiler_stage("GPUCopyEliminationPass"))


_register_builtin_passes()
