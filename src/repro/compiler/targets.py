"""Declarative target registry: (target, opt_level, options) → pipeline.

The paper structures SPNC as a target-independent pass sequence followed
by a per-target lowering leg (Section IV). This module captures that
declaratively: a :class:`Target` maps a
:class:`~repro.compiler.pipeline.CompilerOptions` to *one* textual
pipeline spec — buildable by :func:`repro.ir.pipeline_spec.build_pipeline`
and runnable by one :class:`~repro.ir.passes.PassManager` — plus the
codegen step that turns the fully lowered module into an executable.

The -O ladders live in one table (:data:`CLEANUP_LADDER`) shared by
both legs, so CPU and GPU cleanup sequences cannot silently drift.

Adding a backend means: register its lowering stage as a pass
(:mod:`repro.compiler.stages`), subclass :class:`Target` with a
``target_leg`` and a ``codegen``, and call :func:`register_target` —
the driver, CLI (``--print-pipeline`` / ``--pipeline``), caching and
fallback machinery pick it up from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..ir.pipeline_spec import pass_spec
from ..spn.query import JointProbability
from .stages import CPULoweringPass, GPULoweringPass, KernelInfo  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.passes import Pass, PassManager
    from .pipeline import CompilerOptions

#: Cleanup passes added *at* each optimization level (cumulative): -O1
#: runs the full canonicalize/CSE/LICM/DCE sweep after target lowering,
#: -O2 adds a second canonicalize+CSE round, -O3 one more greedy
#: canonicalization (Section V-B1). Shared by every target leg.
CLEANUP_LADDER: Dict[int, tuple] = {
    1: ("canonicalize", "cse", "licm", "dce"),
    2: ("canonicalize", "cse"),
    3: ("canonicalize",),
}


def cleanup_passes(opt_level: int, licm: bool = True) -> List[str]:
    """The post-lowering cleanup sequence for an optimization level.

    ``licm=False`` drops loop-invariant code motion (the GPU leg's
    host/device structure has no hoistable loops).
    """
    names: List[str] = []
    for level in sorted(CLEANUP_LADDER):
        if opt_level < level:
            break
        for name in CLEANUP_LADDER[level]:
            if name == "licm" and not licm:
                continue
            names.append(name)
    return names


def _explicit(values: Dict[str, object], defaults: Dict[str, object]) -> Dict[str, object]:
    """Keep only options that deviate from the pass's defaults, so the
    printed pipeline stays minimal and stable."""
    return {
        key: value for key, value in values.items() if defaults.get(key) != value
    }


def structure_pipeline(options: "CompilerOptions") -> List[str]:
    """The structure-level optimization leg (architecture §17).

    Resolved from ``CompilerOptions.structure_passes()``: -O3 enables
    CSE + pruning by default. Pruning's ``accuracy_budget`` is printed
    only when non-zero so the default pipelines stay minimal.
    """
    share = options.structure_budget_share()
    items: List[str] = []
    for name in options.structure_passes():
        if name == "cse":
            items.append("structure-cse")
        else:
            items.append(
                pass_spec(
                    f"structure-{name}",
                    _explicit({"accuracy_budget": share}, {"accuracy_budget": 0.0}),
                )
            )
    return items


def common_pipeline(options: "CompilerOptions") -> List[str]:
    """The target-independent leg (Section IV-A) as pipeline elements."""
    items = ["frontend"]
    if options.opt_level >= 1:
        items.append("hispn-simplify")
    items.extend(structure_pipeline(options))
    items.append(
        pass_spec(
            "lower-to-lospn",
            {} if options.use_log_space else {"use_log_space": False},
        )
    )
    if options.opt_level >= 3:
        items.append("lospn-cse")
    if options.max_partition_size is not None:
        items.append(
            pass_spec(
                "partition", {"max_partition_size": options.max_partition_size}
            )
        )
    if options.opt_level >= 3:
        items.append("balance-chains")
    items.append("bufferize")
    if options.opt_level >= 1:
        items.append("buffer-optimization")
    items.append("buffer-deallocation")
    return items


@dataclass(frozen=True)
class TargetSpec:
    """Declarative facts about a compilation target."""

    name: str
    description: str
    #: Registry name of the target-lowering pass; also the name of the
    #: final analysis checkpoint (phase="final") before codegen.
    lowering_pass: str
    #: Timing key of the codegen step in ``CompilationResult.stage_seconds``.
    codegen_stage: str
    #: Whether the cleanup ladder includes loop-invariant code motion.
    uses_licm: bool = True


class Target:
    """A compilation target: declarative pipeline + codegen step."""

    spec: TargetSpec

    @property
    def name(self) -> str:
        return self.spec.name

    # -- pipeline construction ------------------------------------------------------

    def pipeline(
        self,
        options: "CompilerOptions",
        query: Optional[JointProbability] = None,
    ) -> str:
        """The full textual pipeline spec for this configuration."""
        query = query or JointProbability()
        return ",".join(common_pipeline(options) + self.target_leg(options, query))

    def target_leg(
        self, options: "CompilerOptions", query: JointProbability
    ) -> List[str]:
        raise NotImplementedError

    # -- execution ------------------------------------------------------------------

    def install_checkpoints(self, manager: "PassManager") -> None:
        """Register the analysis checkpoints the old imperative driver
        ran at dialect boundaries: after the LoSPN tensor leg, after
        dealloc insertion, and (phase="final") after the last pass."""
        passes = manager.passes
        for index, pass_ in enumerate(passes):
            if pass_.name == "bufferize" and index > 0:
                manager.checkpoint_after(index - 1, "lower-to-lospn", "mid")
            elif pass_.name == "buffer-deallocation":
                manager.checkpoint_after(index, "buffer-deallocation", "mid")
        if passes:
            manager.checkpoint_after(
                len(passes) - 1, self.spec.lowering_pass, "final"
            )

    def lowering_info(self, passes: "List[Pass]") -> KernelInfo:
        """The :class:`KernelInfo` captured by the target-lowering pass."""
        for pass_ in passes:
            info = getattr(pass_, "kernel_info", None)
            if info is not None:
                return info
        raise ValueError(
            f"pipeline contained no {self.spec.lowering_pass} stage; "
            "cannot generate code without a target lowering"
        )

    def codegen(
        self,
        module,
        passes: "List[Pass]",
        options: "CompilerOptions",
        query: JointProbability,
    ):
        """Turn the fully lowered module into an executable."""
        raise NotImplementedError

    def _signature(self, info: KernelInfo, query: JointProbability):
        from ..runtime.executable import KernelSignature

        return KernelSignature(
            num_features=info.num_features,
            input_dtype=info.input_dtype,
            result_dtype=info.result_dtype,
            log_space=info.log_space,
            batch_size=query.batch_size,
            num_results=info.num_results,
        )


class CPUTarget(Target):
    """CPU leg (Section IV-B): vectorizing lowering + NumPy codegen."""

    spec = TargetSpec(
        name="cpu",
        description="vectorized CPU kernels (Section IV-B)",
        lowering_pass="cpu-lowering",
        codegen_stage="codegen",
        uses_licm=True,
    )

    def target_leg(
        self, options: "CompilerOptions", query: JointProbability
    ) -> List[str]:
        items = [
            pass_spec(
                "cpu-lowering",
                _explicit(
                    {
                        "vectorize": options.vectorize,
                        "vector_isa": options.vector_isa,
                        "use_vector_library": options.use_vector_library,
                        "use_shuffle": options.use_shuffle,
                        "superword_factor": options.superword_factor,
                    },
                    CPULoweringPass.defaults,
                ),
            )
        ]
        items.extend(cleanup_passes(options.opt_level, licm=self.spec.uses_licm))
        return items

    def codegen(self, module, passes, options, query):
        from ..backends.cpu.codegen import generate_cpu_module
        from ..runtime.executable import CPUExecutable

        info = self.lowering_info(passes)
        # Scratch (out=) register reuse: at -O2+ for fixed-lane vectors,
        # and already at -O1 for batch vectors — whole-chunk scratch
        # reuse keeps the batch kernel allocation-free in steady state.
        mode = next(
            (p.vectorize for p in passes if isinstance(p, CPULoweringPass)),
            options.vectorize,
        )
        reuse_registers = (mode == "lanes" and options.opt_level >= 2) or (
            mode == "batch" and options.opt_level >= 1
        )
        generated = generate_cpu_module(
            module, reuse_vector_registers=reuse_registers
        )
        return CPUExecutable(
            generated,
            info.kernel_name,
            self._signature(info, query),
            num_threads=options.num_threads,
        )


class GPUTarget(Target):
    """GPU leg (Section IV-C): kernel slicing + simulated device codegen."""

    spec = TargetSpec(
        name="gpu",
        description="GPU kernels on the device simulator (Section IV-C)",
        lowering_pass="gpu-lowering",
        codegen_stage="gpu-codegen",
        uses_licm=False,
    )

    def target_leg(
        self, options: "CompilerOptions", query: JointProbability
    ) -> List[str]:
        block_size = options.gpu_block_size or query.batch_size
        items = [pass_spec("gpu-lowering", {"block_size": block_size})]
        if options.opt_level >= 1:
            items.append("gpu-copy-elimination")
        items.extend(cleanup_passes(options.opt_level, licm=self.spec.uses_licm))
        return items

    def codegen(self, module, passes, options, query):
        from ..backends.gpu.codegen import generate_gpu_module
        from ..gpusim.simulator import GPUSimulator
        from ..runtime.gpu_executable import GPUExecutable

        info = self.lowering_info(passes)
        simulator = GPUSimulator()
        host, kernels = generate_gpu_module(module, simulator)
        return GPUExecutable(
            host,
            kernels,
            info.kernel_name,
            self._signature(info, query),
            simulator,
            streams=options.streams,
        )


_TARGETS: Dict[str, Target] = {}


def register_target(target: Target) -> None:
    if target.name in _TARGETS:
        raise ValueError(f"target '{target.name}' is already registered")
    _TARGETS[target.name] = target


def registered_targets() -> List[str]:
    return sorted(_TARGETS)


def get_target(name: str) -> Target:
    target = _TARGETS.get(name)
    if target is None:
        raise ValueError(
            f"unknown target '{name}'; registered: {', '.join(registered_targets())}"
        )
    return target


register_target(CPUTarget())
register_target(GPUTarget())


__all__ = [
    "CLEANUP_LADDER",
    "CPUTarget",
    "GPUTarget",
    "Target",
    "TargetSpec",
    "cleanup_passes",
    "common_pipeline",
    "structure_pipeline",
    "get_target",
    "register_target",
    "registered_targets",
]
