"""Compile-flow stages as registered module-level passes.

Every stage of the end-to-end flow (paper Section IV) is a
:class:`~repro.ir.passes.Pass`, registered in
:mod:`repro.ir.pipeline_spec` so the whole compile flow is expressible
as a textual pipeline::

    frontend,hispn-simplify,lower-to-lospn,bufferize,
    buffer-optimization,buffer-deallocation,
    cpu-lowering{vectorize=batch},canonicalize,cse,licm,dce

Two stage shapes exist:

- *module-replacing* conversions (``frontend``, ``lower-to-lospn``,
  ``partition``, ``bufferize``, ``cpu-lowering``, ``gpu-lowering``)
  return a fresh module; the :class:`~repro.ir.passes.PassManager`
  splices it into the driver's module in place.
- in-place cleanups (``buffer-optimization``, ``buffer-deallocation``,
  ``balance-chains``, ``gpu-copy-elimination``) mutate and return
  ``None``, like any ordinary IR pass.

The target lowerings additionally capture :class:`KernelInfo` — the
kernel's signature-relevant facts — *before* erasing the LoSPN kernel
op, because the target's codegen step (which hangs off the
:class:`~repro.compiler.targets.Target`, not the pipeline) needs them
after the lo_spn ops are gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..dialects import lospn
from ..ir import ModuleOp
from ..ir.ops import IRError, Operation
from ..ir.passes import Pass
from .balance import balance_chains
from .bufferization import bufferize, insert_deallocations, remove_result_copies
from .frontend import build_hispn_module
from .hispn_passes import HiSPNSimplifyPass as HiSPNSimplifyStage  # noqa: F401
from .structure import StructureCSEStage, StructurePruneStage  # noqa: F401
from .lower_to_lospn import lower_to_lospn
from .partitioning import PartitioningOptions, PartitioningStats, partition_kernel


@dataclass
class KernelInfo:
    """Query-independent kernel facts captured before target lowering."""

    kernel_name: str
    num_features: int
    input_dtype: "np.dtype"
    result_dtype: "np.dtype"
    log_space: bool
    num_results: int
    num_tasks: int
    #: Host-side query plan (MPE traceback, sampling, ...) attached by
    #: the query lowering as a JSON ``queryPlan`` kernel attribute; the
    #: runtime wrapper in :mod:`repro.runtime.query_executable` reads it.
    query_plan: Optional[dict] = None


def capture_kernel_info(module: ModuleOp) -> KernelInfo:
    """Read the (first) ``lo_spn.kernel``'s signature facts."""
    import json

    from ..backends.cpu.codegen import numpy_dtype

    num_tasks = 0
    first = None
    for op in module.body_block.ops:
        if op.op_name == lospn.KernelOp.name:
            num_tasks += len(op.tasks())
            if first is None:
                first = op
    if first is None:
        raise IRError("module contains no lo_spn.kernel")
    input_type = first.arg_types[0]
    result_type = first.arg_types[-1]
    plan_text = first.attributes.get("queryPlan")
    return KernelInfo(
        kernel_name=first.sym_name,
        num_features=input_type.shape[1],
        input_dtype=numpy_dtype(input_type.element_type),
        result_dtype=numpy_dtype(result_type.element_type),
        log_space=isinstance(result_type.element_type, lospn.LogType),
        num_results=result_type.shape[0] or 1,
        num_tasks=num_tasks,
        query_plan=json.loads(plan_text) if plan_text else None,
    )


class FrontendPass(Pass):
    """SPN graph + query → HiSPN module (paper Section IV-A2).

    The model is *bound* programmatically (the driver calls
    :meth:`bind` with the in-memory SPN); the textual form is just
    ``frontend``, so a parsed pipeline must be bound before running.
    """

    name = "frontend"

    def __init__(self):
        super().__init__()
        self.root = None
        self.query = None
        self._bound = False

    def bind(self, root, query) -> "FrontendPass":
        self.root = root
        self.query = query
        self._bound = True
        return self

    def run(self, op: Operation) -> Operation:
        if not self._bound:
            raise IRError(
                "frontend pass is unbound: compile via compile_spn(), or "
                "bind(root, query) before running a parsed pipeline"
            )
        return build_hispn_module(self.root, self.query)


class LowerToLoSPNPass(Pass):
    """HiSPN → LoSPN lowering with type decision (Section IV-A3)."""

    name = "lower-to-lospn"

    def __init__(self, use_log_space: bool = True):
        super().__init__()
        self.use_log_space = use_log_space

    def run(self, op: Operation) -> Operation:
        return lower_to_lospn(op, self.use_log_space)


class PartitionPass(Pass):
    """Acyclic graph partitioning into multiple tasks (Section IV-A4)."""

    name = "graph-partitioning"

    def __init__(
        self,
        max_partition_size: int = 10_000,
        balance_slack: float = 0.01,
        refinement_rounds: int = 2,
    ):
        super().__init__()
        self.options = PartitioningOptions(
            max_partition_size=max_partition_size,
            balance_slack=balance_slack,
            refinement_rounds=refinement_rounds,
        )
        #: Populated by :meth:`run`; the driver surfaces it on
        #: :class:`~repro.compiler.pipeline.CompilationResult`.
        self.stats: Optional[PartitioningStats] = None

    def run(self, op: Operation) -> Operation:
        new_module, self.stats = partition_kernel(op, self.options)
        return new_module


class BalanceChainsPass(Pass):
    """Re-associate add/mul chains into balanced trees (-O3)."""

    name = "balance-chains"

    def run(self, op: Operation) -> None:
        balance_chains(op)


class BufferizePass(Pass):
    """Tensor → memref bufferization (Section IV-A5)."""

    name = "bufferize"

    def run(self, op: Operation) -> Operation:
        return bufferize(op)


class BufferOptimizationPass(Pass):
    """Remove alloc+copy pairs feeding kernel outputs (-O1+)."""

    name = "buffer-optimization"

    def run(self, op: Operation) -> None:
        remove_result_copies(op)


class BufferDeallocationPass(Pass):
    """Insert ``memref.dealloc`` for every intermediate buffer."""

    name = "buffer-deallocation"

    def run(self, op: Operation) -> None:
        insert_deallocations(op)


class CPULoweringPass(Pass):
    """LoSPN → func/scf/vector CPU form (Section IV-B)."""

    name = "cpu-lowering"

    #: Option defaults; only deviations are printed in pipeline text.
    defaults = {
        "vectorize": "batch",
        "vector_isa": "avx2",
        "use_vector_library": True,
        "use_shuffle": True,
        "superword_factor": 128,
    }

    def __init__(
        self,
        vectorize: str = "batch",
        vector_isa: str = "avx2",
        use_vector_library: bool = True,
        use_shuffle: bool = True,
        superword_factor: int = 128,
    ):
        super().__init__()
        from .cpu.lowering import normalize_vectorize_mode

        self.vectorize = normalize_vectorize_mode(vectorize)
        self.vector_isa = vector_isa
        self.use_vector_library = use_vector_library
        self.use_shuffle = use_shuffle
        self.superword_factor = superword_factor
        self.kernel_info: Optional[KernelInfo] = None

    def run(self, op: Operation) -> Operation:
        from .cpu.lowering import CPULoweringOptions, ISAS, lower_kernel_to_cpu

        if self.vector_isa not in ISAS:
            raise IRError(f"unknown vector ISA '{self.vector_isa}'")
        self.kernel_info = capture_kernel_info(op)
        return lower_kernel_to_cpu(
            op,
            CPULoweringOptions(
                vectorize=self.vectorize,
                isa=ISAS[self.vector_isa],
                use_vector_library=self.use_vector_library,
                use_shuffle=self.use_shuffle,
                superword_factor=self.superword_factor,
            ),
        )


class GPULoweringPass(Pass):
    """LoSPN → gpu kernels + host coordination (Section IV-C)."""

    name = "gpu-lowering"

    defaults = {"block_size": 64}

    def __init__(self, block_size: int = 64):
        super().__init__()
        self.block_size = block_size
        self.kernel_info: Optional[KernelInfo] = None

    def run(self, op: Operation) -> Operation:
        from .gpu.lowering import GPULoweringOptions, lower_kernel_to_gpu

        self.kernel_info = capture_kernel_info(op)
        return lower_kernel_to_gpu(
            op, GPULoweringOptions(block_size=self.block_size)
        )


class GPUCopyEliminationPass(Pass):
    """Remove redundant host↔device round trips (-O1+, Section IV-C)."""

    name = "gpu-copy-elimination"

    def run(self, op: Operation) -> None:
        from .gpu.copy_elim import eliminate_host_round_trips

        eliminate_host_round_trips(op)
