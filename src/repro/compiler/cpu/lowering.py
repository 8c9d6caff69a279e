"""CPU target lowering (paper Section IV-B).

Each ``lo_spn.kernel`` becomes a ``func.func`` that calls one function per
``lo_spn.task`` in dependence order. Task functions contain a loop over
the batch; SPN operations lower to scalar arithmetic via
:class:`ScalarEmitter`.

Three vectorization modes (``CPULoweringOptions.vectorize``):

- ``"off"``: a plain scalar loop over the batch.
- ``"lanes"``: the paper's literal strategy — a vector loop computes W
  samples per iteration (W = ISA lanes × a register-blocking factor for
  the Python backend, see DESIGN.md), followed by a scalar epilogue for
  the remainder. Input features are fetched either with per-feature
  strided gathers or — in the "+Shuffle" configuration — with one
  contiguous row-tile load per iteration followed by in-register column
  extraction.
- ``"batch"``: the paper's vectorizer reinterpreted with W = the whole
  chunk. The batch loop disappears entirely: every LoSPN op becomes one
  op on a runtime-width vector (``vector<?xf64>``) spanning the chunk
  axis, so the generated kernel is straight-line NumPy code with no
  per-sample interpreter overhead and no scalar epilogue — a short tail
  chunk simply runs the same kernel at a smaller width.

Without a vector math library, vectorized transcendentals are scalarized
(:func:`scalarize_vector_math`), reproducing the paper's observation that
vectorization *without* a veclib is slower than scalar code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...dialects import (
    arith,
    func as func_dialect,
    lospn,
    math_dialect,
    memref as memref_dialect,
    scf,
    vector as vector_dialect,
)
from ...ir import Builder, ModuleOp
from ...ir.ops import IRError, Operation
from ...ir.types import (
    FloatType,
    IndexType,
    MemRefType,
    VectorType,
    index as index_type,
)
from ...ir.value import Value
from ..emitters import ScalarEmitter, VectorEmitter


@dataclass(frozen=True)
class VectorISA:
    """A SIMD instruction set's register geometry."""

    name: str
    f32_lanes: int
    f64_lanes: int

    def lanes(self, float_type: FloatType) -> int:
        return self.f32_lanes if float_type.width == 32 else self.f64_lanes


AVX2 = VectorISA("avx2", 8, 4)
AVX512 = VectorISA("avx512", 16, 8)
NEON = VectorISA("neon", 4, 2)

ISAS = {isa.name: isa for isa in (AVX2, AVX512, NEON)}

#: The supported vectorization strategies (see module docstring).
VECTORIZE_MODES = ("off", "lanes", "batch")


def normalize_vectorize_mode(value: str) -> str:
    """Validate a user-facing ``vectorize`` spelling (one of
    :data:`VECTORIZE_MODES`)."""
    if value in VECTORIZE_MODES:
        return value
    raise ValueError(
        f"unknown vectorize mode {value!r} "
        f"(expected one of {', '.join(VECTORIZE_MODES)})"
    )


@dataclass
class CPULoweringOptions:
    """Configuration of the CPU mapping strategy (paper Section V-A1)."""

    #: "off" | "lanes" | "batch".
    vectorize: str = "off"
    isa: VectorISA = AVX2
    use_vector_library: bool = True
    use_shuffle: bool = True
    #: Samples processed per vector iteration = lanes * superword_factor.
    #: Register blocking amortizes the Python backend's per-op dispatch
    #: the way real SIMD amortizes instruction overhead (DESIGN.md).
    #: Only meaningful in "lanes" mode; "batch" mode always uses the
    #: full chunk width.
    superword_factor: int = 128

    def vectorize_mode(self) -> str:
        return normalize_vectorize_mode(self.vectorize)


def lower_kernel_to_cpu(
    module: ModuleOp, options: Optional[CPULoweringOptions] = None
) -> ModuleOp:
    """Lower all bufferized LoSPN kernels in ``module`` to func/scf form."""
    options = options or CPULoweringOptions()
    mode = options.vectorize_mode()
    new_module = ModuleOp.build()
    builder = Builder.at_end(new_module.body)
    for op in module.body_block.ops:
        if op.op_name == lospn.KernelOp.name:
            _lower_kernel(op, builder, options)
        else:
            builder.insert(op.clone({}))
    if mode != "off" and not options.use_vector_library:
        scalarize_vector_math(new_module)
    return new_module


def _storage_memref(ty: MemRefType) -> MemRefType:
    """Erase log types: a memref of !lo_spn.log<T> is stored as memref of T."""
    element = ty.element_type
    if isinstance(element, lospn.LogType):
        return MemRefType(ty.shape, element.base)
    return ty


def _readonly_operand_indices(task: Operation, kernel: Operation) -> tuple:
    """Task operand positions that bind read-only kernel arguments."""
    readonly = set(kernel.attributes.get("readonlyArgs", ()))
    if not readonly:
        return ()
    kernel_args = list(kernel.body.arguments)
    indices = []
    for i, operand in enumerate(task.operands):
        try:
            arg_index = kernel_args.index(operand)
        except ValueError:
            continue
        if arg_index in readonly:
            indices.append(i)
    return tuple(indices)


def _lower_kernel(kernel: Operation, builder: Builder, options: CPULoweringOptions) -> None:
    task_funcs: Dict[int, str] = {}
    for i, task in enumerate(kernel.tasks()):
        name = f"{kernel.sym_name}_task_{i}"
        task_funcs[id(task)] = name
        _lower_task(
            task,
            name,
            builder,
            options,
            readonly_args=_readonly_operand_indices(task, kernel),
        )

    kernel_func = builder.create(
        func_dialect.FuncOp,
        kernel.sym_name,
        [_storage_memref(t) for t in kernel.arg_types],
        [],
    )
    if "readonlyArgs" in kernel.attributes:
        kernel_func.attributes["readonlyArgs"] = kernel.attributes["readonlyArgs"]
    kb = Builder.at_end(kernel_func.body)
    value_map: Dict[Value, Value] = dict(
        zip(kernel.body.arguments, kernel_func.body.arguments)
    )
    for op in kernel.body.ops:
        if op.op_name == lospn.TaskOp.name:
            kb.create(
                func_dialect.CallOp,
                task_funcs[id(op)],
                [value_map.get(v, v) for v in op.operands],
                [],
            )
        elif op.op_name == lospn.KernelReturnOp.name:
            kb.create(func_dialect.ReturnOp, [])
        elif op.op_name == memref_dialect.AllocOp.name:
            new_alloc = kb.create(
                memref_dialect.AllocOp,
                _storage_memref(op.results[0].type),
                [value_map.get(v, v) for v in op.operands],
            )
            value_map[op.results[0]] = new_alloc.result
        else:
            kb.insert(op.clone(value_map))


def _batch_dim_source(task: Operation) -> Tuple[int, int]:
    """(operand index, dimension) locating the dynamic batch extent."""
    for i, operand in enumerate(task.operands):
        ty = operand.type
        if isinstance(ty, MemRefType) and None in ty.shape:
            return i, ty.shape.index(None)
    raise IRError("task has no operand with a dynamic batch dimension")


def _lower_task(
    task: Operation,
    name: str,
    builder: Builder,
    options: CPULoweringOptions,
    readonly_args: tuple = (),
) -> None:
    arg_types = [_storage_memref(v.type) for v in task.operands]
    fn = builder.create(func_dialect.FuncOp, name, arg_types, [])
    if readonly_args:
        fn.attributes["readonlyArgs"] = tuple(readonly_args)
    fb = Builder.at_end(fn.body)
    args = fn.body.arguments

    mode = options.vectorize_mode()
    c0 = fb.create(arith.ConstantOp, 0, index_type).result

    # Constant tables (.rodata) go to the function entry, ahead of the loop.
    table_builder = Builder.at_start(fn.body)

    compute_type, log_space = _task_compute_info(task)

    if mode == "batch":
        # W = the whole chunk: no loop, no epilogue. Every op below works
        # on a runtime-width vector spanning the full batch axis starting
        # at sample 0; a short tail chunk just runs at a smaller width.
        emitter = VectorEmitter(fb, table_builder, compute_type, log_space, None)
        _emit_samples(task, fb, emitter, c0, args, options, True, None)
        fb.create(func_dialect.ReturnOp, [])
        return

    dim_operand, dim_axis = _batch_dim_source(task)
    n = fb.create(memref_dialect.DimOp, args[dim_operand], dim_axis).result
    c1 = fb.create(arith.ConstantOp, 1, index_type).result

    if mode == "lanes":
        lanes = options.isa.lanes(compute_type) * options.superword_factor
        width = fb.create(arith.ConstantOp, lanes, index_type).result
        chunks = fb.create(arith.DivSIOp, n, width).result
        nvec = fb.create(arith.MulIOp, chunks, width).result

        vector_loop = fb.create(scf.ForOp, c0, nvec, width)
        vb = Builder.at_end(vector_loop.body_block)
        emitter = VectorEmitter(vb, table_builder, compute_type, log_space, lanes)
        _emit_samples(
            task, vb, emitter, vector_loop.induction_var, args, options, True, lanes
        )
        vb.create(scf.YieldOp, [])

        epilogue = fb.create(scf.ForOp, nvec, n, c1)
        eb = Builder.at_end(epilogue.body_block)
        scalar = ScalarEmitter(eb, table_builder, compute_type, log_space)
        _emit_samples(
            task, eb, scalar, epilogue.induction_var, args, options, False, None
        )
        eb.create(scf.YieldOp, [])
    else:
        loop = fb.create(scf.ForOp, c0, n, c1)
        lb = Builder.at_end(loop.body_block)
        scalar = ScalarEmitter(lb, table_builder, compute_type, log_space)
        _emit_samples(
            task, lb, scalar, loop.induction_var, args, options, False, None
        )
        lb.create(scf.YieldOp, [])

    fb.create(func_dialect.ReturnOp, [])


def _task_compute_info(task: Operation) -> Tuple[FloatType, bool]:
    """Derive (storage float type, log_space) from the task's body ops."""
    for op in task.body.ops:
        if op.op_name == lospn.BodyOp.name:
            ty = op.results[0].type if op.results else None
            if ty is None:
                term = op.body_block.terminator
                ty = term.operands[0].type
            if isinstance(ty, lospn.LogType):
                return ty.base, True
            if isinstance(ty, FloatType):
                return ty, False
    raise IRError("task contains no lo_spn.body")


def _emit_samples(
    task: Operation,
    loop_builder: Builder,
    emitter: ScalarEmitter,
    sample_index: Value,
    func_args,
    options: CPULoweringOptions,
    vectorized: bool,
    lanes: Optional[int],
) -> None:
    """Emit the per-sample (or per-vector-of-samples) computation.

    ``lanes`` is the static vector width, or ``None`` for batch mode
    (runtime-width vectors spanning the whole chunk).
    """
    arg_map: Dict[Value, Value] = dict(zip(task.input_args, func_args))
    value_map: Dict[Value, Value] = {}
    tile_cache: Dict[int, Value] = {}

    def read_value(op: Operation) -> Value:
        buffer = arg_map[op.input]
        column = op.static_index
        if not vectorized:
            if op.transposed:
                row = loop_builder.create(arith.ConstantOp, column, index_type).result
                return loop_builder.create(
                    memref_dialect.LoadOp, buffer, [row, sample_index]
                ).result
            col = loop_builder.create(arith.ConstantOp, column, index_type).result
            return loop_builder.create(
                memref_dialect.LoadOp, buffer, [sample_index, col]
            ).result
        elem = buffer.type.element_type
        vec_type = VectorType((lanes,), elem)
        if op.transposed:
            # Intermediate [K x n] layout: row is contiguous, plain vector load.
            row = loop_builder.create(arith.ConstantOp, column, index_type).result
            return loop_builder.create(
                vector_dialect.LoadOp, buffer, [row, sample_index], vec_type
            ).result
        if options.use_shuffle:
            tile = tile_cache.get(id(buffer))
            if tile is None:
                tile = loop_builder.create(
                    vector_dialect.LoadTileOp, buffer, sample_index, lanes
                ).result
                tile_cache[id(buffer)] = tile
            return loop_builder.create(
                vector_dialect.ExtractColumnOp, tile, column
            ).result
        return loop_builder.create(
            vector_dialect.GatherOp, buffer, sample_index, column, vec_type
        ).result

    for op in task.body.ops:
        if op.op_name == lospn.BatchReadOp.name:
            value_map[op.results[0]] = read_value(op)
        elif op.op_name == lospn.BodyOp.name:
            inner_map: Dict[Value, Value] = {
                arg: value_map[operand]
                for arg, operand in zip(op.body_block.arguments, op.operands)
            }
            results = _emit_body(op, emitter, inner_map)
            for res, value in zip(op.results, results):
                value_map[res] = value
        elif op.op_name == lospn.BatchWriteOp.name:
            buffer = arg_map[op.batch_mem]
            for k, stored in enumerate(op.result_values):
                value = value_map[stored]
                value = _to_storage(value, emitter, loop_builder)
                row = loop_builder.create(arith.ConstantOp, k, index_type).result
                indices = [row, sample_index] if op.transposed else [sample_index, row]
                if vectorized:
                    loop_builder.create(
                        vector_dialect.StoreOp, value, buffer, indices
                    )
                else:
                    loop_builder.create(
                        memref_dialect.StoreOp, value, buffer, indices
                    )
        else:
            raise IRError(f"unexpected op '{op.op_name}' in task region")


def _to_storage(value: Value, emitter: ScalarEmitter, builder: Builder) -> Value:
    """Values are already stored as their base float type; no-op hook."""
    return value


def _emit_body(op: Operation, emitter: ScalarEmitter, value_map: Dict[Value, Value]):
    results: List[Value] = []
    for inner in op.body_block.ops:
        name = inner.op_name
        if name == lospn.GaussianOp.name:
            value = emitter.gaussian(
                value_map[inner.operands[0]],
                inner.mean,
                inner.stddev,
                inner.support_marginal,
            )
        elif name == lospn.CategoricalOp.name:
            value = emitter.categorical(
                value_map[inner.operands[0]],
                inner.probabilities,
                inner.support_marginal,
            )
        elif name == lospn.HistogramOp.name:
            value = emitter.histogram(
                value_map[inner.operands[0]],
                inner.bounds,
                inner.probabilities,
                inner.support_marginal,
            )
        elif name == lospn.MulOp.name:
            value = emitter.mul(
                value_map[inner.operands[0]], value_map[inner.operands[1]]
            )
        elif name == lospn.AddOp.name:
            value = emitter.add(
                value_map[inner.operands[0]], value_map[inner.operands[1]]
            )
        elif name == lospn.WeightedSumOp.name:
            sums = emitter.weighted_sum(
                [value_map[v] for v in inner.operands], inner.weights
            )
            value_map.update(zip(inner.results, sums))
            continue
        elif name == lospn.MaxOp.name:
            value = emitter.max(
                value_map[inner.operands[0]], value_map[inner.operands[1]]
            )
        elif name == lospn.SelectMaxOp.name:
            value = emitter.select_max(
                value_map[inner.operands[0]],
                value_map[inner.operands[1]],
                value_map[inner.operands[2]],
                value_map[inner.operands[3]],
            )
        elif name == lospn.InputValueOp.name:
            value = emitter.input_value(
                value_map[inner.operands[0]], inner.nan_value
            )
        elif name == lospn.ConstantOp.name:
            value = emitter.lo_constant(inner.value)
        elif name == lospn.YieldOp.name:
            results = [value_map[v] for v in inner.operands]
            continue
        else:
            raise IRError(f"cannot lower body op '{name}' for CPU")
        value_map[inner.results[0]] = value
    return results


# --- veclib scalarization -------------------------------------------------------------


_SCALARIZABLE = {
    math_dialect.LogOp.name: "log",
    math_dialect.ExpOp.name: "exp",
    math_dialect.Log1pOp.name: "log1p",
    math_dialect.SqrtOp.name: "sqrt",
}


def scalarize_vector_math(module: ModuleOp) -> int:
    """Replace vector math ops with lane-by-lane scalarized calls.

    Models compiling without Intel SVML / GLIBC libmvec: each lane is
    extracted, the scalar libm routine called, and the result re-inserted
    (paper Fig. 6). Returns the number of ops rewritten.
    """
    rewritten = 0
    for op in module.walk():
        fn = _SCALARIZABLE.get(op.op_name)
        if fn is None or not isinstance(op.results[0].type, VectorType):
            continue
        builder = Builder.before_op(op)
        call = builder.create(
            vector_dialect.ScalarizedCallOp, fn, op.operands[0]
        )
        op.replace_all_uses_with([call.result])
        op.erase()
        rewritten += 1
    return rewritten
