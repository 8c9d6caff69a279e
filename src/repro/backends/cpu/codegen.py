"""CPU backend: lowered IR → executable Python/NumPy code.

The paper translates the lowered MLIR through the LLVM dialect to LLVM IR
and on to native object code. This backend plays the same role with
"Python as the ISA": it consumes *only* the low-level IR (func / scf /
arith / math / memref / vector — never the SPN dialects), performs
linear-scan register allocation of SSA values onto a reusable local-name
pool, emits flat Python source, and ``compile()``/``exec()``s it into
callable kernel functions.

Design notes:

- Scalar SSA values become Python floats/ints; W-lane vectors become
  NumPy arrays of length W (register blocking, see DESIGN.md); rank-2
  vectors (the stacked children of a sum layer) become ``[k, W]`` arrays.
- Constants and splats of constants are *immediates*: they appear as
  literal text in the statements that use them, never as statements of
  their own.
- Elementary functions call the veclib (NumPy ufuncs) in vector code and
  guarded scalar helpers in scalar code; ``vector.scalarized_call``
  compiles to an explicit per-lane loop (the no-veclib configuration).
- Constant tables (``memref.constant_buffer``) become module-level
  globals, materialized once — the ``.rodata`` segment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ...dialects import func as func_dialect
from ...ir.ops import Block, IRError, Operation
from ...ir.types import (
    FloatType,
    IndexType,
    IntegerType,
    MemRefType,
    Type,
    VectorType,
)
from ...ir.value import Value
from . import veclib


class CodegenError(IRError):
    pass


def numpy_dtype(ty: Type):
    """Storage dtype of an element type (log types store their base)."""
    from ...dialects.lospn import LogType

    if isinstance(ty, LogType):
        ty = ty.base
    if isinstance(ty, FloatType):
        return {16: np.float16, 32: np.float32, 64: np.float64}[ty.width]
    if isinstance(ty, IntegerType):
        return np.bool_ if ty.width == 1 else np.int64
    if isinstance(ty, IndexType):
        return np.int64
    raise CodegenError(f"no numpy dtype for type {ty}")


def _dtype_expr(ty: Type) -> str:
    return f"np.{numpy_dtype(ty).__name__}"


def _float_literal(value: float) -> str:
    if math.isinf(value):
        return "_INF" if value > 0 else "_NINF"
    if math.isnan(value):
        return "_NAN"
    return repr(float(value))


_CMP_OPERATORS = {
    "eq": "==", "ne": "!=",
    "oeq": "==", "one": "!=", "ueq": "==", "une": "!=",
    "olt": "<", "ole": "<=", "ogt": ">", "oge": ">=",
    "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
    "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
}


#: Ops whose result may be a zero-copy view of their first operand (a
#: broadcast vector, a row of a rank-2 vector): the operand's register
#: must outlive every use of the view.
_VIEW_OPS = frozenset({"vector.broadcast", "vector.extract"})


@dataclass
class CodegenStats:
    """Backend statistics (reported by the compile-time experiments)."""

    functions: int = 0
    ir_operations: int = 0
    source_lines: int = 0
    registers_allocated: int = 0
    values_assigned: int = 0
    regalloc_seconds: float = 0.0
    emit_seconds: float = 0.0
    pycompile_seconds: float = 0.0


class _NamePool:
    """Linear-scan register allocator over straight-line blocks.

    SSA values whose live range is contained in one block share a small
    pool of local names (``r0``, ``r1``, …); values live across nested
    regions keep their name until the enclosing op's position.
    """

    def __init__(self):
        self.free: List[str] = []
        self.created = 0

    def acquire(self) -> str:
        if self.free:
            return self.free.pop()
        name = f"r{self.created}"
        self.created += 1
        return name

    def release(self, name: str) -> None:
        self.free.append(name)


class CodeGenerator:
    """Generates a Python module from lowered func.func operations.

    With ``reuse_vector_registers`` enabled (the -O2 backend feature),
    float vector results of ufunc-shaped ops are written into
    preallocated scratch arrays via NumPy's ``out=`` parameter instead of
    allocating a fresh array per operation — the Python-ISA equivalent of
    keeping vector values in registers. Scratch names come from a
    dedicated pool (``v*``) that never aliases views of user buffers.
    """

    def __init__(self, module: Operation, reuse_vector_registers: bool = False):
        # Local import: runtime.executable imports this module at load time.
        from ...runtime.bufferpool import BufferPool

        self.module = module
        self.reuse_vector_registers = reuse_vector_registers
        self._scratch_pools: Dict[Tuple[tuple, str], List[str]] = {}
        self._scratch_pool_of: Dict[str, Tuple[tuple, str]] = {}
        self._scratch_decls: Dict[str, str] = {}
        self._scratch_created = 0
        self._weights_count = 0
        #: Reusable temp-buffer pool shared by every function of this
        #: module: memref temporaries and runtime-width scratch vectors
        #: are fetched from it per invocation instead of np.empty'd.
        self.buffer_pool = BufferPool()
        self._alloc_count = 0
        self._uses_batch_width = False
        self.lines: List[str] = []
        self.globals: Dict[str, Any] = {
            "np": np,
            "_INF": float("inf"),
            "_NINF": float("-inf"),
            "_NAN": float("nan"),
            "_slog": veclib.slog,
            "_sexp": veclib.sexp,
            "_slog1p": veclib.slog1p,
            "_ssqrt": veclib.ssqrt,
            "_vlog": veclib.vlog,
            "_vexp": veclib.vexp,
            "_vlog1p": veclib.vlog1p,
            "_vsqrt": veclib.vsqrt,
            "_scalarized": veclib.scalarized,
            "_tmp_pool": self.buffer_pool,
        }
        self.stats = CodegenStats()
        self._table_count = 0
        self._arange_widths: set = set()
        # Per-function state
        self._names: Dict[Value, str] = {}
        #: Values named by text they do not own (immediates, zero-copy
        #: broadcasts): dropping one must not free the name.
        self._borrowed: set = set()
        self._pool = _NamePool()
        self._arg_count = 0

    # -- public API ---------------------------------------------------------------

    def generate(self) -> "GeneratedModule":
        emit_start = time.perf_counter()
        for op in self.module.body_block.ops:
            if op.op_name == func_dialect.FuncOp.name:
                self._emit_function(op)
        self.stats.emit_seconds = time.perf_counter() - emit_start
        source = "\n".join(self.lines) + "\n"
        self.stats.source_lines = len(self.lines)

        compile_start = time.perf_counter()
        code = compile(source, "<spnc-cpu-kernel>", "exec")
        namespace = dict(self.globals)
        exec(code, namespace)
        self.stats.pycompile_seconds = time.perf_counter() - compile_start

        functions = {
            name: namespace[name]
            for name in namespace
            if callable(namespace.get(name)) and not name.startswith("_") and name != "np"
        }
        return GeneratedModule(
            source, namespace, functions, self.stats, self.buffer_pool
        )

    # -- naming / regalloc ----------------------------------------------------------

    def _compute_deaths(self, block: Block) -> Dict[int, List[Value]]:
        """Map each op index of ``block`` to the values defined in the
        block whose live range ends there.

        Uses inside nested regions count at the nesting op's index. A
        value viewed without a copy (``_VIEW_OPS``) stays live as long
        as its views do.
        """
        last_use: Dict[Value, int] = {}

        def record(op: Operation, position: int) -> None:
            for operand in op.operands:
                last_use[operand] = position
            for region in op.regions:
                for inner_block in region.blocks:
                    for inner in inner_block.ops:
                        record(inner, position)

        ops = block.op_list()
        for position, op in enumerate(ops):
            record(op, position)
        for op in reversed(ops):
            if op.op_name in _VIEW_OPS and op.results[0] in last_use:
                source = op.operands[0]
                last_use[source] = max(last_use[source], last_use[op.results[0]])
        deaths: Dict[int, List[Value]] = {}
        for value, position in last_use.items():
            producer = value.defining_op
            if producer is not None and producer.parent is block:
                deaths.setdefault(position, []).append(value)
        return deaths

    def _name_of(self, value: Value) -> str:
        name = self._names.get(value)
        if name is None:
            raise CodegenError(f"value has no name (use before def?): {value!r}")
        return name

    def _assign(self, value: Value) -> str:
        name = self._pool.acquire()
        self._names[value] = name
        self.stats.values_assigned += 1
        return name

    def _assign_fixed(self, value: Value, name: str) -> str:
        self._names[value] = name
        return name

    def _assign_borrowed(self, value: Value, text: str) -> None:
        """Name ``value`` by text another value (or nobody) owns."""
        self._names[value] = text
        self._borrowed.add(value)

    # -- function emission ---------------------------------------------------------------

    def _emit_function(self, fn: Operation) -> None:
        self.stats.functions += 1
        self._names = {}
        self._borrowed = set()
        self._pool = _NamePool()
        self._scratch_pools = {}
        self._scratch_pool_of = {}
        self._scratch_decls = {}
        self._uses_batch_width = False
        args = fn.body_block.arguments
        arg_names = [self._assign_fixed(arg, f"a{i}") for i, arg in enumerate(args)]
        self.lines.append(f"def {fn.attributes['sym_name']}({', '.join(arg_names)}):")
        body_lines_before = len(self.lines)
        self._emit_block(fn.body_block, indent=1)
        if self._scratch_decls:
            # Preallocate scratch registers at function entry.
            decls = [
                f"    {name} = {expr}"
                for name, expr in sorted(self._scratch_decls.items())
            ]
            if self._uses_batch_width:
                # Runtime-width scratch: the chunk width comes from the
                # first dynamic memref dimension among the arguments.
                decls.insert(0, f"    _n = {self._batch_width_expr(fn)}")
            self.lines[body_lines_before:body_lines_before] = decls
        if len(self.lines) == body_lines_before:
            self.lines.append("    pass")
        self.lines.append("")
        self.stats.registers_allocated = max(
            self.stats.registers_allocated, self._pool.created
        )

    def _batch_width_expr(self, fn: Operation) -> str:
        for i, arg in enumerate(fn.body_block.arguments):
            ty = arg.type
            if isinstance(ty, MemRefType) and None in ty.shape:
                return f"a{i}.shape[{ty.shape.index(None)}]"
        raise CodegenError(
            "runtime-width vectors require a dynamically sized memref argument"
        )

    def _emit_block(
        self, block: Block, indent: int, skip_terminator: bool = False
    ) -> None:
        """Emit the ops of ``block``; ``skip_terminator`` leaves the
        yield to the enclosing loop/if emitter."""
        regalloc_start = time.perf_counter()
        deaths = self._compute_deaths(block)
        self.stats.regalloc_seconds += time.perf_counter() - regalloc_start

        for position, op in enumerate(block.op_list()):
            if skip_terminator and op.op_name in ("scf.yield", "lo_spn.yield"):
                continue
            self.stats.ir_operations += 1
            self._emit_op(op, indent)
            for value in deaths.get(position, ()):
                self._release_value(value)
            for res in op.results:
                if not res.has_uses:
                    self._release_value(res)

    def _release_value(self, value: Value) -> None:
        """Return ``value``'s name to its pool (its live range ended).

        Only called for values *defined in the block being emitted* — a
        value defined in an enclosing block stays live from the
        enclosing block's perspective even after its last use inside a
        nested region.
        """
        name = self._names.get(value)
        if name is None:
            return
        if value in self._borrowed or self._release_name(name):
            del self._names[value]

    def _release_name(self, name: str) -> bool:
        pool_key = self._scratch_pool_of.get(name)
        if pool_key is not None:
            self._scratch_pools[pool_key].append(name)
            return True
        if name.startswith("r"):
            self._pool.release(name)
            return True
        return False

    # -- op emission ------------------------------------------------------------------------

    def _line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    #: op name -> handler; subclasses overlay this (set after handler defs).
    HANDLERS: Dict[str, Any] = {}

    def _emit_op(self, op: Operation, indent: int) -> None:
        handler = self.HANDLERS.get(op.op_name)
        if handler is None:
            raise CodegenError(
                f"no {type(self).__name__} codegen for op '{op.op_name}'"
            )
        handler(self, op, indent)

    # Helpers used by handlers --------------------------------------------------------------

    def _expr_result(self, op: Operation, indent: int, expr: str) -> None:
        name = self._assign(op.results[0])
        self._line(indent, f"{name} = {expr}")

    def _is_vector(self, value: Value) -> bool:
        return isinstance(value.type, VectorType)

    # -- scratch-register (out=) machinery ------------------------------------

    def _scratch_eligible(self, op: Operation) -> bool:
        if not self.reuse_vector_registers or not op.results:
            return False
        ty = op.results[0].type
        return (
            isinstance(ty, VectorType)
            and ty.rank in (1, 2)
            and isinstance(ty.element_type, FloatType)
        )

    def _acquire_scratch(self, ty: VectorType) -> str:
        """A free scratch register of vector type ``ty`` (release it with
        :meth:`_release_name`)."""
        key = (ty.shape, numpy_dtype(ty.element_type).__name__)
        pool = self._scratch_pools.setdefault(key, [])
        if pool:
            return pool.pop()
        name = f"v{self._scratch_created}"
        self._scratch_created += 1
        self._scratch_decls[name] = self._scratch_decl(name, *key)
        self._scratch_pool_of[name] = key
        return name

    def _scratch_decl(self, name: str, shape: tuple, dtype: str) -> str:
        if None not in shape:
            size = shape[0] if len(shape) == 1 else shape
            return f"np.empty({size}, dtype=np.{dtype})"
        # Runtime-width scratch lives in the reusable buffer pool: same
        # slot, same thread → same backing array on every chunk, so
        # steady state allocates nothing. Rank-2 scratch is requested
        # flat and reshaped, so it is contiguous at every chunk width.
        self._uses_batch_width = True
        if len(shape) == 1:
            return f"_tmp_pool.buffer({name!r}, _n, np.{dtype})"
        rows = shape[0]
        return (
            f"_tmp_pool.buffer({name!r}, {rows} * _n, np.{dtype})"
            f".reshape({rows}, _n)"
        )

    def _assign_scratch(self, value: Value) -> str:
        name = self._acquire_scratch(value.type)
        self._names[value] = name
        self.stats.values_assigned += 1
        return name

    def _ufunc_result(self, op: Operation, indent: int, ufunc: str, operands) -> None:
        """Emit a ufunc call, routed through a scratch register at -O2+."""
        args = ", ".join(operands)
        if self._scratch_eligible(op):
            name = self._assign_scratch(op.results[0])
            self._line(indent, f"{name} = {ufunc}({args}, out={name})")
        else:
            self._expr_result(op, indent, f"{ufunc}({args})")

    def _register_table(self, data: np.ndarray, elem: Type) -> str:
        name = f"_tbl{self._table_count}"
        self._table_count += 1
        self.globals[name] = np.ascontiguousarray(
            data.astype(numpy_dtype(elem))
        )
        return name

    def _register_weights(self, weights: np.ndarray, ty: VectorType) -> str:
        """A global tuple of the ``[s, 1]`` columns of a weight matrix."""
        name = f"_w{self._weights_count}"
        self._weights_count += 1
        dense = weights.astype(numpy_dtype(ty.element_type))
        self.globals[name] = tuple(
            np.ascontiguousarray(dense[:, i : i + 1]) for i in range(dense.shape[1])
        )
        return name

    def _arange_global(self, width: int) -> str:
        name = f"_AR{width}"
        if width not in self._arange_widths:
            self.globals[name] = np.arange(width)
            self._arange_widths.add(width)
        return name


@dataclass
class GeneratedModule:
    """The backend's output: source text plus executable functions."""

    source: str
    namespace: Dict[str, Any]
    functions: Dict[str, Any]
    stats: CodegenStats
    #: Reusable temp-buffer pool the generated code draws intermediates
    #: from (None for backends that do not pool temporaries).
    buffer_pool: Optional[Any] = None

    def get(self, name: str):
        fn = self.functions.get(name)
        if fn is None:
            raise KeyError(f"no generated function named '{name}'")
        return fn


# --- op handlers ---------------------------------------------------------------------------

_HANDLERS = {}


def handles(op_name: str):
    def register(fn):
        _HANDLERS[op_name] = fn
        return fn

    return register


@handles("arith.constant")
def _h_constant(cg: CodeGenerator, op: Operation, indent: int) -> None:
    # An immediate: literal text in the statements that use it.
    value = op.attributes["value"]
    if isinstance(op.results[0].type, FloatType):
        cg._assign_borrowed(op.results[0], _float_literal(float(value)))
    else:
        cg._assign_borrowed(op.results[0], repr(int(value)))


def _binary(cg: CodeGenerator, op: Operation, indent: int, symbol: str) -> None:
    a = cg._name_of(op.operands[0])
    b = cg._name_of(op.operands[1])
    cg._expr_result(op, indent, f"({a} {symbol} {b})")


def _float_binary(cg, op, indent, symbol: str, ufunc: str) -> None:
    if cg._scratch_eligible(op):
        operands = [cg._name_of(v) for v in op.operands]
        cg._ufunc_result(op, indent, ufunc, operands)
    else:
        _binary(cg, op, indent, symbol)


@handles("arith.addf")
def _h_addf(cg, op, indent):
    _float_binary(cg, op, indent, "+", "np.add")


@handles("arith.subf")
def _h_subf(cg, op, indent):
    _float_binary(cg, op, indent, "-", "np.subtract")


@handles("arith.mulf")
def _h_mulf(cg, op, indent):
    _float_binary(cg, op, indent, "*", "np.multiply")


@handles("arith.divf")
def _h_divf(cg, op, indent):
    _float_binary(cg, op, indent, "/", "np.divide")


@handles("arith.addi")
def _h_addi(cg, op, indent):
    _binary(cg, op, indent, "+")


@handles("arith.subi")
def _h_subi(cg, op, indent):
    _binary(cg, op, indent, "-")


@handles("arith.muli")
def _h_muli(cg, op, indent):
    _binary(cg, op, indent, "*")


@handles("arith.divsi")
def _h_divsi(cg, op, indent):
    _binary(cg, op, indent, "//")


@handles("arith.remsi")
def _h_remsi(cg, op, indent):
    _binary(cg, op, indent, "%")


@handles("arith.negf")
def _h_negf(cg, op, indent):
    cg._expr_result(op, indent, f"(-{cg._name_of(op.operands[0])})")


@handles("arith.andi")
def _h_andi(cg, op, indent):
    symbol = "&" if cg._is_vector(op.operands[0]) else "and"
    _binary(cg, op, indent, symbol)


@handles("arith.ori")
def _h_ori(cg, op, indent):
    symbol = "|" if cg._is_vector(op.operands[0]) else "or"
    _binary(cg, op, indent, symbol)


def _min_max(cg, op, indent, ufunc: str, relation: str) -> None:
    a, b = (cg._name_of(v) for v in op.operands)
    if cg._is_vector(op.operands[0]):
        cg._ufunc_result(op, indent, ufunc, [a, b])
    else:
        # NaN-propagating like the ufunc (Python's min/max are not).
        cg._expr_result(op, indent, f"({a} if {a} {relation} {b} or {a} != {a} else {b})")


@handles("arith.minf")
def _h_minf(cg, op, indent):
    _min_max(cg, op, indent, "np.minimum", "<=")


@handles("arith.maxf")
def _h_maxf(cg, op, indent):
    _min_max(cg, op, indent, "np.maximum", ">=")


def _cmp(cg: CodeGenerator, op: Operation, indent: int) -> None:
    symbol = _CMP_OPERATORS[op.attributes["predicate"]]
    _binary(cg, op, indent, symbol)


@handles("arith.cmpf")
def _h_cmpf(cg, op, indent):
    _cmp(cg, op, indent)


@handles("arith.cmpi")
def _h_cmpi(cg, op, indent):
    _cmp(cg, op, indent)


@handles("arith.select")
def _h_select(cg, op, indent):
    cond, yes, no = (cg._name_of(v) for v in op.operands)
    if isinstance(op.results[0].type, VectorType):
        cg._expr_result(op, indent, f"np.where({cond}, {yes}, {no})")
    else:
        cg._expr_result(op, indent, f"({yes} if {cond} else {no})")


@handles("arith.index_cast")
def _h_index_cast(cg, op, indent):
    cg._expr_result(op, indent, cg._name_of(op.operands[0]))


@handles("arith.fptosi")
def _h_fptosi(cg, op, indent):
    a = cg._name_of(op.operands[0])
    if isinstance(op.results[0].type, VectorType):
        cg._expr_result(op, indent, f"{a}.astype(np.int64)")
    else:
        cg._expr_result(op, indent, f"int({a})")


@handles("arith.sitofp")
def _h_sitofp(cg, op, indent):
    a = cg._name_of(op.operands[0])
    ty = op.results[0].type
    if isinstance(ty, VectorType):
        cg._expr_result(op, indent, f"{a}.astype({_dtype_expr(ty.element_type)})")
    else:
        cg._expr_result(op, indent, f"float({a})")


@handles("arith.extf")
def _h_extf(cg, op, indent):
    _float_cast(cg, op, indent)


@handles("arith.truncf")
def _h_truncf(cg, op, indent):
    _float_cast(cg, op, indent)


def _float_cast(cg: CodeGenerator, op: Operation, indent: int) -> None:
    a = cg._name_of(op.operands[0])
    ty = op.results[0].type
    if isinstance(ty, VectorType):
        cg._expr_result(op, indent, f"{a}.astype({_dtype_expr(ty.element_type)})")
    else:
        # Scalar Python floats are double precision; width changes are free.
        cg._expr_result(op, indent, a)


_NP_MATH = {"log": "np.log", "exp": "np.exp", "log1p": "np.log1p", "sqrt": "np.sqrt"}


def _math(cg: CodeGenerator, op: Operation, indent: int, fn: str) -> None:
    a = cg._name_of(op.operands[0])
    if cg._scratch_eligible(op):
        # The executable wraps invocation in np.errstate, so the raw
        # ufunc (with out=) keeps libm semantics without warnings.
        cg._ufunc_result(op, indent, _NP_MATH[fn], [a])
        return
    prefix = "_v" if cg._is_vector(op.operands[0]) else "_s"
    cg._expr_result(op, indent, f"{prefix}{fn}({a})")


@handles("math.log")
def _h_log(cg, op, indent):
    _math(cg, op, indent, "log")


@handles("math.exp")
def _h_exp(cg, op, indent):
    _math(cg, op, indent, "exp")


@handles("math.log1p")
def _h_log1p(cg, op, indent):
    _math(cg, op, indent, "log1p")


@handles("math.sqrt")
def _h_sqrt(cg, op, indent):
    _math(cg, op, indent, "sqrt")


@handles("math.abs")
def _h_abs(cg, op, indent):
    a = cg._name_of(op.operands[0])
    cg._expr_result(op, indent, f"abs({a})")


# --- vector ops -------------------------------------------------------------------------


@handles("vector.broadcast")
def _h_broadcast(cg, op, indent):
    # NumPy broadcasting makes splats free: the result is the source.
    source = op.operands[0]
    if source in cg._borrowed or cg._is_vector(source):
        # An immediate, or a vector kept live through this view.
        cg._assign_borrowed(op.results[0], cg._name_of(source))
    else:
        cg._expr_result(op, indent, cg._name_of(source))


def _width_slice(start: str, width: Optional[int]) -> str:
    """[start, start+width) subscript text; open-ended for dynamic widths."""
    if width is None:
        return f"{start}:"
    return f"{start}:{start}+{width}"


@handles("vector.load")
def _h_vload(cg, op, indent):
    buf = cg._name_of(op.operands[0])
    idx = [cg._name_of(v) for v in op.operands[1:]]
    width = op.results[0].type.shape[0]
    lead = ", ".join(idx[:-1])
    prefix = f"{lead}, " if lead else ""
    cg._expr_result(op, indent, f"{buf}[{prefix}{_width_slice(idx[-1], width)}]")


@handles("vector.store")
def _h_vstore(cg, op, indent):
    value = cg._name_of(op.operands[0])
    buf = cg._name_of(op.operands[1])
    idx = [cg._name_of(v) for v in op.operands[2:]]
    width = op.operands[0].type.shape[0]
    lead = ", ".join(idx[:-1])
    prefix = f"{lead}, " if lead else ""
    cg._line(indent, f"{buf}[{prefix}{_width_slice(idx[-1], width)}] = {value}")


@handles("vector.gather")
def _h_vgather(cg, op, indent):
    buf = cg._name_of(op.operands[0])
    base = cg._name_of(op.operands[1])
    width = op.results[0].type.shape[0]
    column = op.attributes["column"]
    if width is None:
        # Runtime width: the whole column from base on, as a strided view.
        cg._expr_result(op, indent, f"{buf}[{base}:, {column}]")
        return
    arange = cg._arange_global(width)
    cg._expr_result(op, indent, f"{buf}[{arange} + {base}, {column}]")


@handles("vector.load_tile")
def _h_load_tile(cg, op, indent):
    buf = cg._name_of(op.operands[0])
    base = cg._name_of(op.operands[1])
    rows = op.results[0].type.shape[0]
    # W contiguous row loads + in-register shuffles == one transposed copy.
    cg._expr_result(
        op, indent, f"np.ascontiguousarray({buf}[{_width_slice(base, rows)}].T)"
    )


@handles("vector.extract_column")
def _h_extract_column(cg, op, indent):
    tile = cg._name_of(op.operands[0])
    cg._expr_result(op, indent, f"{tile}[{op.attributes['column']}]")


@handles("vector.extract")
def _h_vextract(cg, op, indent):
    vec = cg._name_of(op.operands[0])
    element = f"{vec}[{op.attributes['position']}]"
    if cg._is_vector(op.results[0]):
        cg._expr_result(op, indent, element)  # a row view, no copy
    else:
        cg._expr_result(op, indent, f"float({element})")


@handles("vector.stack")
def _h_vstack(cg, op, indent):
    rows = [cg._name_of(v) for v in op.operands]
    # Splats of immediates are scalars here; everything else is an array.
    arrays = not any(v in cg._borrowed for v in op.operands)
    if not cg._scratch_eligible(op):
        stacked = f"({', '.join(rows)},)"
        if not arrays:
            stacked = f"np.broadcast_arrays{stacked}"
        cg._expr_result(op, indent, f"np.stack({stacked})")
        return
    name = cg._assign_scratch(op.results[0])
    if arrays and None in op.results[0].type.shape:
        # Runtime-width scratch is contiguous: one C-level copy loop.
        cg._line(
            indent, f"np.concatenate(({', '.join(rows)},), out={name}.reshape(-1))"
        )
    else:
        for i, row in enumerate(rows):
            cg._line(indent, f"{name}[{i}] = {row}")


@handles("vector.row_max")
def _h_row_max(cg, op, indent):
    rows = cg._name_of(op.operands[0])
    cg._ufunc_result(op, indent, "np.maximum.reduce", [rows, "axis=0"])


@handles("vector.contract")
def _h_contract(cg, op, indent):
    """``acc = w[:, 0] * rows[0]; acc += w[:, i] * rows[i]`` in row
    order — see ``vector.contract`` for why not ``np.matmul``."""
    rows = cg._name_of(op.operands[0])
    columns = cg._register_weights(op.attributes["weights"], op.results[0].type)
    count = op.attributes["weights"].shape[1]
    if not cg._scratch_eligible(op):
        acc = cg._assign(op.results[0])
        cg._line(indent, f"{acc} = {columns}[0] * {rows}[0]")
        for i in range(1, count):
            cg._line(indent, f"{acc} += {columns}[{i}] * {rows}[{i}]")
        return
    acc = cg._assign_scratch(op.results[0])
    cg._line(indent, f"np.multiply({columns}[0], {rows}[0], out={acc})")
    if count > 1:
        term = cg._acquire_scratch(op.results[0].type)
        for i in range(1, count):
            cg._line(indent, f"np.multiply({columns}[{i}], {rows}[{i}], out={term})")
            cg._line(indent, f"np.add({acc}, {term}, out={acc})")
        cg._release_name(term)


@handles("vector.insert")
def _h_vinsert(cg, op, indent):
    scalar = cg._name_of(op.operands[0])
    vec = cg._name_of(op.operands[1])
    name = cg._assign(op.results[0])
    cg._line(indent, f"{name} = {vec}.copy()")
    cg._line(indent, f"{name}[{op.attributes['position']}] = {scalar}")


@handles("vector.gather_table")
def _h_gather_table(cg, op, indent):
    table = cg._name_of(op.operands[0])
    idx = cg._name_of(op.operands[1])
    cg._expr_result(op, indent, f"{table}[{idx}]")


@handles("vector.scalarized_call")
def _h_scalarized(cg, op, indent):
    value = cg._name_of(op.operands[0])
    fn = op.attributes["fn"]
    cg._expr_result(op, indent, f"_scalarized({fn!r}, {value})")


# --- memref ops -------------------------------------------------------------------------


@handles("memref.alloc")
def _h_alloc(cg, op, indent):
    ty = op.results[0].type
    dims: List[str] = []
    operand_iter = iter(cg._name_of(v) for v in op.operands)
    for dim in ty.shape:
        dims.append(next(operand_iter) if dim is None else str(dim))
    shape = ", ".join(dims) + ("," if len(dims) == 1 else "")
    # Temporaries come from the reusable buffer pool, keyed by a stable
    # module-unique slot: re-invoking the kernel on same-shaped chunks
    # reuses the retained backing arrays instead of allocating.
    slot = f"m{cg._alloc_count}"
    cg._alloc_count += 1
    cg._expr_result(
        op,
        indent,
        f"_tmp_pool.buffer({slot!r}, ({shape}), {_dtype_expr(ty.element_type)})",
    )


@handles("memref.dealloc")
def _h_dealloc(cg, op, indent):
    cg._line(indent, f"del {cg._name_of(op.operands[0])}  # dealloc")


@handles("memref.load")
def _h_mload(cg, op, indent):
    buf = cg._name_of(op.operands[0])
    idx = ", ".join(cg._name_of(v) for v in op.operands[1:])
    elem = op.results[0].type
    cast = "int" if isinstance(elem, (IntegerType, IndexType)) else "float"
    cg._expr_result(op, indent, f"{cast}({buf}[{idx}])")


@handles("memref.store")
def _h_mstore(cg, op, indent):
    value = cg._name_of(op.operands[0])
    buf = cg._name_of(op.operands[1])
    idx = ", ".join(cg._name_of(v) for v in op.operands[2:])
    cg._line(indent, f"{buf}[{idx}] = {value}")


@handles("memref.copy")
def _h_mcopy(cg, op, indent):
    src = cg._name_of(op.operands[0])
    dst = cg._name_of(op.operands[1])
    cg._line(indent, f"{dst}[...] = {src}")


@handles("memref.dim")
def _h_mdim(cg, op, indent):
    buf = cg._name_of(op.operands[0])
    cg._expr_result(op, indent, f"{buf}.shape[{op.attributes['dim']}]")


@handles("memref.constant_buffer")
def _h_constant_buffer(cg, op, indent):
    name = cg._register_table(op.attributes["data"], op.results[0].type.element_type)
    cg._assign_fixed(op.results[0], name)


# --- control flow --------------------------------------------------------------------------


@handles("scf.for")
def _h_for(cg, op, indent):
    lower, upper, step = (cg._name_of(v) for v in op.operands[:3])
    init_args = [cg._name_of(v) for v in op.operands[3:]]
    body = op.body_block
    induction = cg._assign(body.arguments[0])

    # Loop-carried values: one mutable Python name per iter_arg.
    carried = [cg._assign(arg) for arg in body.arguments[1:]]
    for name, init in zip(carried, init_args):
        cg._line(indent, f"{name} = {init}")

    cg._line(indent, f"for {induction} in range({lower}, {upper}, {step}):")
    inner_ops = body.op_list()
    terminator = inner_ops[-1] if inner_ops else None
    lines_before = len(cg.lines)
    # Emit everything except the terminator.
    cg._emit_block(body, indent + 1, skip_terminator=True)
    if terminator is not None and terminator.op_name == "scf.yield":
        for name, yielded in zip(carried, terminator.operands):
            cg._line(indent + 1, f"{name} = {cg._name_of(yielded)}")
    if len(cg.lines) == lines_before:  # immediates emit no statement
        cg._line(indent + 1, "pass")
    for res, name in zip(op.results, carried):
        cg._assign_fixed(res, name)


@handles("scf.if")
def _h_if(cg, op, indent):
    cond = cg._name_of(op.operands[0])
    result_names = [cg._assign(res) for res in op.results]
    cg._line(indent, f"if {cond}:")
    _emit_branch(cg, op.regions[0].entry_block, indent + 1, result_names)
    if len(op.regions) > 1 and op.regions[1].blocks:
        cg._line(indent, "else:")
        _emit_branch(cg, op.regions[1].entry_block, indent + 1, result_names)


def _emit_branch(cg: CodeGenerator, block: Block, indent: int, result_names) -> None:
    ops = block.op_list()
    lines_before = len(cg.lines)
    cg._emit_block(block, indent, skip_terminator=True)
    terminator = ops[-1] if ops else None
    if terminator is not None and terminator.op_name == "scf.yield":
        for name, yielded in zip(result_names, terminator.operands):
            cg._line(indent, f"{name} = {cg._name_of(yielded)}")
    if len(cg.lines) == lines_before:  # immediates emit no statement
        cg._line(indent, "pass")


@handles("scf.yield")
def _h_yield(cg, op, indent):  # handled by the parent loop/if emitters
    pass


@handles("func.call")
def _h_call(cg, op, indent):
    args = ", ".join(cg._name_of(v) for v in op.operands)
    callee = op.attributes["callee"]
    if op.results:
        names = [cg._assign(res) for res in op.results]
        cg._line(indent, f"{', '.join(names)} = {callee}({args})")
    else:
        cg._line(indent, f"{callee}({args})")


@handles("func.return")
def _h_return(cg, op, indent):
    if op.operands:
        values = ", ".join(cg._name_of(v) for v in op.operands)
        cg._line(indent, f"return {values}")
    else:
        cg._line(indent, "return")


CodeGenerator.HANDLERS = _HANDLERS


def generate_cpu_module(
    module: Operation, reuse_vector_registers: bool = False
) -> GeneratedModule:
    """Generate executable Python for a CPU-lowered module."""
    return CodeGenerator(module, reuse_vector_registers).generate()
