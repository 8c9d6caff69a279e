"""A reference interpreter for lowered IR modules.

Executes func/scf/arith/math/memref/vector modules directly, without
code generation: operations are evaluated one by one against an SSA value
environment. It is deliberately simple and slow — its purpose is
*differential testing* (the CPU backend's generated code must agree with
the interpreter on every module) and debugging pass pipelines by running
the IR at any stage after target lowering.

Semantics match the CPU backend: scalars are Python floats/ints, vectors
are NumPy arrays, memrefs are NumPy arrays, and libm calls use the
guarded veclib entry points (log(0) = -inf, never an exception).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from ..backends.cpu import veclib
from .ops import Block, IRError, Operation
from .types import FloatType, IndexType, IntegerType, VectorType
from .value import Value


class InterpreterError(IRError):
    pass


class _ReturnSignal(Exception):
    def __init__(self, values):
        self.values = values


_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: (a != b) & ~(_isnan(a) | _isnan(b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
    else (a != b and not (_isnan(a) or _isnan(b))),
    "ueq": lambda a, b: a == b,
    "une": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}


def _isnan(x):
    if isinstance(x, np.ndarray):
        return np.isnan(x)
    return isinstance(x, float) and math.isnan(x)


class Interpreter:
    """Interprets the functions of a lowered module."""

    def __init__(self, module: Operation):
        self.module = module
        self.functions: Dict[str, Operation] = {}
        for op in module.body_block.ops:
            if op.op_name == "func.func":
                self.functions[op.attributes["sym_name"]] = op

    # -- public API ---------------------------------------------------------------

    def call(self, name: str, *args):
        fn = self.functions.get(name)
        if fn is None:
            raise InterpreterError(f"no function named '{name}'")
        block = fn.body_block
        if len(args) != len(block.arguments):
            raise InterpreterError(
                f"'{name}' expects {len(block.arguments)} arguments, got {len(args)}"
            )
        env: Dict[Value, Any] = dict(zip(block.arguments, args))
        try:
            self._run_block(block, env)
        except _ReturnSignal as signal:
            values = signal.values
            if not values:
                return None
            return values[0] if len(values) == 1 else tuple(values)
        return None

    # -- execution ------------------------------------------------------------------

    def _run_block(self, block: Block, env: Dict[Value, Any]) -> List[Any]:
        """Execute a block; returns the operands of its final yield (if any)."""
        yielded: List[Any] = []
        for op in block.ops:
            name = op.op_name
            if name == "func.return":
                raise _ReturnSignal([env[v] for v in op.operands])
            if name == "scf.yield":
                yielded = [env[v] for v in op.operands]
                continue
            handler = _DISPATCH.get(name)
            if handler is None:
                raise InterpreterError(f"interpreter cannot execute '{name}'")
            handler(self, op, env)
        return yielded

    # helpers used by handlers ---------------------------------------------------------

    def _in(self, op: Operation, env, i: int):
        return env[op.operands[i]]

    def _set(self, op: Operation, env, value) -> None:
        env[op.results[0]] = value


_DISPATCH: Dict[str, Callable] = {}


def op_handler(name: str):
    def register(fn):
        _DISPATCH[name] = fn
        return fn

    return register


# --- arith -----------------------------------------------------------------------------


@op_handler("arith.constant")
def _constant(interp, op, env):
    value = op.attributes["value"]
    ty = op.results[0].type
    interp._set(op, env, float(value) if isinstance(ty, FloatType) else int(value))


def _binary(symbol):
    def handler(interp, op, env):
        interp._set(op, env, symbol(interp._in(op, env, 0), interp._in(op, env, 1)))

    return handler


_DISPATCH["arith.addf"] = _binary(lambda a, b: a + b)
_DISPATCH["arith.subf"] = _binary(lambda a, b: a - b)
_DISPATCH["arith.mulf"] = _binary(lambda a, b: a * b)
_DISPATCH["arith.divf"] = _binary(lambda a, b: a / b)
_DISPATCH["arith.addi"] = _binary(lambda a, b: a + b)
_DISPATCH["arith.subi"] = _binary(lambda a, b: a - b)
_DISPATCH["arith.muli"] = _binary(lambda a, b: a * b)
_DISPATCH["arith.divsi"] = _binary(lambda a, b: a // b)
_DISPATCH["arith.remsi"] = _binary(lambda a, b: a % b)


@op_handler("arith.negf")
def _negf(interp, op, env):
    interp._set(op, env, -interp._in(op, env, 0))


def _min_max(ufunc):
    # NaN-propagating for scalars too (Python's min/max are not).
    def handler(interp, op, env):
        a, b = interp._in(op, env, 0), interp._in(op, env, 1)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            interp._set(op, env, ufunc(a, b))
        else:
            interp._set(op, env, float(ufunc(a, b)))

    return handler


_DISPATCH["arith.minf"] = _min_max(np.minimum)
_DISPATCH["arith.maxf"] = _min_max(np.maximum)


def _cmp_handler(interp, op, env):
    fn = _CMP[op.attributes["predicate"]]
    interp._set(op, env, fn(interp._in(op, env, 0), interp._in(op, env, 1)))


_DISPATCH["arith.cmpf"] = _cmp_handler
_DISPATCH["arith.cmpi"] = _cmp_handler


@op_handler("arith.andi")
def _andi(interp, op, env):
    a, b = interp._in(op, env, 0), interp._in(op, env, 1)
    interp._set(op, env, (a & b) if isinstance(a, np.ndarray) else (a and b))


@op_handler("arith.ori")
def _ori(interp, op, env):
    a, b = interp._in(op, env, 0), interp._in(op, env, 1)
    interp._set(op, env, (a | b) if isinstance(a, np.ndarray) else (a or b))


@op_handler("arith.select")
def _select(interp, op, env):
    cond = interp._in(op, env, 0)
    yes, no = interp._in(op, env, 1), interp._in(op, env, 2)
    if isinstance(op.results[0].type, VectorType):
        interp._set(op, env, np.where(cond, yes, no))
    else:
        interp._set(op, env, yes if cond else no)


@op_handler("arith.index_cast")
def _index_cast(interp, op, env):
    interp._set(op, env, interp._in(op, env, 0))


@op_handler("arith.fptosi")
def _fptosi(interp, op, env):
    value = interp._in(op, env, 0)
    if isinstance(value, np.ndarray):
        interp._set(op, env, value.astype(np.int64))
    else:
        interp._set(op, env, int(value))


@op_handler("arith.sitofp")
def _sitofp(interp, op, env):
    value = interp._in(op, env, 0)
    if isinstance(value, np.ndarray):
        from ..backends.cpu.codegen import numpy_dtype

        interp._set(op, env, value.astype(numpy_dtype(op.results[0].type.element_type)))
    else:
        interp._set(op, env, float(value))


def _float_cast(interp, op, env):
    value = interp._in(op, env, 0)
    if isinstance(value, np.ndarray):
        from ..backends.cpu.codegen import numpy_dtype

        ty = op.results[0].type
        interp._set(op, env, value.astype(numpy_dtype(ty.element_type)))
    else:
        interp._set(op, env, value)


_DISPATCH["arith.extf"] = _float_cast
_DISPATCH["arith.truncf"] = _float_cast


# --- math -----------------------------------------------------------------------------


def _math_handler(scalar_fn, vector_fn):
    def handler(interp, op, env):
        value = interp._in(op, env, 0)
        if isinstance(value, np.ndarray):
            interp._set(op, env, vector_fn(value))
        else:
            interp._set(op, env, scalar_fn(value))

    return handler


_DISPATCH["math.log"] = _math_handler(veclib.slog, veclib.vlog)
_DISPATCH["math.exp"] = _math_handler(veclib.sexp, veclib.vexp)
_DISPATCH["math.log1p"] = _math_handler(veclib.slog1p, veclib.vlog1p)
_DISPATCH["math.sqrt"] = _math_handler(veclib.ssqrt, veclib.vsqrt)
_DISPATCH["math.abs"] = _math_handler(abs, np.abs)


# --- memref -----------------------------------------------------------------------------


@op_handler("memref.alloc")
def _alloc(interp, op, env):
    from ..backends.cpu.codegen import numpy_dtype

    ty = op.results[0].type
    dims = []
    operands = iter(op.operands)
    for dim in ty.shape:
        dims.append(env[next(operands)] if dim is None else dim)
    interp._set(op, env, np.empty(tuple(dims), dtype=numpy_dtype(ty.element_type)))


@op_handler("memref.dealloc")
def _dealloc(interp, op, env):
    pass


@op_handler("memref.load")
def _load(interp, op, env):
    buf = interp._in(op, env, 0)
    idx = tuple(env[v] for v in op.operands[1:])
    elem = op.results[0].type
    value = buf[idx]
    interp._set(op, env, int(value) if isinstance(elem, (IntegerType, IndexType)) else float(value))


@op_handler("memref.store")
def _store(interp, op, env):
    value = interp._in(op, env, 0)
    buf = interp._in(op, env, 1)
    idx = tuple(env[v] for v in op.operands[2:])
    buf[idx] = value


@op_handler("memref.copy")
def _copy(interp, op, env):
    interp._in(op, env, 1)[...] = interp._in(op, env, 0)


@op_handler("memref.dim")
def _dim(interp, op, env):
    interp._set(op, env, interp._in(op, env, 0).shape[op.attributes["dim"]])


@op_handler("memref.constant_buffer")
def _constant_buffer(interp, op, env):
    interp._set(op, env, op.attributes["data"])


# --- vector -----------------------------------------------------------------------------


@op_handler("vector.broadcast")
def _broadcast(interp, op, env):
    interp._set(op, env, interp._in(op, env, 0))


def _width_slice(start, width):
    """[start, start+width), open-ended for dynamic (None) widths."""
    return slice(start, None if width is None else start + width)


@op_handler("vector.load")
def _vload(interp, op, env):
    buf = interp._in(op, env, 0)
    idx = [env[v] for v in op.operands[1:]]
    width = op.results[0].type.shape[0]
    lead = tuple(idx[:-1])
    interp._set(op, env, buf[lead + (_width_slice(idx[-1], width),)])


@op_handler("vector.store")
def _vstore(interp, op, env):
    value = interp._in(op, env, 0)
    buf = interp._in(op, env, 1)
    idx = [env[v] for v in op.operands[2:]]
    width = op.operands[0].type.shape[0]
    buf[tuple(idx[:-1]) + (_width_slice(idx[-1], width),)] = value


@op_handler("vector.gather")
def _vgather(interp, op, env):
    buf = interp._in(op, env, 0)
    base = interp._in(op, env, 1)
    width = op.results[0].type.shape[0]
    column = op.attributes["column"]
    if width is None:
        interp._set(op, env, buf[base:, column])
    else:
        interp._set(op, env, buf[np.arange(width) + base, column])


@op_handler("vector.load_tile")
def _load_tile(interp, op, env):
    buf = interp._in(op, env, 0)
    base = interp._in(op, env, 1)
    rows = op.results[0].type.shape[0]
    interp._set(
        op, env, np.ascontiguousarray(buf[_width_slice(base, rows)].T)
    )


@op_handler("vector.extract_column")
def _extract_column(interp, op, env):
    interp._set(op, env, interp._in(op, env, 0)[op.attributes["column"]])


@op_handler("vector.extract")
def _vextract(interp, op, env):
    element = interp._in(op, env, 0)[op.attributes["position"]]
    if isinstance(op.results[0].type, VectorType):
        interp._set(op, env, element)  # a row of a rank-2 vector
    else:
        interp._set(op, env, float(element))


@op_handler("vector.stack")
def _vstack(interp, op, env):
    # Splats are kept as scalars (see vector.broadcast): widen them here.
    rows = np.broadcast_arrays(*[env[v] for v in op.operands])
    interp._set(op, env, np.stack(rows))


@op_handler("vector.row_max")
def _row_max(interp, op, env):
    interp._set(op, env, np.maximum.reduce(interp._in(op, env, 0), axis=0))


@op_handler("vector.contract")
def _contract(interp, op, env):
    from ..backends.cpu.codegen import numpy_dtype

    rows = interp._in(op, env, 0)
    weights = op.attributes["weights"].astype(
        numpy_dtype(op.results[0].type.element_type)
    )
    # Ordered accumulation, as the op is defined (no blocked matmul).
    acc = weights[:, 0:1] * rows[0]
    for i in range(1, weights.shape[1]):
        acc += weights[:, i : i + 1] * rows[i]
    interp._set(op, env, acc)


@op_handler("vector.insert")
def _vinsert(interp, op, env):
    vec = interp._in(op, env, 1).copy()
    vec[op.attributes["position"]] = interp._in(op, env, 0)
    interp._set(op, env, vec)


@op_handler("vector.gather_table")
def _gather_table(interp, op, env):
    interp._set(op, env, interp._in(op, env, 0)[interp._in(op, env, 1)])


@op_handler("vector.scalarized_call")
def _scalarized(interp, op, env):
    interp._set(op, env, veclib.scalarized(op.attributes["fn"], interp._in(op, env, 0)))


# --- control flow ----------------------------------------------------------------------


@op_handler("scf.for")
def _for(interp, op, env):
    lower = env[op.operands[0]]
    upper = env[op.operands[1]]
    step = env[op.operands[2]]
    carried = [env[v] for v in op.operands[3:]]
    body = op.body_block
    for i in range(lower, upper, step):
        env[body.arguments[0]] = i
        for arg, value in zip(body.arguments[1:], carried):
            env[arg] = value
        carried = interp._run_block(body, env)
    for res, value in zip(op.results, carried):
        env[res] = value


@op_handler("scf.if")
def _if(interp, op, env):
    region = op.regions[0] if env[op.operands[0]] else (
        op.regions[1] if len(op.regions) > 1 else None
    )
    values: List[Any] = []
    if region is not None and region.blocks:
        values = interp._run_block(region.entry_block, env)
    for res, value in zip(op.results, values):
        env[res] = value


@op_handler("func.call")
def _call(interp, op, env):
    result = interp.call(op.attributes["callee"], *[env[v] for v in op.operands])
    if op.results:
        if len(op.results) == 1:
            env[op.results[0]] = result
        else:
            for res, value in zip(op.results, result):
                env[res] = value
