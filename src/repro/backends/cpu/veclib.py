"""Vector math library (the Intel SVML / GLIBC libmvec stand-in).

Compiled vector code calls these NumPy-backed routines for elementary
functions. They are the performance-critical difference the paper's
"+VecLib" configuration measures: without them, vector code must extract
every lane, call the scalar libm routine, and re-insert the result
(see :func:`scalarized` below), which is slower than not vectorizing at
all.

The entry points are width-agnostic: the same routines serve fixed
ISA-lane registers (length-W arrays) and the batch-vectorized kernels'
runtime-width vectors spanning a whole chunk. The optional ``out=``
parameter lets register-reusing code write results into preallocated
scratch, mirroring NumPy ufunc semantics.

Scalar guarded helpers (`slog` etc.) give the generated scalar code libm
semantics — ``log(0) = -inf`` instead of a raised ``ValueError``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")
NAN = float("nan")


# --- vectorized entry points (SVML equivalents) ------------------------------------

def vlog(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(values, out=out)


def vexp(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.exp(values, out=out)


def vlog1p(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log1p(values, out=out)


def vsqrt(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.sqrt(values, out=out)


# --- guarded scalar versions (libm semantics, no exceptions) -------------------------

def slog(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    if x == 0.0:
        return NEG_INF
    return NAN


def sexp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return POS_INF


def slog1p(x: float) -> float:
    if x > -1.0:
        return math.log1p(x)
    if x == -1.0:
        return NEG_INF
    return NAN


def ssqrt(x: float) -> float:
    if x >= 0.0:
        return math.sqrt(x)
    return NAN


_SCALAR_FN = {"log": slog, "exp": sexp, "log1p": slog1p, "sqrt": ssqrt}


# --- the no-veclib path: explicit extract / scalar call / insert ----------------------

def scalarized(fn_name: str, values: np.ndarray) -> np.ndarray:
    """Apply a libm function lane by lane (extract → call → insert).

    This is deliberately *not* a NumPy ufunc call: each lane is extracted
    from the vector register individually, the scalar libm routine is
    invoked, and the result is inserted back — reproducing the cost
    structure of vector code compiled without a vector math library
    (paper Fig. 6, where this configuration loses to scalar code).
    A rank-2 ``[k, n]`` vector is walked element by element the same way.
    """
    fn = _SCALAR_FN[fn_name]
    lanes = values.reshape(-1)
    out = np.empty_like(lanes)
    for i in range(len(lanes)):
        lane = lanes[i]           # extract
        result = fn(float(lane))  # scalar libm call
        out[i] = result           # insert
    return out.reshape(values.shape)


VECTOR_FN = {"log": vlog, "exp": vexp, "log1p": vlog1p, "sqrt": vsqrt}
