"""Single-call user API, mirroring SPNC's Python interface.

The paper (Section IV-A1): "The Python interface of the compiler also
allows to start the compilation and execution of the compiled query
directly from Python with as little as a single API call."

Example::

    from repro import CPUCompiler
    log_probs = CPUCompiler(vectorize="lanes").log_likelihood(spn, inputs)

Compilers cache the compiled kernel per SPN graph, so repeated
``log_likelihood`` calls on the same model only compile once. Cache
entries are keyed by the SPN object identity *plus* a query/option
fingerprint, and are evicted via weak references when the model is
garbage collected — a recycled ``id()`` can never produce a stale hit.
The full exchange path (binary serialization → compiler frontend) is
exercised when ``via_serialization=True``, matching the real
SPFlow↔SPNC hand-off. The cache is thread-safe with *single-flight*
compilation: concurrent requests for the same (model, options) key
compile exactly once — the serving runtime relies on this when many
requests arrive for a freshly published model.

Graceful degradation (``fallback=`` policy): like SPFlow itself, which
always has a correct (slow) interpreter to fall back to, the compilers
can transparently degrade instead of surfacing a compiler or runtime
defect to the caller:

- ``"raise"`` (default): failures propagate as structured
  :class:`~repro.diagnostics.CompilerError`\\ s naming the failing
  pass/stage, with a reproducer dumped to the artifact directory.
- ``"interpret"``: on any compile-stage, codegen or execution failure,
  fall back down the degradation ladder (:mod:`repro.runtime.ladder`)
  — GPU kernel → CPU kernel → reference interpreter — with no retries,
  recording diagnostics and emitting a single :class:`FallbackWarning`
  per degraded model.
- ``"warn"``: same cascade, but warns on *every* degraded call instead
  of deduplicating per model.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import warnings
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from .compiler.frontend import parse_binary_query
from .compiler.pipeline import CompilationResult, CompilerOptions, compile_spn
from .diagnostics import (
    Diagnostic,
    DiagnosticLog,
    ErrorCode,
    OptionsError,
    Severity,
    diagnostic_from_exception,
)
from .runtime import ladder
from .spn.nodes import Node
from .spn.query import (
    ConditionalProbability,
    Expectation,
    JointProbability,
    MPEQuery,
    Query,
    SampleQuery,
)
from .spn.serialization import deserialize, serialize


class FallbackWarning(UserWarning):
    """Emitted when a compiled path degrades to a slower rung."""


def _register_eviction(cache: Dict, lock: threading.Lock, spns: Tuple, key) -> None:
    """Evict ``key`` from ``cache`` when any of its SPNs is collected.

    This is what makes identity-based cache keys safe: after the model
    dies, its entry disappears before CPython can recycle the ``id()``
    for an unrelated object. Eviction takes the cache lock so it cannot
    interleave with a concurrent lookup/insert of the same key.
    """

    def evict(_cache=cache, _lock=lock, _key=key):
        with _lock:
            _cache.pop(_key, None)

    for spn in spns:
        try:
            weakref.finalize(spn, evict)
        except TypeError:  # pragma: no cover - non-weakrefable model object
            pass


class _CompileFlight:
    """Single-flight slot: one leader compiles, followers wait on it."""

    def __init__(self):
        self.done = threading.Event()
        self.result: Optional[CompilationResult] = None
        self.error: Optional[BaseException] = None


class _CompilerBase:
    """Shared compile-and-cache behaviour of the CPU/GPU entry points."""

    target = "cpu"

    def __init__(
        self,
        batch_size: int = 4096,
        support_marginal: bool = False,
        opt_level: int = 1,
        max_partition_size: Optional[int] = None,
        use_log_space: bool = True,
        via_serialization: bool = False,
        fallback: str = "raise",
        artifact_dir: Optional[str] = None,
        **target_options,
    ):
        if fallback not in ("raise", "interpret", "warn"):
            raise OptionsError(
                f"unknown fallback policy '{fallback}' "
                "(expected 'raise', 'interpret' or 'warn')"
            )
        self.batch_size = batch_size
        self.support_marginal = support_marginal
        self.opt_level = opt_level
        self.max_partition_size = max_partition_size
        self.use_log_space = use_log_space
        self.via_serialization = via_serialization
        self.fallback = fallback
        self.artifact_dir = artifact_dir
        self.target_options = target_options
        #: Structured record of every failure/degradation this compiler
        #: instance observed (see :class:`repro.diagnostics.Diagnostic`).
        self.diagnostics = DiagnosticLog()
        # The compile cache is shared by concurrent server threads:
        # ``_cache_lock`` guards the dict (and weakref eviction), and
        # ``_inflight`` provides single-flight compilation — concurrent
        # requests for the same (model, options) key compile once, with
        # followers blocking on the leader's result.
        self._cache: Dict[tuple, CompilationResult] = {}
        self._cache_lock = threading.Lock()
        self._inflight: Dict[tuple, _CompileFlight] = {}
        self._warned_keys = set()

    # -- configuration -----------------------------------------------------------

    def _options(self, target: Optional[str] = None) -> CompilerOptions:
        return CompilerOptions(
            target=target or self.target,
            opt_level=self.opt_level,
            max_partition_size=self.max_partition_size,
            use_log_space=self.use_log_space,
            artifact_dir=self.artifact_dir,
            **self.target_options,
        )

    def _default_query(self) -> JointProbability:
        return JointProbability(
            batch_size=self.batch_size, support_marginal=self.support_marginal
        )

    def _query_for(
        self, inputs: np.ndarray, query: Optional[Query] = None
    ) -> Query:
        """The query to compile for a concrete input batch.

        NaN evidence always means "marginalize this feature out" — the
        semantics of the reference evaluator and of SPFlow. A kernel
        compiled without marginal support treats its inputs as fully
        observed and would propagate NaN (Gaussian) or zero probability
        (discrete leaves) instead, so when a batch contains NaN evidence
        the API transparently routes it to a marginal-supporting kernel
        (a separate cache entry; fully-observed batches keep using the
        cheaper non-marginal kernel).

        Only *joint* queries are rerouted. The other modalities define
        their own NaN semantics intrinsically — MPE completes missing
        features, sampling draws them, conditional kernels always
        marginalize NaN *evidence* (a NaN *query* feature is a
        structured ``QUERY_NAN`` error at execute time, never a silent
        marginal), and expectations take the posterior moment — so
        flipping them to a marginal joint kernel would silently compute
        the wrong query.
        """
        query = query if query is not None else self._default_query()
        if (
            query.kind == "joint"
            and not query.support_marginal
            and np.isnan(np.min(inputs))
        ):
            query = dataclasses.replace(query, support_marginal=True)
        return query

    # -- caching -----------------------------------------------------------------

    @staticmethod
    def _as_tuple(spn) -> Tuple[Node, ...]:
        return tuple(spn) if isinstance(spn, (list, tuple)) else (spn,)

    def _fingerprint(self, query: Query, target: str) -> tuple:
        # Normalize through CompilerOptions so equivalent spellings (e.g.
        # an explicit structure_opt vs the one the -O ladder derives)
        # share a cache entry while any change to the vectorization
        # mode/width/veclib configuration — or any other kernel-affecting
        # option — recompiles instead of returning a stale kernel. The query contributes its kind plus every
        # descriptor field (covering kind-specific fields such as
        # ``query_variables`` and ``moment``), so e.g. conditionals over
        # different variable sets never share a kernel.
        options_key = self._options(target).cache_fingerprint()
        return (
            options_key,
            self.via_serialization,
            query.kind,
            dataclasses.astuple(query),
        )

    def _cache_key(self, spn, query: Query, target: str) -> tuple:
        ids = tuple(id(s) for s in self._as_tuple(spn))
        return (ids, self._fingerprint(query, target))

    def compile(self, spn, query: Optional[Query] = None) -> CompilationResult:
        """Compile (or fetch the cached kernel for) an SPN.

        ``spn`` may also be a list of class SPNs: they compile into a
        single multi-head kernel sharing common sub-DAGs, whose
        executable returns a ``[num_heads, batch]`` matrix.
        """
        return self._compile_cached(spn, query, self.target)

    def _compile_cached(
        self, spn, query: Optional[Query], target: str
    ) -> CompilationResult:
        query = query or self._default_query()
        key = self._cache_key(spn, query, target)
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _CompileFlight()
        if not leader:
            # Another thread is already compiling this exact kernel:
            # wait for it instead of compiling twice (single-flight).
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result
        try:
            compile_input = spn
            if self.via_serialization and not isinstance(spn, (list, tuple)):
                # Round-trip through the binary exchange format, as the real
                # SPFlow -> SPNC hand-off does.
                compile_input, query = deserialize(serialize(spn, query))
            result = compile_spn(compile_input, query, self._options(target))
        except BaseException as error:
            flight.error = error
            raise
        else:
            flight.result = result
            with self._cache_lock:
                self._cache[key] = result
            _register_eviction(self._cache, self._cache_lock, self._as_tuple(spn), key)
            return result
        finally:
            with self._cache_lock:
                self._inflight.pop(key, None)
            flight.done.set()

    # -- execution with graceful degradation --------------------------------------

    def log_likelihood(self, spn, inputs: np.ndarray) -> np.ndarray:
        """Compile (cached) and execute a joint/marginal query.

        Returns log likelihoods when compiling in log space (default),
        linear probabilities otherwise. For a list of SPNs, the result
        is a ``[num_heads, batch]`` matrix from one multi-head kernel.

        NaN evidence marks a feature as marginalized out (matching the
        reference evaluator): batches containing NaN are automatically
        served by a marginal-supporting kernel even when the compiler
        was constructed with ``support_marginal=False``.

        With ``fallback="interpret"`` / ``"warn"``, any failure in the
        compile/execute path degrades down the cascade (GPU kernel →
        CPU kernel → reference interpreter) instead of raising.
        """
        inputs = np.asarray(inputs)
        query = self._query_for(inputs)
        return self._run(spn, inputs, query)

    def mpe(self, spn, evidence: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Most Probable Explanation: complete NaN features, score the result.

        Returns ``(completions, scores)``: ``completions`` is the input
        with every NaN feature replaced by its most probable value given
        the observed evidence (``[batch, num_features]``, float64;
        observed values pass through bit-exactly), and ``scores`` is the
        max-product log score of each completed row (``[batch]``).
        """
        evidence = np.asarray(evidence)
        output = self._run(spn, evidence, MPEQuery(batch_size=self.batch_size))
        return output[1:].T, output[0]

    def sample(self, spn, evidence: np.ndarray, seed: int = 0) -> np.ndarray:
        """Seeded ancestral sampling of NaN features, conditioned on the rest.

        Observed (non-NaN) features pass through bit-exactly; NaN
        features are drawn from the SPN posterior given the evidence (an
        all-NaN row draws an unconditional sample). The same ``seed``
        reproduces the same samples on the same compiled kernel; the
        seed is an execute-time parameter, so no recompile per run.
        Returns ``[batch, num_features]`` float64.
        """
        evidence = np.asarray(evidence)
        output = self._run(
            spn, evidence, SampleQuery(batch_size=self.batch_size), seed=seed
        )
        return output.T

    def conditional_log_likelihood(
        self, spn, inputs: np.ndarray, query_variables
    ) -> np.ndarray:
        """``log P(Q = q | E = e)`` for a fixed query-variable set.

        ``query_variables`` indexes the features interpreted as the
        query; all remaining features are evidence. Evidence NaNs are
        marginalized; a NaN on a *query* feature raises a structured
        :class:`~repro.diagnostics.ExecutionError` (code
        ``query-variable-nan``) rather than silently marginalizing.
        Rows with zero-probability evidence yield NaN. Returns
        ``[batch]`` log conditionals.
        """
        inputs = np.asarray(inputs)
        query = ConditionalProbability(
            batch_size=self.batch_size, query_variables=tuple(query_variables)
        )
        return self._run(spn, inputs, query)

    def expectation(self, spn, evidence: np.ndarray, moment: int = 1) -> np.ndarray:
        """Posterior raw moments ``E[X_v^m | e]`` per row and feature.

        Observed features return their value raised to the ``moment``-th
        power; NaN features return the posterior moment given the
        remaining evidence. Features outside the model scope and rows of
        zero-probability evidence come back NaN. Returns
        ``[batch, num_features]`` float64.
        """
        evidence = np.asarray(evidence)
        output = self._run(
            spn, evidence, Expectation(batch_size=self.batch_size, moment=moment)
        )
        return output.T

    def classify(self, spns, inputs: np.ndarray) -> np.ndarray:
        """Arg-max classification over per-class SPNs (one shared kernel)."""
        scores = self.log_likelihood(list(spns), inputs)
        return np.argmax(scores, axis=0)

    def _run(
        self, spn, inputs: np.ndarray, query: Query, seed: Optional[int] = None
    ) -> np.ndarray:
        """Compile (cached) + execute, honoring the fallback policy."""
        if self.fallback == "raise":
            return self._execute(spn, inputs, query, seed, self.target)
        targets = ("gpu", "cpu") if self.target == "gpu" else ("cpu",)
        landing = ladder.run(
            [
                (target, functools.partial(self._execute, spn, inputs, query, seed, target))
                for target in targets
            ],
            spn,
            inputs,
            query,
            retry=ladder.RetryPolicy(),
            seed=seed,
            use_log_space=self.use_log_space,
        )
        if landing.failures:
            self._announce_fallback(spn, landing)
        return landing.output

    def _execute(
        self,
        spn,
        inputs: np.ndarray,
        query: Query,
        seed: Optional[int],
        target: str,
    ) -> np.ndarray:
        executable = self._compile_cached(spn, query, target).executable
        if query.kind == "sample":
            return executable.execute(inputs, seed=seed)
        return executable(inputs)

    def _announce_fallback(self, spn, landing: ladder.Landing) -> None:
        """Record each failed rung, then warn where the ladder landed."""
        failures = [
            diagnostic_from_exception(
                error, code=ErrorCode.EXECUTION_FAILED, target=target
            )
            for target, error in landing.failures
        ]
        for diagnostic in failures:
            self.diagnostics.emit(diagnostic)
        first = failures[0]
        stage = first.stage or first.pass_name
        where = f" (failed at '{stage}')" if stage else ""
        landed = (
            "reference interpreter"
            if landing.degraded
            else f"{landing.rung} kernel"
        )
        message = (
            f"{type(self).__name__}: compiled execution degraded to the "
            f"{landed}{where}; results remain correct but slower. "
            f"See .diagnostics for details."
        )
        self.diagnostics.emit(
            Diagnostic(
                severity=Severity.WARNING,
                code=(
                    ErrorCode.FALLBACK_INTERPRETER
                    if landing.degraded
                    else ErrorCode.FALLBACK_CPU
                ),
                message=message,
                stage=first.stage,
                pass_name=first.pass_name,
                target=self.target,
                detail={"landed": landed, "failures": len(failures)},
            )
        )
        ids = tuple(id(s) for s in self._as_tuple(spn))
        if self.fallback == "interpret" and ids in self._warned_keys:
            return
        self._warned_keys.add(ids)
        warnings.warn(message, FallbackWarning, stacklevel=3)


class CPUCompiler(_CompilerBase):
    """Compile SPN queries to (simulated-ISA) CPU kernels.

    Keyword options beyond the shared ones: ``vectorize``,
    ``vector_isa`` ("avx2" / "avx512" / "neon"), ``use_vector_library``,
    ``use_shuffle``, ``num_threads``, ``superword_factor``.
    """

    target = "cpu"


class GPUCompiler(_CompilerBase):
    """Compile SPN queries to kernels for the simulated CUDA GPU.

    Extra keyword options: ``gpu_block_size`` (defaults to the query
    batch size, as in the paper) and ``streams`` (device streams for the
    chunked transfer/compute software pipeline; 1 = serialized).
    """

    target = "gpu"

    def simulated_seconds(self, spn) -> float:
        """Simulated device time of the most recent execution for ``spn``.

        Accepts a single SPN or the same list of SPNs that was compiled
        into a multi-head kernel.
        """
        ids = tuple(id(s) for s in self._as_tuple(spn))
        result = None
        for (key_ids, _fingerprint), cached in self._cache.items():
            if key_ids == ids and cached.executable.target == "gpu":
                result = cached
                break
        if result is None:
            raise RuntimeError("compile and execute the SPN first")
        return result.executable.simulated_seconds()
