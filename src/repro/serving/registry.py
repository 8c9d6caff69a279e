"""Versioned registry of compiled models with drain-before-unload.

Each published model becomes a :class:`ModelVersion`: the compiled
kernel plus its SPN (for the reference rung of the degradation ladder), an
auto-incrementing version number and the compiled artifact's identity —
``CompilerOptions.cache_fingerprint()`` — so two versions compiled from
identical configurations are recognizably the same kernel.

Hot swap is lease-based: execution paths :meth:`~ModelRegistry.acquire`
the current version (taking a lease) and release it when the batch
completes. :meth:`~ModelRegistry.swap` atomically redirects new traffic
to the new version, then the old version is *drained* — swapped out of
the routing table first, closed only after its lease count reaches
zero — so in-flight batches finish on the kernel they started on and
no request is ever dropped by a swap.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

from ..api import CPUCompiler, _CompilerBase
from ..diagnostics import (
    Diagnostic,
    DiagnosticLog,
    ErrorCode,
    Severity,
)
from ..spn.query import QUERY_KINDS, Query
from .admission import ModelNotFoundError


class ModelVersion:
    """One published (compiled) version of a named model.

    Holds the compiled joint executable (the fast path), the compiler
    that produced it (so the other query modalities — MPE, sampling,
    conditional, expectation — compile lazily on their first request,
    through the same registered pass pipeline), and the source SPN with
    its output space (what the ladder's always-correct reference rung
    evaluates, :func:`repro.runtime.ladder.reference_output`).
    """

    def __init__(
        self,
        name: str,
        version: int,
        spn,
        compilation,
        fingerprint: tuple,
        use_log_space: bool = True,
        compiler: Optional[_CompilerBase] = None,
    ):
        self.name = name
        self.version = version
        self.spn = spn
        self.compilation = compilation
        #: ``CompilerOptions.cache_fingerprint()`` of the compiled kernel.
        self.fingerprint = fingerprint
        self.use_log_space = use_log_space
        self.compiler = compiler
        self.created_at = time.time()
        self._leases = 0
        self._retired = False
        self._cond = threading.Condition()
        # Per-query-descriptor compilations, seeded with the base (joint)
        # kernel; other modalities land here on first use.
        self._compile_lock = threading.Lock()
        self._compilations: Dict[Query, object] = {}
        if compiler is not None:
            self._compilations[compiler._default_query()] = compilation

    # -- execution surface -------------------------------------------------------

    @property
    def executable(self):
        return self.compilation.executable

    @property
    def num_features(self) -> int:
        return self.executable.signature.num_features

    def query_for(
        self,
        kind: str,
        query_args: tuple = (),
        inputs: Optional[np.ndarray] = None,
    ) -> Query:
        """Build (and validate) the query descriptor for one batch.

        ``query_args`` is the canonical kind-specific parameter tuple
        (see :func:`~repro.serving.batcher.canonical_query_args`). Joint
        batches containing NaN evidence are rerouted to a
        marginal-supporting kernel, mirroring the direct-API behaviour.
        Raises ``ValueError`` for unknown kinds or invalid parameters.
        """
        if self.compiler is None:
            raise ValueError(
                "this model version was published without a compiler; "
                "only joint queries are servable"
            )
        if kind == "joint":
            query = self.compiler._default_query()
            if inputs is not None:
                query = self.compiler._query_for(inputs, query)
            return query
        cls = QUERY_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown query kind '{kind}' "
                f"(expected one of {sorted(QUERY_KINDS)})"
            )
        if kind == "conditional":
            if query_args and query_args[-1] >= self.num_features:
                raise ValueError(
                    f"conditional query variable {query_args[-1]} out of "
                    f"range for a {self.num_features}-feature model"
                )
            return cls(
                batch_size=self.compiler.batch_size, query_variables=query_args
            )
        if kind == "expectation":
            moment = query_args[0] if query_args else 1
            return cls(batch_size=self.compiler.batch_size, moment=moment)
        return cls(batch_size=self.compiler.batch_size)

    def executable_for(self, query: Optional[Query] = None):
        """The compiled executable serving ``query`` (lazily compiled).

        The base (joint) kernel is compiled at publish; the other
        modalities — and the marginal-supporting joint variant — compile
        on their first request through the compiler's single-flight
        cache, then stay resident for the life of this version.
        """
        if query is None:
            return self.executable
        with self._compile_lock:
            compilation = self._compilations.get(query)
            if compilation is None:
                compilation = self.compiler.compile(self.spn, query)
                self._compilations[query] = compilation
        return compilation.executable

    # -- lease lifecycle ---------------------------------------------------------

    @property
    def leases(self) -> int:
        with self._cond:
            return self._leases

    @property
    def retired(self) -> bool:
        with self._cond:
            return self._retired

    def _acquire(self) -> None:
        with self._cond:
            self._leases += 1

    def release(self) -> None:
        with self._cond:
            self._leases -= 1
            if self._leases <= 0:
                self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no execution holds a lease; True when drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._leases > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        """Release every compiled kernel's resources (post-drain).

        Covers the base joint kernel and any lazily compiled query
        modalities, deduplicated by identity (the compiler's cache may
        hand the same compilation back for equivalent descriptors).
        """
        with self._cond:
            self._retired = True
        with self._compile_lock:
            compilations = list(self._compilations.values())
            self._compilations.clear()
        closed = set()
        for compilation in compilations + [self.compilation]:
            executable = compilation.executable
            if id(executable) not in closed:
                closed.add(id(executable))
                executable.close()

    def describe(self) -> Dict[str, object]:
        with self._compile_lock:
            queries = sorted({query.kind for query in self._compilations})
        return {
            "name": self.name,
            "version": self.version,
            "target": self.executable.target,
            "fingerprint": repr(self.fingerprint),
            "leases": self.leases,
            "retired": self.retired,
            "created_at": self.created_at,
            "compiled_queries": queries or ["joint"],
        }


class ModelRegistry:
    """Name → current :class:`ModelVersion` routing table with hot swap."""

    def __init__(self, diagnostics: Optional[DiagnosticLog] = None):
        self._lock = threading.Lock()
        self._models: Dict[str, ModelVersion] = {}
        self._next_version: Dict[str, int] = {}
        self.diagnostics = diagnostics or DiagnosticLog()

    # -- publication -------------------------------------------------------------

    def publish(
        self,
        name: str,
        spn,
        compiler: Optional[_CompilerBase] = None,
        **compiler_options,
    ) -> ModelVersion:
        """Compile ``spn`` and make it the current version of ``name``.

        ``compiler`` may be a configured :class:`~repro.api.CPUCompiler`
        / :class:`~repro.api.GPUCompiler`; otherwise one is built from
        ``compiler_options``. Publishing over an existing name is a hot
        swap: new traffic routes to the new version immediately, and the
        previous version is returned *retired but not yet closed* — call
        :meth:`retire` (or let the server's background retirer do it) to
        drain and release it.
        """
        if compiler is None:
            compiler = CPUCompiler(**compiler_options)
        elif compiler_options:
            raise ValueError("pass either a compiler instance or options, not both")
        compilation = compiler.compile(spn)
        # The full kernel identity: CompilerOptions.cache_fingerprint()
        # plus the query configuration (batch size, marginal support, ...).
        fingerprint = compiler._fingerprint(compiler._default_query(), compiler.target)
        with self._lock:
            version_number = self._next_version.get(name, 1)
            self._next_version[name] = version_number + 1
            version = ModelVersion(
                name=name,
                version=version_number,
                spn=spn,
                compilation=compilation,
                fingerprint=fingerprint,
                use_log_space=compiler.use_log_space,
                compiler=compiler,
            )
            previous = self._models.get(name)
            self._models[name] = version
        if previous is not None:
            self.diagnostics.emit(
                Diagnostic(
                    severity=Severity.NOTE,
                    code=ErrorCode.MODEL_SWAPPED,
                    message=(
                        f"model '{name}' swapped "
                        f"v{previous.version} -> v{version_number}"
                    ),
                    detail={"previous_leases": previous.leases},
                )
            )
            version.previous = previous
        else:
            version.previous = None
        return version

    def swap(self, name: str, spn, **kwargs) -> ModelVersion:
        """Alias of :meth:`publish` that requires the name to exist."""
        with self._lock:
            if name not in self._models:
                raise ModelNotFoundError(f"cannot swap unknown model '{name}'")
        return self.publish(name, spn, **kwargs)

    @staticmethod
    def retire(version: ModelVersion, drain_timeout: Optional[float] = None) -> bool:
        """Drain-before-unload: wait out leases, then close the kernel.

        Returns False when the drain timed out (the version is left
        open; the caller may retry).
        """
        if not version.drain(drain_timeout):
            return False
        version.close()
        return True

    # -- routing -----------------------------------------------------------------

    def acquire(self, name: str) -> ModelVersion:
        """Lease the current version of ``name`` for one execution.

        Callers must :meth:`ModelVersion.release` when done (the lease
        is what makes drain-before-unload correct under swap).
        """
        with self._lock:
            version = self._models.get(name)
            if version is None:
                raise ModelNotFoundError(f"unknown model '{name}'")
            version._acquire()
            return version

    def current(self, name: str) -> ModelVersion:
        with self._lock:
            version = self._models.get(name)
        if version is None:
            raise ModelNotFoundError(f"unknown model '{name}'")
        return version

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def unload(self, name: str, drain_timeout: Optional[float] = None) -> bool:
        """Remove ``name`` from routing, drain it and close its kernel."""
        with self._lock:
            version = self._models.pop(name, None)
        if version is None:
            raise ModelNotFoundError(f"unknown model '{name}'")
        return self.retire(version, drain_timeout)

    def close(self, drain_timeout: Optional[float] = None) -> None:
        """Unload every model (used by server shutdown)."""
        with self._lock:
            versions = list(self._models.values())
            self._models.clear()
        for version in versions:
            self.retire(version, drain_timeout)
