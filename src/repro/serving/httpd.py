"""Thin stdlib HTTP facade over :class:`~repro.serving.server.InferenceServer`.

Endpoints (JSON in/out, no dependencies beyond the standard library):

- ``GET /healthz`` — full health snapshot (queue depths, batch-size
  histogram, p50/p99 latency, breaker states, degraded-mode flags);
  status 200 while serving, 503 once closed.
- ``GET /models`` — registered model names and current versions.
- ``POST /v1/models/<name>:predict`` — body
  ``{"inputs": [[...], ...], "timeout_ms": 250}``; responds
  ``{"outputs": [...], "degraded": false, "model_version": 1}``.
  Optional query-modality fields: ``"query"`` ("joint" default, "mpe",
  "sample", "conditional", "expectation"), ``"query_variables"``
  (conditional), ``"moment"`` (expectation) and ``"seed"`` (sample).

Error mapping keeps the admission semantics visible to clients:
queue-full backpressure is ``429`` with a ``Retry-After`` header,
deadline expiry is ``504``, unknown models are ``404`` — a rejected
request is a *protocol answer*, never a dropped connection.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from ..diagnostics import AdmissionError, DeadlineError, ExecutionError
from ..runtime import ladder
from .admission import ModelNotFoundError
from .server import InferenceServer


class ServingHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`InferenceServer`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], inference_server: InferenceServer):
        super().__init__(address, _Handler)
        self.inference_server = inference_server


class _Handler(BaseHTTPRequestHandler):
    server: ServingHTTPServer

    # -- plumbing ----------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep the serving process quiet; stats live in /healthz

    def _send_json(self, status: int, payload: dict, headers: Optional[dict] = None):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    # -- endpoints ---------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        server = self.server.inference_server
        if self.path in ("/healthz", "/health", "/stats"):
            health = server.health()
            status = 503 if health["status"] == "closed" else 200
            self._send_json(status, health)
        elif self.path == "/models":
            self._send_json(
                200,
                {
                    name: server.registry.current(name).describe()
                    for name in server.registry.names()
                },
            )
        else:
            self._send_json(404, {"error": f"unknown path '{self.path}'"})

    def do_POST(self):  # noqa: N802 - stdlib naming
        prefix, sep, action = self.path.partition(":")
        if not (prefix.startswith("/v1/models/") and action == "predict"):
            self._send_json(404, {"error": f"unknown path '{self.path}'"})
            return
        name = prefix[len("/v1/models/") :]
        try:
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length) or b"{}")
            inputs = np.asarray(request["inputs"], dtype=np.float64)
            timeout_ms = request.get("timeout_ms")
            timeout_s = None if timeout_ms is None else float(timeout_ms) / 1e3
            query = str(request.get("query", "joint"))
            query_variables = request.get("query_variables", ())
            moment = int(request.get("moment", 1))
            seed = int(request.get("seed", 0))
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": f"bad request: {error}"})
            return
        server = self.server.inference_server
        try:
            future = server.submit(
                name,
                inputs,
                timeout_s=timeout_s,
                query=query,
                query_variables=query_variables,
                moment=moment,
                seed=seed,
            )
            result = future.result()
        except ModelNotFoundError as error:
            self._send_json(404, {"error": str(error)})
        except AdmissionError as error:
            self._send_json(
                429,
                {"error": str(error), "retry_after_s": error.retry_after_s},
                headers={"Retry-After": f"{error.retry_after_s:.3f}"},
            )
        except DeadlineError as error:
            self._send_json(504, {"error": str(error)})
        except ValueError as error:
            self._send_json(400, {"error": str(error)})
        except ExecutionError as error:
            if ladder.is_caller_error(error):
                # NaN on a conditional query variable: the client's bug
                # (a protocol answer), not a server failure.
                self._send_json(400, {"error": str(error)})
            else:
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
        except Exception as error:  # every degradation rung failed
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            self._send_json(
                200,
                {
                    "outputs": np.asarray(result.values).tolist(),
                    "degraded": result.degraded,
                    "model_version": result.model_version,
                    "latency_ms": result.latency_s * 1e3,
                    "query": result.query,
                },
            )


def serve_http(
    server: InferenceServer, host: str = "127.0.0.1", port: int = 8080
) -> ServingHTTPServer:
    """Start the HTTP facade on a background thread; returns the bound
    :class:`ServingHTTPServer` (``.server_address`` has the real port —
    pass ``port=0`` to let the OS pick one)."""
    httpd = ServingHTTPServer((host, port), server)
    thread = threading.Thread(
        target=httpd.serve_forever, name="serving-http", daemon=True
    )
    thread.start()
    return httpd
