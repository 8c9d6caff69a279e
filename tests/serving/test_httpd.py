"""HTTP facade: JSON endpoints and admission error mapping."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import InferenceServer, ServerConfig
from repro.serving.httpd import serve_http
from repro.spn import log_likelihood

from ..conftest import make_gaussian_spn


@pytest.fixture
def endpoint():
    server = InferenceServer(
        config=ServerConfig(max_batch=32, max_wait_us=500, queue_capacity=32)
    )
    server.publish("m", make_gaussian_spn(), batch_size=16)
    httpd = serve_http(server, port=0)
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}", server
    httpd.shutdown()
    httpd.server_close()
    server.close()


def _open(request):
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        error.close()  # release the connection; callers only read .code
        raise


def _get(url):
    return _open(url)


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    return _open(request)


class TestEndpoints:
    def test_healthz(self, endpoint):
        base, _ = endpoint
        status, health = _get(f"{base}/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert "m" in health["models"]
        assert health["batch_policy"]["max_batch"] == 32

    def test_models_listing(self, endpoint):
        base, _ = endpoint
        status, models = _get(f"{base}/models")
        assert status == 200
        assert models["m"]["version"] == 1

    def test_predict_roundtrip(self, endpoint, rng):
        base, _ = endpoint
        inputs = rng.normal(size=(3, 2))
        status, body = _post(
            f"{base}/v1/models/m:predict",
            {"inputs": inputs.tolist(), "timeout_ms": 5000},
        )
        assert status == 200
        assert body["degraded"] is False
        assert body["model_version"] == 1
        reference = log_likelihood(make_gaussian_spn(), inputs)
        np.testing.assert_allclose(body["outputs"], reference, atol=1e-5, rtol=1e-5)

    def test_unknown_model_404(self, endpoint, rng):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/v1/models/ghost:predict", {"inputs": [[0.0, 0.0]]})
        assert excinfo.value.code == 404

    def test_malformed_body_400(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/v1/models/m:predict", {"wrong_key": 1})
        assert excinfo.value.code == 400

    def test_unknown_path_404(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/nope")
        assert excinfo.value.code == 404

    def test_infeasible_deadline_504(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                f"{base}/v1/models/m:predict",
                {"inputs": [[0.0, 0.0]], "timeout_ms": 0},
            )
        assert excinfo.value.code == 504

    def test_health_reports_closed_as_503(self, endpoint):
        base, server = endpoint
        server.close()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/healthz")
        assert excinfo.value.code == 503


class TestQueryModalities:
    def test_predict_mpe(self, endpoint, rng):
        base, _ = endpoint
        inputs = rng.normal(size=(3, 2))
        inputs[0, 0] = float("nan")
        payload = {
            "inputs": [[None if np.isnan(v) else v for v in row] for row in inputs],
            "query": "mpe",
            "timeout_ms": 5000,
        }
        status, body = _post(f"{base}/v1/models/m:predict", payload)
        assert status == 200
        assert body["query"] == "mpe"
        outputs = np.asarray(body["outputs"], dtype=np.float64)
        # Rows: [score; completions.T] — the NaN hole was completed.
        assert outputs.shape == (3, 3)
        assert np.isfinite(outputs[1, 0])

    def test_predict_conditional(self, endpoint, rng):
        from repro.spn import inference

        base, _ = endpoint
        inputs = rng.normal(size=(3, 2))
        status, body = _post(
            f"{base}/v1/models/m:predict",
            {
                "inputs": inputs.tolist(),
                "query": "conditional",
                "query_variables": [1],
                "timeout_ms": 5000,
            },
        )
        assert status == 200
        assert body["query"] == "conditional"
        reference = inference.conditional_log_likelihood(
            make_gaussian_spn(), inputs, (1,)
        )
        np.testing.assert_allclose(body["outputs"], reference, atol=1e-5, rtol=2e-4)

    def test_predict_sample_seeded(self, endpoint):
        base, _ = endpoint
        payload = {
            "inputs": [[None, None]] * 2,
            "query": "sample",
            "seed": 9,
            "timeout_ms": 5000,
        }
        _, first = _post(f"{base}/v1/models/m:predict", payload)
        _, second = _post(f"{base}/v1/models/m:predict", payload)
        assert first["outputs"] == second["outputs"]

    def test_query_nan_is_400(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                f"{base}/v1/models/m:predict",
                {
                    "inputs": [[0.0, None]],
                    "query": "conditional",
                    "query_variables": [1],
                    "timeout_ms": 5000,
                },
            )
        assert excinfo.value.code == 400

    def test_unknown_query_kind_is_400(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                f"{base}/v1/models/m:predict",
                {"inputs": [[0.0, 0.0]], "query": "bogus"},
            )
        assert excinfo.value.code == 400
