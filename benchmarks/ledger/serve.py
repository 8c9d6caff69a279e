"""``serve_poisson``: the serving runtime under an open and a closed loop.

An ``InferenceServer`` with default settings (``max_batch=1024``,
``max_wait_us=2000``, one worker, ``kernel_threads=1``) serves speaker
model 0, published from its serialized bytes. Phase A is an open loop
(Poisson, 2000 req/s, single rows, latency from the due time) and gives
the latency metrics; phase B is a closed loop (256 outstanding single
rows) and gives ``rows_per_s``. The generator and the server share one
interpreter, so ``submit``'s own cost caps the offered load.
"""

from __future__ import annotations

import gc
import http.client
import json
import statistics
import time
from collections import Counter
from typing import Dict

import numpy as np

from repro.serving import InferenceServer, serve_http
from repro.spn.serialization import deserialize

from . import fixtures, harness, loadgen, spec
from .harness import CompileSample, Result, Run

MODEL = "speaker0"
POOL_ROWS = 8192
#: Cold publishes per run; ``compile_s`` is their median.
PUBLISHES = 15
#: Share of ``--seconds`` given to the open loop; the rest is closed loop.
OPEN_SHARE = 0.6
#: Phase B throughput is the median over slices of this length.
SLICE_S = 0.5


def cold_publish(run: Run, fixture, number: int):
    """Bytes in, first verified served row out, on a fresh server."""
    tracer = run.tracer
    op = f"publish-{number}"
    gc.collect()
    server = InferenceServer()
    start = time.perf_counter()
    with tracer.span("compile", op=op, model=MODEL):
        with tracer.span("serialization.deserialize", op=op):
            root, _ = deserialize(fixture.payloads[0])
        deserialized = time.perf_counter()
        with tracer.span("registry.publish", op=op) as span:
            publish_start = time.perf_counter()
            version = server.publish(MODEL, root)
            published = time.perf_counter()
        harness.add_pass_spans(
            tracer, span, op, publish_start, version.compilation.timings.records
        )
        with tracer.span("server.first_infer", op=op):
            first = server.infer(MODEL, fixture.inputs[0])
    seconds = time.perf_counter() - start
    sample = CompileSample(
        model=0,
        seconds=seconds,
        deserialize_s=deserialized - start,
        compile_spn_s=published - publish_start,
        compilation=version.compilation,
        mismatched=fixtures.mismatches(
            np.reshape(first, (1,)), fixture.references[0][:1]
        ),
    )
    return server, sample


def check_requests(load: loadgen.LoadResult, reference: np.ndarray, pool: int):
    """Per request: did it complete, undegraded, within the limit, with
    the reference value of its row? Returns the ok mask."""
    rows = np.arange(len(load.status)) % pool
    close = fixtures.within_tolerance(load.value, reference[rows])
    with np.errstate(invalid="ignore"):
        in_time = (load.done - load.due) <= spec.REQUEST_LIMIT_S
    return (load.status == loadgen.OK) & close & in_time


def batch_stats(before: dict, after: dict, seconds: float) -> Dict[str, float]:
    """Batches formed between two ``health()`` snapshots of one model."""
    sizes = Counter(after["batch_size_histogram"])
    sizes.subtract(before["batch_size_histogram"])
    rows = sorted(sizes.elements())
    batches = after["batches"] - before["batches"]
    return {
        "batcher.batches_per_s": batches / seconds,
        "batcher.batch_rows_mean": statistics.mean(rows) if rows else 0.0,
        "batcher.batch_rows_p95": harness.percentile(rows, 95) if rows else 0.0,
    }


def probe_http(run: Run, server, fixture, posts: int) -> float:
    """Sequential ``POST :predict`` round trips against the stdlib HTTP
    facade minus the same rows through in-process ``infer`` (p50 of
    each, ms): the facade's own cost. 0 if no socket can be bound."""
    try:
        httpd = serve_http(server, port=0)
    except OSError:
        return 0.0
    try:
        connection = http.client.HTTPConnection(*httpd.server_address[:2], timeout=10)
        bodies = [
            json.dumps({"inputs": [fixture.inputs[i].tolist()], "timeout_ms": 1000})
            for i in range(posts)
        ]
        over_http, in_process = [], []
        with run.tracer.span("httpd.round_trips", posts=posts):
            for index, body in enumerate(bodies):
                start = time.perf_counter()
                connection.request(
                    "POST",
                    f"/v1/models/{MODEL}:predict",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                reply = json.loads(connection.getresponse().read())
                over_http.append(time.perf_counter() - start)
                if fixtures.mismatches(
                    reply["outputs"], fixture.references[0][index : index + 1]
                ):
                    raise AssertionError("HTTP reply disagrees with the reference")
        connection.close()
        for index in range(posts):
            start = time.perf_counter()
            server.infer(MODEL, fixture.inputs[index])
            in_process.append(time.perf_counter() - start)
    finally:
        httpd.shutdown()
        httpd.server_close()
    return (statistics.median(over_http) - statistics.median(in_process)) * 1e3


def run_serve(run: Run) -> Result:
    result = Result()
    tracer = run.tracer
    fixture, setup_s = harness.timed_setups(
        run, lambda: fixtures.set_up((MODEL,), POOL_ROWS, run.seed)
    )
    result.end_to_end["setup_s"] = setup_s
    inputs, reference = fixture.inputs, fixture.references[0]
    harness.warm_up_compiler()

    samples = []
    server = None
    for number in range(1 if run.smoke else PUBLISHES):
        if server is not None:
            server.close()
        server, sample = cold_publish(run, fixture, number)
        samples.append(sample)
    result.count("compile", len(samples), sum(1 for s in samples if s.mismatched))

    def submit(index):
        return server.submit(
            MODEL, inputs[index % POOL_ROWS], timeout_s=spec.REQUEST_LIMIT_S
        )

    try:
        gc.collect()
        gc.freeze()
        seconds = run.seconds * (0.5 if run.trace else 1.0)
        # The host probe is read around the loops only: inside them it
        # would contend with the server's worker.
        run.probe.read()
        health_before = server.health()["models"][MODEL]
        with tracer.span("loadgen.open_loop", rate=spec.OPEN_LOOP_RATE):
            phase_a = loadgen.open_loop(
                submit, spec.OPEN_LOOP_RATE, seconds * OPEN_SHARE, run.seed
            )
        health_a = server.health()["models"][MODEL]
        run.probe.read()
        with tracer.span("loadgen.closed_loop", clients=spec.CLOSED_LOOP_CLIENTS):
            phase_b = loadgen.closed_loop(
                submit, spec.CLOSED_LOOP_CLIENTS, seconds * (1.0 - OPEN_SHARE)
            )
        health_b = server.health()["models"][MODEL]
        run.probe.read()

        ok_a = check_requests(phase_a, reference, POOL_ROWS)
        ok_b = check_requests(phase_b, reference, POOL_ROWS)
        result.count("open_loop", len(ok_a), int(np.count_nonzero(~ok_a)))
        result.count("closed_loop", len(ok_b), int(np.count_nonzero(~ok_b)))
        if not ok_a.any() or not ok_b.any():
            raise RuntimeError("no served request passed the check")
        harness.latency_metrics(result, (phase_a.done - phase_a.due)[ok_a])
        # Verified rows per second in the median half-second of phase B
        # (a median, for the same reason as in the batch workloads).
        window = seconds * (1.0 - OPEN_SHARE)
        slices = max(1, int(window / SLICE_S))
        per_slice = np.bincount(
            ((phase_b.done[ok_b] - phase_b.start) / SLICE_S).astype(int),
            minlength=slices,
        )[:slices]
        result.end_to_end["rows_per_s"] = float(np.median(per_slice)) / SLICE_S
        result.samples["rows_per_s"] = int(per_slice.sum())
        harness.compile_seconds(result, [[s] for s in samples])
        result.end_to_end["peak_rss_mb"] = harness.peak_rss_mb()

        if run.trace:
            for index in range(min(len(ok_a), 2000)):
                op = f"request-{index}"
                parent = tracer.add(
                    "request", phase_a.due[index], phase_a.done[index], op=op,
                    ok=bool(ok_a[index]),
                )
                tracer.add(
                    "server.submit", phase_a.sent[index], phase_a.submitted[index],
                    parent=parent, op=op,
                )
            layer = result.per_layer
            layer.update(harness.pass_metrics(samples, fixture.payloads))
            layer["registry.publish_s"] = statistics.median(
                s.compile_spn_s for s in samples
            )
            layer["server.submit_us_p50"] = (
                statistics.median(phase_a.submitted - phase_a.sent) * 1e6
            )
            layer["loadgen.late_ms_p99"] = (
                harness.percentile(phase_a.sent - phase_a.due, 99) * 1e3
            )
            layer["server.reported_latency_ms_p50"] = (
                float(np.median(phase_a.reported_s[ok_a])) * 1e3
            )
            layer.update(batch_stats(health_before, health_a, seconds * OPEN_SHARE))
            layer["admission.rejected"] = float(health_b["outcomes"]["rejected"])
            layer["admission.expired"] = float(health_b["outcomes"]["expired"])
            layer["server.retries"] = float(health_b["retries"])
            layer["server.degraded"] = float(health_b["degraded"])
            layer["server.lost"] = float(health_b["lost"])
            layer["httpd.roundtrip_ms_p50"] = probe_http(
                run, server, fixture, posts=20 if run.smoke else 200
            )
            executable = server.registry.current(MODEL).executable
            timed = harness.pick_timed([executable], inputs[:1024])
            layer.update(harness.amdahl_split(timed, [executable], inputs, 1024))
            pool = executable.buffer_pool
            layer["bufferpool.retained_mb"] = pool.retained_bytes / 2**20
            layer["baseline.reference_rows_per_s"] = fixture.reference_rows_per_s
            # Request spans are built from timestamps both kinds of run
            # record anyway, so tracing adds nothing to the timed path.
            layer["trace.overhead_share"] = 0.0
            layer.update(run.probe.metrics())
    finally:
        server.close()
    return result
