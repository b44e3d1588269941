"""Serving-daemon latency benchmarks (not paper figures).

Times the ``repro serve`` request path over real loopback HTTP: the
cold first request (process state empty — artifacts, analyses, and
decode tables all built on demand) against warm repeats that reuse the
daemon's process state.  The cold-vs-warm ratio *is* the subsystem's
reason to exist, so it is tracked in
``benchmarks/results/BENCH_serve.json`` alongside the warm p50 and
request throughput, and the ``*_per_sec`` key feeds the performance
trajectory gate.  The urllib figures open a new connection per request;
``serve_keepalive_warm_p50_seconds`` reuses one connection, as HTTP
clients that keep connections alive do.
"""

import http.client
import json
import os
import pathlib
import threading
import time
import urllib.request

import pytest

from conftest import bench_scale
from repro.exec import artifact_cache
from repro.serve.app import ServeApp
from repro.serve.daemon import build_server

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Warm requests measured after the cold one.
WARM_ROUNDS = 20

_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def serve_report():
    yield
    if not _RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    report = {
        "schema": 1,
        "cpu_count": os.cpu_count(),
        "scale": bench_scale(),
        "warm_rounds": WARM_ROUNDS,
        **{name: value for name, value in sorted(_RESULTS.items())},
    }
    path = RESULTS_DIR / "BENCH_serve.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[bench] serve timings written to {path}")


@pytest.fixture(scope="module")
def server():
    """A live daemon with genuinely cold process state.

    The disk artifact cache is disabled so "cold" measures the full
    build (trace, profile, analysis), and the warm numbers isolate the
    daemon's in-process state — which is the subsystem under test.
    """
    from repro.experiments import runner

    runner.clear_cache()
    artifact_cache.set_disabled(True)
    srv = build_server(("127.0.0.1", 0), ServeApp())
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        artifact_cache.set_disabled(None)


def _compile_body():
    return json.dumps({
        "benchmark": "gzip", "scale": bench_scale(),
    }).encode("utf-8")


def _post_compile(srv):
    host, port = srv.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/compile", data=_compile_body(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
        return response.read()


def test_cold_then_warm_compile_latency(server, benchmark):
    started = time.perf_counter()
    cold_body = _post_compile(server)
    cold_seconds = time.perf_counter() - started
    assert cold_body

    benchmark.pedantic(
        lambda: _post_compile(server),
        rounds=WARM_ROUNDS, iterations=1,
    )
    stats = benchmark.stats.stats
    p50 = stats.median
    _RESULTS["serve_cold_first_request_seconds"] = cold_seconds
    _RESULTS["serve_warm_p50_seconds"] = p50
    _RESULTS["serve_warm_requests_per_sec"] = 1.0 / stats.mean
    _RESULTS["serve_cold_vs_warm_speedup"] = cold_seconds / p50
    # The cold/warm gap is what holding warm process state buys; a
    # conservative floor so a cache regression trips CI loudly.
    assert cold_seconds / p50 > 2.0


def test_keepalive_warm_compile_latency(server, benchmark):
    """Warm compiles over one keep-alive ``http.client`` connection.

    A per-response stall on a reused socket (such as Nagle's algorithm
    waiting on the client's delayed ACK) shows only here: the urllib
    figures above reconnect for every request.
    """
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    body = _compile_body()

    def post():
        conn.request("POST", "/v1/compile", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        return response.read()

    try:
        post()  # connect, and warm the daemon if run on its own
        benchmark.pedantic(post, rounds=WARM_ROUNDS, iterations=1)
    finally:
        conn.close()
    _RESULTS["serve_keepalive_warm_p50_seconds"] = \
        benchmark.stats.stats.median


def test_traced_warm_compile_latency(tmp_path_factory, benchmark):
    """Warm throughput with per-request tracing *enabled*.

    Tracked separately from ``serve_warm_requests_per_sec`` (which
    stays tracing-off, guarding the "disabled tracing is free"
    contract): this key prices the span spool fsync-free appends and
    context bookkeeping a traced request pays.
    """
    trace_dir = tmp_path_factory.mktemp("serve-trace")
    srv = build_server(("127.0.0.1", 0),
                       ServeApp(trace_dir=str(trace_dir)))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        _post_compile(srv)  # warm up
        benchmark.pedantic(
            lambda: _post_compile(srv),
            rounds=WARM_ROUNDS, iterations=1,
        )
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    stats = benchmark.stats.stats
    _RESULTS["serve_traced_warm_requests_per_sec"] = 1.0 / stats.mean
