"""The serving daemon: byte-identity with the CLIs, single-flight
coalescing, the HTTP surface, request validation, and graceful
shutdown."""

import contextlib
import http.client
import io
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import __main__ as repro_main
from repro.campaign.spec import DEFAULT_CELL, content_hash, run_cell
from repro.obs.context import telemetry
from repro.obs.explain import load_schema, validate_explain
from repro.obs.jsonl import JsonlSink
from repro.serve.app import ServeApp, SingleFlight
from repro.serve.daemon import RequestHandler, build_server

SCALE = 0.1
BENCH = "gzip"


def _cli_stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = repro_main.main(argv)
    assert status == 0
    return buffer.getvalue()


@pytest.fixture
def app():
    application = ServeApp()
    with telemetry(metrics=application.registry):
        yield application


@pytest.fixture
def server(app):
    srv = build_server(("127.0.0.1", 0), app)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _connect(srv):
    """One keep-alive ``http.client`` connection to ``srv``."""
    host, port = srv.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10)


def _fetch(conn, method, path, body=None):
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


class TestByteIdentity:
    def test_compile_matches_cli(self, app):
        status, body = app.handle("compile", {
            "benchmark": BENCH, "scale": SCALE,
            "config": "all-best-heur",
        })
        assert status == 200
        cli = _cli_stdout(["compile", "--benchmark", BENCH,
                           "--scale", str(SCALE),
                           "--config", "all-best-heur"])
        assert body == cli.encode("utf-8")

    def test_compile_pipeline_spelling_matches_cli(self, app):
        spec = "exact,freq,short,ret,loop,cost:edge"
        status, body = app.handle("compile", {
            "benchmark": BENCH, "scale": SCALE, "pipeline": spec,
        })
        assert status == 200
        cli = _cli_stdout(["compile", "--benchmark", BENCH,
                           "--scale", str(SCALE), "--pipeline", spec])
        assert body == cli.encode("utf-8")

    def test_explain_matches_cli_json(self, app):
        status, body = app.handle("explain", {
            "workload": BENCH, "scale": SCALE,
            "config": "All-best-cost",  # CLI is case-insensitive
        })
        assert status == 200
        cli = _cli_stdout(["explain", BENCH, "--scale", str(SCALE),
                           "--config", "All-best-cost", "--json"])
        assert body == cli.encode("utf-8")

    def test_simulate_matches_campaign_cell(self, app):
        status, body = app.handle("simulate", {
            "benchmark": BENCH, "scale": SCALE,
            "selection": "all-best-heur",
        })
        assert status == 200
        data = json.loads(body)
        params = {
            "benchmark": BENCH, "input_set": "reduced",
            "scale": SCALE, "selection": "all-best-heur",
            "thresholds": {}, "processor": {}, "cell": DEFAULT_CELL,
        }
        assert data["cell_id"] == content_hash(params)
        expected = run_cell(params)
        expected.pop("ledger", None)
        assert data["result"] == expected

    def test_simulate_response_matches_pinned_schema(self, app):
        status, body = app.handle("simulate", {
            "benchmark": BENCH, "scale": SCALE,
        })
        assert status == 200
        assert validate_explain(
            json.loads(body), load_schema("simulate")) == []


class TestValidation:
    def test_unknown_fields_are_rejected(self, app):
        status, body = app.handle("simulate", {
            "benchmark": BENCH, "scale": SCALE, "bogus": 1,
        })
        assert status == 400
        assert "bogus" in json.loads(body)["error"]

    @pytest.mark.parametrize("field", ["bogus", "sim_engine"])
    def test_unknown_processor_field_is_a_client_error(self, app, field):
        status, body = app.handle("simulate", {
            "benchmark": BENCH, "scale": SCALE,
            "processor": {field: 1},
        })
        assert status == 400
        error = json.loads(body)["error"]
        assert f"unknown processor fields: {field}" in error

    @pytest.mark.parametrize("endpoint,key", [
        ("compile", "benchmark"), ("simulate", "benchmark"),
        ("explain", "workload"),
    ])
    def test_non_resident_processor_is_a_client_error(self, app,
                                                      endpoint, key):
        """A 1 KB direct-mapped I-cache cannot hold the program: the
        simulator rejects it (simulate), and only simulate takes a
        processor at all."""
        status, body = app.handle(endpoint, {
            key: BENCH, "scale": SCALE,
            "processor": {"icache_kb": 1, "icache_assoc": 1},
        })
        assert status == 400
        error = json.loads(body)["error"]
        if endpoint == "simulate":
            assert "I-cache residency" in error
        else:
            assert "unknown field(s) processor" in error

    def test_missing_benchmark_is_rejected(self, app):
        status, body = app.handle("compile", {"scale": SCALE})
        assert status == 400
        assert "benchmark" in json.loads(body)["error"]

    def test_unknown_benchmark_is_a_client_error(self, app):
        status, body = app.handle("compile", {
            "benchmark": "no-such-benchmark", "scale": SCALE,
        })
        assert status == 400

    @pytest.mark.parametrize("scale", [
        "inf", "-inf", "nan", -1, 0, True, False, "big", None, [0.3],
    ])
    @pytest.mark.parametrize("endpoint,key", [
        ("compile", "benchmark"), ("simulate", "benchmark"),
        ("explain", "workload"),
    ])
    def test_bad_scale_is_a_client_error(self, app, endpoint, key, scale):
        status, body = app.handle(endpoint, {key: BENCH, "scale": scale})
        assert status == 400
        assert "scale" in json.loads(body)["error"]

    def test_config_and_pipeline_conflict(self, app):
        status, body = app.handle("compile", {
            "benchmark": BENCH, "config": "all-best-heur",
            "pipeline": "exact",
        })
        assert status == 400

    def test_unknown_endpoint_is_404(self, app):
        status, _ = app.handle("transmogrify", {})
        assert status == 404

    def test_errors_are_counted(self, app):
        app.handle("compile", {"scale": SCALE})
        assert app.registry.get("serve_errors_total").value >= 1


class TestSingleFlight:
    def test_concurrent_identical_calls_coalesce(self):
        flight = SingleFlight()
        release = threading.Event()
        entered = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            entered.set()
            release.wait(timeout=5)
            return b"payload"

        outcomes = []

        def leader():
            outcomes.append(flight.do("k", compute))

        def follower():
            entered.wait(timeout=5)
            outcomes.append(flight.do("k", compute))

        threads = [threading.Thread(target=leader)]
        threads += [threading.Thread(target=follower)
                    for _ in range(3)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=5)
        time.sleep(0.05)  # let the followers park on the event
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(calls) == 1
        assert sorted(c for _, c in outcomes) == [False, True, True, True]
        assert all(result == b"payload" for result, _ in outcomes)

    def test_leader_error_propagates_to_followers(self):
        flight = SingleFlight()
        entered = threading.Event()
        release = threading.Event()

        def compute():
            entered.set()
            release.wait(timeout=5)
            raise RuntimeError("boom")

        errors = []

        def leader():
            try:
                flight.do("k", compute)
            except RuntimeError as exc:
                errors.append(str(exc))

        def follower():
            entered.wait(timeout=5)
            try:
                flight.do("k", compute)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=leader),
                   threading.Thread(target=follower)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=5)
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert errors == ["boom", "boom"]

    def test_sequential_calls_do_not_coalesce(self):
        flight = SingleFlight()
        _, coalesced_first = flight.do("k", lambda: 1)
        _, coalesced_second = flight.do("k", lambda: 2)
        assert not coalesced_first
        assert not coalesced_second

    def test_coalesced_requests_increment_the_counter(
            self, app, monkeypatch):
        entered = threading.Event()
        release = threading.Event()

        def slow_simulate(params, cell_id):
            entered.set()
            release.wait(timeout=5)
            return b"{}\n"

        monkeypatch.setattr(
            "repro.serve.app._simulate_bytes", slow_simulate
        )
        body = {"benchmark": BENCH, "scale": SCALE}
        results = []

        def request():
            results.append(app.handle("simulate", dict(body)))

        leader = threading.Thread(target=request)
        leader.start()
        entered.wait(timeout=5)
        follower = threading.Thread(target=request)
        follower.start()
        time.sleep(0.05)
        release.set()
        leader.join(timeout=5)
        follower.join(timeout=5)
        assert [status for status, _ in results] == [200, 200]
        assert results[0][1] == results[1][1]
        assert app.registry.get("serve_coalesced_total").value == 1
        assert app.registry.get("serve_requests_total").value == 2


class TestHTTP:
    def _url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def _post(self, server, endpoint, body):
        request = urllib.request.Request(
            self._url(server, f"/v1/{endpoint}"),
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def test_compile_over_http_matches_cli(self, server):
        status, body = self._post(server, "compile", {
            "benchmark": BENCH, "scale": SCALE,
        })
        assert status == 200
        cli = _cli_stdout(["compile", "--benchmark", BENCH,
                           "--scale", str(SCALE)])
        assert body == cli.encode("utf-8")

    def test_healthz_reports_warm_state(self, server):
        with urllib.request.urlopen(
                self._url(server, "/healthz")) as response:
            assert response.status == 200
            data = json.loads(response.read())
        assert data["status"] == "ok"
        assert "entries" in data["analysis_cache"]
        assert "entries" in data["artifact_cache"]

    def test_metrics_renders_openmetrics(self, server):
        self._post(server, "compile", {
            "benchmark": BENCH, "scale": SCALE,
        })
        with urllib.request.urlopen(
                self._url(server, "/metrics")) as response:
            assert response.status == 200
            text = response.read().decode("utf-8")
        assert "serve_requests_total" in text
        assert "serve_compile_latency_seconds_count" in text
        assert text.endswith("# EOF\n")

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            self._url(server, "/v1/simulate"),
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(self._url(server, "/nope"))
        assert excinfo.value.code == 404


class TestWarmState:
    """What the daemon's process state buys: a repeated request
    recomputes nothing (the per-test disk cache starts empty)."""

    def test_repeat_compile_runs_no_emulation_or_analysis(self, server,
                                                          app):
        counters = ("emulator_runs_total", "analysis_cache_misses_total")

        def snapshot():
            return {name: app.registry.counter(name).value
                    for name in counters}

        conn = _connect(server)
        body = json.dumps({"benchmark": BENCH, "scale": SCALE})
        cold = _fetch(conn, "POST", "/v1/compile", body)
        after_cold = snapshot()
        warm = _fetch(conn, "POST", "/v1/compile", body)
        conn.close()
        assert cold[0] == 200 and warm == cold
        assert after_cold["emulator_runs_total"] == 1
        assert after_cold["analysis_cache_misses_total"] > 0
        assert snapshot() == after_cold


class TestKeepAlive:
    """Responses on a reused connection do not wait on delayed ACKs."""

    def test_each_response_is_one_write_with_nodelay(self, server,
                                                     monkeypatch):
        writes, nodelay = [], []
        setup = RequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            write = handler.wfile.write
            handler.wfile.write = \
                lambda data: writes.append(bytes(data)) or write(data)

        monkeypatch.setattr(RequestHandler, "setup", recording_setup)
        conn = _connect(server)
        compile_body = json.dumps({"benchmark": BENCH, "scale": SCALE})
        bodies = [
            _fetch(conn, "GET", "/healthz")[1],
            _fetch(conn, "POST", "/v1/compile", compile_body)[1],
            _fetch(conn, "GET", "/nope")[1],
            _fetch(conn, "POST", "/v1/simulate", "{not json")[1],
        ]
        conn.close()
        assert nodelay and all(nodelay)
        assert len(writes) == len(bodies)
        for write, body in zip(writes, bodies):
            assert write.startswith(b"HTTP/1.1 ")
            assert write.endswith(b"\r\n\r\n" + body)

    def test_keepalive_requests_do_not_stall(self, server):
        # A delayed-ACK stall is a fixed timer of 40 ms or more per
        # response, so even a loaded machine stays far below 20 ms.
        conn = _connect(server)
        _fetch(conn, "GET", "/healthz")
        sock = conn.sock
        latencies = []
        for _ in range(20):
            started = time.perf_counter()
            status, _ = _fetch(conn, "GET", "/healthz")
            latencies.append(time.perf_counter() - started)
            assert status == 200
        assert conn.sock is sock  # every request reused the connection
        conn.close()
        assert statistics.median(latencies) < 0.020


class TestDrain:
    """``server_close`` ends keep-alive connections but not requests."""

    @staticmethod
    def _close_in_background(srv):
        srv.shutdown()
        closer = threading.Thread(target=srv.server_close, daemon=True)
        closer.start()
        return closer

    def test_idle_connection_does_not_hang_the_drain(self, server):
        conn = _connect(server)
        assert _fetch(conn, "GET", "/healthz")[0] == 200
        closer = self._close_in_background(server)
        closer.join(timeout=5)
        assert not closer.is_alive(), "drain blocked on an idle connection"
        assert conn.sock.recv(1) == b""  # the server closed it
        conn.close()

    def test_drain_after_many_concurrent_connections(self, server):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            conns = [_connect(server) for _ in range(8)]
            statuses = []

            def client(conn):
                for _ in range(5):
                    statuses.append(_fetch(conn, "GET", "/healthz")[0])

            threads = [threading.Thread(target=client, args=(conn,))
                       for conn in conns]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert statuses == [200] * 40
            closer = self._close_in_background(server)
            closer.join(timeout=5)
            assert not closer.is_alive()
            assert server._open == set()
            for conn in conns:
                assert conn.sock.recv(1) == b""
                conn.close()
        finally:
            sys.setswitchinterval(previous)

    def test_in_flight_request_completes_then_closes(self, server, app,
                                                     monkeypatch):
        entered, release = threading.Event(), threading.Event()
        handle_request = app.handle_request

        def slow_handle_request(*args, **kwargs):
            entered.set()
            release.wait(10)
            return handle_request(*args, **kwargs)

        monkeypatch.setattr(app, "handle_request", slow_handle_request)
        conn = _connect(server)
        assert _fetch(conn, "GET", "/healthz")[0] == 200
        request = {"benchmark": BENCH, "scale": SCALE}
        result = {}

        def client():
            result["status"], result["body"] = _fetch(
                conn, "POST", "/v1/compile", json.dumps(request))

        thread = threading.Thread(target=client)
        thread.start()
        assert entered.wait(10)
        closer = self._close_in_background(server)
        time.sleep(0.2)
        assert closer.is_alive(), "drain did not wait for the request"
        release.set()
        thread.join(timeout=30)
        closer.join(timeout=5)
        assert not closer.is_alive()
        assert result["status"] == 200
        assert result["body"] == app.handle("compile", request)[1]
        assert conn.sock.recv(1) == b""  # then the server closed it
        conn.close()


class TestEngineResolution:
    """There is one simulation engine; requests cannot choose one."""

    def test_invalid_engine_is_rejected(self, app):
        status, body = app.handle("simulate", {
            "benchmark": BENCH, "scale": SCALE, "engine": "warp",
        })
        assert status == 400
        assert b"unknown field(s) engine" in body


class TestDaemonProcess:
    """End-to-end: the real process drains cleanly on SIGTERM/SIGINT."""

    @contextlib.contextmanager
    def _daemon(self, tmp_path):
        """A ``repro serve --port 0`` process and its bound port."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
            cwd=os.path.join(os.path.dirname(__file__), ".."),
        )
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line
            yield process, int(line.split("http://")[1].split()[0]
                               .rsplit(":", 1)[1])
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    @pytest.mark.parametrize("signum,expected", [
        (signal.SIGTERM, 143),
        (signal.SIGINT, 130),
    ])
    def test_graceful_shutdown(self, tmp_path, signum, expected):
        with self._daemon(tmp_path) as (process, port):
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz",
                    timeout=10) as response:
                assert response.status == 200
            process.send_signal(signum)
            stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == expected
        assert "Traceback" not in stderr
        assert "drained and stopped" in stdout

    def test_sigterm_drains_past_an_idle_keepalive_connection(
            self, tmp_path):
        with self._daemon(tmp_path) as (process, port):
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=10)
            assert _fetch(conn, "GET", "/healthz")[0] == 200
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=5)
            conn.close()
        assert process.returncode == 143
        assert "Traceback" not in stderr
        assert "[serve] drained and stopped" in stdout


class TestCacheInfoCLI:
    """Satellite: human-readable sizes and per-kind counts."""

    def test_format_size(self):
        from repro.exec.artifact_cache import format_size

        assert format_size(0) == "0 B"
        assert format_size(512) == "512 B"
        assert format_size(2048) == "2.0 KiB"
        assert format_size(3 * 1024 * 1024) == "3.0 MiB"
        assert format_size(5 * 1024 ** 3) == "5.0 GiB"

    def test_info_reports_kinds(self, tmp_path, monkeypatch):
        from repro.exec import artifact_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "aa.dmpart").write_bytes(b"x" * 100)
        (tmp_path / "bb.dmpart").write_bytes(b"x" * 50)
        (tmp_path / "cc.dmpart.tmp").write_bytes(b"x" * 10)
        info = artifact_cache.info()
        # The stable machine-readable contract.
        assert info["entries"] == 2
        assert info["bytes"] == 150
        assert info["kinds"]["artifact"] == {"entries": 2, "bytes": 150}
        assert info["kinds"]["tmp"] == {"entries": 1, "bytes": 10}

    def test_cache_info_cli_renders_human_sizes(self, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "aa.dmpart").write_bytes(b"x" * 4096)
        assert repro_main.main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "4,096 bytes (4.0 KiB)" in out
        assert "artifact: 1 entries, 4.0 KiB" in out


class TestServeTracing:
    """Tentpole: per-request distributed tracing in the daemon."""

    @pytest.fixture
    def traced_app(self, tmp_path):
        application = ServeApp(trace_dir=str(tmp_path / "trace"))
        with telemetry(metrics=application.registry):
            yield application

    def test_meta_carries_a_fresh_trace_identity(self, traced_app):
        from repro.obs.tracectx import parse_traceparent

        status, _body, meta = traced_app.handle_request(
            "simulate", {"benchmark": BENCH, "scale": SCALE})
        assert status == 200
        assert meta["trace_id"] and len(meta["trace_id"]) == 32
        trace_id, span_id = parse_traceparent(meta["traceparent"])
        assert trace_id == meta["trace_id"]
        assert span_id is not None

    def test_request_yields_one_parented_timeline(self, traced_app):
        from repro.obs import traceview

        status, _body, meta = traced_app.handle_request(
            "simulate", {"benchmark": BENCH, "scale": SCALE})
        assert status == 200
        data = traceview.build_timeline(
            traced_app.trace_dir, meta["trace_id"])
        assert data["orphans"] == []
        assert len(data["roots"]) == 1
        names = {span["name"] for span in data["spans"]}
        assert "serve.simulate" in names
        assert validate_explain(data, load_schema("trace")) == []
        # per-span self time sums back to the request wall time
        total_self = sum(
            span["derived_self_seconds"] for span in data["spans"])
        assert total_self == pytest.approx(
            data["root_seconds"], rel=0.05, abs=0.005)

    def test_compile_spools_one_span_per_selection(self, traced_app):
        from repro.experiments.runner import get_artifacts
        from repro.obs import traceview

        get_artifacts(BENCH, scale=SCALE)  # as ``serve --warm`` does
        status, _body, meta = traced_app.handle_request(
            "compile", {"benchmark": BENCH, "scale": SCALE})
        assert status == 200
        records, _files, corrupt = traceview.read_spools(
            traced_app.trace_dir)
        assert corrupt == 0
        assert sorted(record["path"] for record in records) == [
            "serve.compile", "serve.compile/select"]
        assert {record["trace_id"] for record in records} == {
            meta["trace_id"]}

    def test_client_trace_id_is_joined(self, traced_app):
        from repro.obs.tracectx import format_traceparent, new_trace_id

        trace_id = new_trace_id()
        header = format_traceparent(trace_id, "0" * 16)
        status, _body, meta = traced_app.handle_request(
            "compile", {"benchmark": BENCH, "scale": SCALE},
            traceparent=header)
        assert status == 200
        assert meta["trace_id"] == trace_id

    def test_malformed_traceparent_roots_a_fresh_trace(self,
                                                       traced_app):
        status, _body, meta = traced_app.handle_request(
            "compile", {"benchmark": BENCH, "scale": SCALE},
            traceparent="garbage")
        assert status == 200
        assert meta["trace_id"] and meta["trace_id"] != "garbage"

    def test_trace_endpoint_returns_schema_valid_json(self,
                                                      traced_app):
        from repro.obs import traceview

        _status, _body, meta = traced_app.handle_request(
            "simulate", {"benchmark": BENCH, "scale": SCALE})
        status, body = traced_app.trace_timeline(meta["trace_id"])
        assert status == 200
        data = json.loads(body)
        assert validate_explain(data, load_schema("trace")) == []
        assert data["trace_id"] == meta["trace_id"]

    def test_trace_endpoint_unknown_id_is_404(self, traced_app):
        status, body = traced_app.trace_timeline("f" * 32)
        assert status == 404
        assert b"error" in body

    def test_trace_endpoint_404_when_tracing_off(self, app):
        status, _body = app.trace_timeline("f" * 32)
        assert status == 404

    def test_tracing_off_meta_has_no_identity(self, app):
        status, _body, meta = app.handle_request(
            "compile", {"benchmark": BENCH, "scale": SCALE})
        assert status == 200
        assert meta["trace_id"] is None
        assert meta["traceparent"] is None

    def test_traced_bytes_match_untraced(self, app, traced_app):
        body = {"benchmark": BENCH, "scale": SCALE}
        plain = app.handle("compile", dict(body))
        traced = traced_app.handle("compile", dict(body))
        assert plain == traced

    def test_coalesced_follower_records_the_leader(self, traced_app,
                                                   monkeypatch):
        entered = threading.Event()
        release = threading.Event()

        def slow_simulate(params, cell_id):
            entered.set()
            release.wait(timeout=5)
            return b"{}\n"

        monkeypatch.setattr(
            "repro.serve.app._simulate_bytes", slow_simulate
        )
        body = {"benchmark": BENCH, "scale": SCALE}
        metas = []

        def request():
            _s, _b, meta = traced_app.handle_request(
                "simulate", dict(body))
            metas.append(meta)

        leader = threading.Thread(target=request)
        leader.start()
        entered.wait(timeout=5)
        follower = threading.Thread(target=request)
        follower.start()
        time.sleep(0.05)
        release.set()
        leader.join(timeout=5)
        follower.join(timeout=5)
        by_role = {meta["coalesced"]: meta for meta in metas}
        assert set(by_role) == {True, False}
        leader_meta, follower_meta = by_role[False], by_role[True]
        assert follower_meta["leader"]["trace_id"] \
            == leader_meta["trace_id"]
        assert follower_meta["leader"]["span_id"]

    def test_http_response_echoes_the_trace_header(self, tmp_path):
        from repro.obs.tracectx import TRACE_HEADER

        application = ServeApp(trace_dir=str(tmp_path / "trace"))
        srv = build_server(("127.0.0.1", 0), application)
        thread = threading.Thread(target=srv.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            host, port = srv.server_address[:2]
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/compile",
                data=json.dumps({"benchmark": BENCH,
                                 "scale": SCALE}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with telemetry(metrics=application.registry):
                with urllib.request.urlopen(request) as response:
                    assert response.status == 200
                    header = response.headers.get(TRACE_HEADER)
            assert header
            trace_id = header.split("-")[1]
            status, body = application.trace_timeline(trace_id)
            assert status == 200
            data = json.loads(body)
            assert data["orphans"] == []
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)

    def test_non_hex_or_zero_trace_header_gets_a_fresh_trace(
            self, tmp_path):
        """A sign, a space or an all-zero trace id is no traceparent."""
        import re

        from repro.obs.tracectx import TRACE_HEADER, parse_traceparent

        sent = [
            "00-+" + "a" * 31 + "-" + "1" * 16 + "-01",
            "00-" + "a" * 32 + "- " + "1" * 15 + "-01",
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",
        ]
        application = ServeApp(trace_dir=str(tmp_path / "trace"))
        srv = build_server(("127.0.0.1", 0), application)
        thread = threading.Thread(target=srv.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            host, port = srv.server_address[:2]
            for traceparent in sent:
                request = urllib.request.Request(
                    f"http://{host}:{port}/v1/compile",
                    data=json.dumps({"benchmark": BENCH,
                                     "scale": SCALE}).encode("utf-8"),
                    headers={"Content-Type": "application/json",
                             TRACE_HEADER: traceparent},
                    method="POST",
                )
                with telemetry(metrics=application.registry):
                    with urllib.request.urlopen(request) as response:
                        assert response.status == 200
                        header = response.headers.get(TRACE_HEADER)
                trace_id, _span_id = parse_traceparent(header)
                assert re.fullmatch("[0-9a-f]{32}", trace_id)
                assert trace_id.strip("0")
                assert trace_id not in traceparent
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)


class TestAccessLog:
    """Satellite: one structured line per request."""

    def test_log_writes_one_json_line_per_request(self, tmp_path):
        from repro.serve.accesslog import AccessLog, read_access_log

        path = str(tmp_path / "access.jsonl")
        log = AccessLog(path)
        log.log("POST", "/v1/simulate", 200, 12.5,
                trace_id="a" * 32)
        log.log("GET", "/healthz", 200, 0.2)
        log.close()
        records = read_access_log(path)
        assert len(records) == 2
        first = records[0]
        assert first["method"] == "POST"
        assert first["path"] == "/v1/simulate"
        assert first["status"] == 200
        assert first["duration_ms"] == 12.5
        assert first["trace_id"] == "a" * 32
        assert first["coalesced"] is False
        assert records[1]["trace_id"] is None

    def test_reader_tolerates_a_torn_tail(self, tmp_path):
        from repro.serve.accesslog import AccessLog, read_access_log

        path = str(tmp_path / "access.jsonl")
        log = AccessLog(path)
        log.log("GET", "/metrics", 200, 0.1)
        log.close()
        with open(path, "a") as handle:
            handle.write('{"ts": 123, "met')
        corrupt = []
        records = read_access_log(path, corrupt=corrupt)
        assert len(records) == 1
        assert len(corrupt) == 1

    def test_app_log_access_extracts_the_leader(self, tmp_path):
        from repro.serve.accesslog import AccessLog, read_access_log

        path = str(tmp_path / "access.jsonl")
        application = ServeApp(access_log=AccessLog(path))
        application.log_access("POST", "/v1/simulate", 200, 3.0, meta={
            "trace_id": "b" * 32, "coalesced": True,
            "leader": {"trace_id": "c" * 32, "span_id": "d" * 16},
        })
        application.access.close()
        record = read_access_log(path)[0]
        assert record["trace_id"] == "b" * 32
        assert record["coalesced"] is True
        assert record["leader_trace_id"] == "c" * 32

    def test_no_sink_is_a_noop(self, app):
        assert app.log_access("GET", "/healthz", 200, 0.1) is None

    def test_stream_sink_is_not_closed(self):
        from repro.serve.accesslog import AccessLog

        stream = io.StringIO()
        log = AccessLog(stream)
        assert isinstance(log, JsonlSink)  # the one appender
        log.log("GET", "/healthz", 200, 0.1)
        log.close()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["path"] == "/healthz"
