"""The HTTP daemon: ``python -m repro serve --port N``.

Stdlib :class:`~http.server.ThreadingHTTPServer`, one thread per
connection, over a :class:`~repro.serve.app.ServeApp` holding the warm
state.  SIGINT or SIGTERM drains: accepting stops, idle keep-alive
connections close, in-flight requests finish, and the process exits
130 or 143 (the campaign CLI's convention) without a traceback.

The signal handler must not call ``shutdown`` itself: it runs on the
main thread inside ``serve_forever``, which ``shutdown`` waits for — a
deadlock.  A helper thread makes the call instead.
"""

import argparse
import contextlib
import json
import signal
import socket
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.compiler import shared_manager
from repro.exec import artifact_cache
from repro.experiments.runner import get_artifacts
from repro.obs.context import telemetry
from repro.obs.tracectx import TRACE_HEADER
from repro.serve.accesslog import AccessLog
from repro.serve.app import ServeApp, error_bytes

#: Default listen address.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Exit codes for the two drain signals (128 + signal number).
EXIT_SIGINT = 130
EXIT_SIGTERM = 143


class ServeServer(ThreadingHTTPServer):
    """Threaded HTTP server that drains in-flight requests on close."""

    #: Handler threads are joined by ``server_close`` (the drain).
    daemon_threads = False
    block_on_close = True

    def __init__(self, address, app, verbose=False):
        self.app = app
        self.verbose = verbose
        self._open = set()  # accepted, not yet closed connections
        self._open_lock = threading.Lock()
        super().__init__(address, RequestHandler)

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        """Drain: end every keep-alive connection, then join handlers.

        A handler waiting on an idle connection's next request line
        would hang the join.  Shutting down each read side makes reads
        return what has already arrived, then EOF: an in-flight request
        still writes its full response, then its next read ends the
        connection.
        """
        with self._open_lock:
            for connection in self._open:
                with contextlib.suppress(OSError):
                    connection.shutdown(socket.SHUT_RD)
        super().server_close()


class _Rejected(Exception):
    """A POST refused before it reaches the app: ``(status, message)``."""


class RequestHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` POSTs and the GET endpoints to the app.

    Each response leaves in one write on a TCP_NODELAY socket.  Headers
    and body as two small writes stall a keep-alive client: Nagle's
    algorithm holds the body until the header segment is ACKed, and
    the client delays that ACK by ~40 ms.
    """

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status, body, content_type="application/json",
              headers=()):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        # end_headers() would write the header block on its own.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def do_GET(self):
        app = self.server.app
        started = time.monotonic()
        content_type = "application/json"
        if self.path == "/healthz":
            status, body = app.healthz()
        elif self.path == "/metrics":
            status, body = app.metrics()
            content_type = ("application/openmetrics-text; "
                            "version=1.0.0; charset=utf-8")
        elif self.path.startswith("/v1/trace/"):
            status, body = app.trace_timeline(self.path[len("/v1/trace/"):])
        else:
            status, body = 404, error_bytes(f"unknown path {self.path!r}")
        self._send(status, body, content_type)
        app.log_access("GET", self.path, status,
                       (time.monotonic() - started) * 1000.0)

    def do_POST(self):
        app = self.server.app
        started = time.monotonic()
        headers = ()
        try:
            endpoint, request = self._read_post()
        except _Rejected as exc:
            status, body = exc.args[0], error_bytes(exc.args[1])
            meta = {"duration_ms": (time.monotonic() - started) * 1000.0}
        else:
            status, body, meta = app.handle_request(
                endpoint, request, traceparent=self.headers.get(TRACE_HEADER)
            )
            if meta["traceparent"]:
                headers = [(TRACE_HEADER, meta["traceparent"])]
        self._send(status, body, headers=headers)
        app.log_access("POST", self.path, status, meta["duration_ms"],
                       meta=meta)

    def _read_post(self):
        """``(endpoint, parsed JSON body)``, or raise :class:`_Rejected`."""
        if not self.path.startswith("/v1/"):
            raise _Rejected(404, f"unknown path {self.path!r}")
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise _Rejected(400, "bad Content-Length") from None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return self.path[len("/v1/"):], json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _Rejected(400, "request body is not valid JSON") from None


def build_server(address, app=None, verbose=False):
    """A ready-to-serve :class:`ServeServer` (tests drive this directly).

    ``address`` is ``(host, port)``; port 0 binds an ephemeral port —
    read the actual one back from ``server.server_address``.
    """
    return ServeServer(address, app if app is not None else ServeApp(),
                       verbose=verbose)


def _warm(benchmarks, scale):
    """Pre-build artifacts and shared analyses before serving."""
    for benchmark in benchmarks:
        artifacts = get_artifacts(benchmark, scale=scale)
        shared_manager().analysis(artifacts.program, artifacts.profile)
        print(f"[serve] warmed {benchmark} (scale {scale:g})",
              flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Warm-state serving daemon for compile/simulate/explain "
            "requests (see docs/serving.md)."
        ),
    )
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"listen port (default {DEFAULT_PORT}; "
                             f"0 = ephemeral, printed at startup)")
    parser.add_argument("--warm", default="", metavar="BENCHMARKS",
                        help="comma-separated benchmarks to pre-build "
                             "artifacts for before serving")
    parser.add_argument("--warm-scale", type=float, default=1.0,
                        metavar="S",
                        help="trace scale used by --warm (default 1.0)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent artifact cache directory")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="skip the persistent artifact cache")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="span spool directory for distributed "
                             "tracing (default: a fresh temp dir, "
                             "printed at startup)")
    parser.add_argument("--no-trace", action="store_true",
                        help="disable per-request tracing and "
                             "/v1/trace")
    parser.add_argument("--access-log", default=None, metavar="FILE",
                        help="append structured access-log lines to "
                             "FILE (default: stderr)")
    parser.add_argument("--no-access-log", action="store_true",
                        help="disable the structured access log")
    args = parser.parse_args(argv)

    if args.cache_dir:
        artifact_cache.set_cache_dir(args.cache_dir)
    if args.no_disk_cache:
        artifact_cache.set_disabled(True)

    trace_dir = None if args.no_trace else (
        args.trace_dir or tempfile.mkdtemp(prefix="repro-serve-trace-"))
    access_log = None if args.no_access_log \
        else AccessLog(args.access_log or sys.stderr)

    app = ServeApp(trace_dir=trace_dir, access_log=access_log)
    try:
        server = build_server((args.host, args.port), app,
                              verbose=args.verbose)
    except OSError as exc:
        print(f"python -m repro serve: error: cannot bind "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1

    warm_list = [b.strip() for b in args.warm.split(",") if b.strip()]
    if warm_list:
        _warm(warm_list, args.warm_scale)

    stop = {"signum": None}

    def request_shutdown(signum, frame):
        if stop["signum"] is not None:
            return  # already draining; a second signal changes nothing
        stop["signum"] = signum
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(ValueError):  # not the main thread
            previous[signum] = signal.signal(signum, request_shutdown)

    host, port = server.server_address[:2]
    # The serving line is a contract: tests and the CI smoke job parse
    # the bound port out of it (needed for --port 0).
    print(f"[serve] listening on http://{host}:{port} "
          f"(endpoints: /v1/compile /v1/simulate /v1/explain "
          f"/v1/trace /healthz /metrics)", flush=True)
    if trace_dir is not None:
        print(f"[serve] tracing to {trace_dir} "
              f"(python -m repro trace show <id> --dir {trace_dir})",
              flush=True)
    try:
        # Install the app's registry as the process-wide metrics sink:
        # the telemetry context is module-global, so every request
        # thread's counters (cache hits, campaign counters, serve_*)
        # land where GET /metrics reads them.
        with telemetry(metrics=app.registry):
            server.serve_forever()
    finally:
        server.server_close()  # joins handler threads: the drain
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    if stop["signum"] is None:
        return 0
    print(f"[serve] drained and stopped "
          f"({signal.Signals(stop['signum']).name})", flush=True)
    return EXIT_SIGTERM if stop["signum"] == signal.SIGTERM else EXIT_SIGINT


if __name__ == "__main__":
    sys.exit(main())
