"""Request handling for the serving daemon: normalize, coalesce, run.

The app is deliberately separate from the HTTP plumbing
(:mod:`repro.serve.daemon`) so tests can drive endpoints directly:
:meth:`ServeApp.handle` takes ``(endpoint, body dict)`` and returns
``(status, bytes)`` with no sockets involved.

Three invariants this module owns:

**Byte-identity.**  Each ``/v1`` endpoint produces exactly the bytes
the corresponding CLI prints for the same parameters — ``compile``
mirrors ``python -m repro compile`` (including its default preset and
case handling), ``explain`` mirrors ``python -m repro explain --json``,
and ``simulate`` is one campaign cell's deterministic result (the
``ledger`` annotation popped, canonical JSON), byte-identical to what
the campaign journal records for the same cell.

**Single-flight coalescing.**  Concurrent identical requests share one
computation: the first arrival (the *leader*) runs it, the rest wait on
an event and receive the same bytes.  The coalescing key is
:func:`repro.campaign.spec.content_hash` over the normalized request —
for ``/v1/simulate`` that hash *is* the campaign cell ID.  The
simulation engine is not a request field: the daemon's request threads
use the engine :envvar:`REPRO_SIM_ENGINE` selects for the whole
process, and engines are bit-identical by contract.

**Warm-state safety.**  The process-wide caches the daemon exists to
keep warm — the shared :class:`~repro.compiler.AnalysisManager`, the
runner's artifact LRU, the simulator's run memo, the disk artifact
cache — are plain dict-based structures with no internal locking, so
computations are serialized under one lock.  Coalescing makes the
common concurrent case (duplicate requests) cheap anyway; distinct
requests queue.
"""

import json
import threading
import time

from repro.campaign.spec import DEFAULT_CELL, canonical_json, content_hash
from repro.errors import ReproError

#: Latency histogram buckets (seconds) for the per-endpoint timers.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Errors that mean "bad request", not "broken server": unknown
#: benchmarks/presets, malformed pipeline specs, bad parameter values.
_CLIENT_ERRORS = (KeyError, ValueError, ReproError)


class RequestError(Exception):
    """A malformed or unsatisfiable request (HTTP 400)."""

    def __init__(self, message):
        super().__init__(message)
        self.message = message


class _Call:
    """One in-flight computation other requests may wait on."""

    __slots__ = ("event", "result", "error", "meta")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error = None
        self.meta = None


class SingleFlight:
    """Coalesce concurrent calls with the same key into one execution.

    :meth:`do` returns ``(result, coalesced)`` where ``coalesced`` is
    True for followers that waited on the leader's computation.  The
    leader's exception (if any) propagates to every waiter.

    ``meta`` is an arbitrary leader-provided value (here: the leader's
    trace identity) published on the call before followers are
    released; a follower's ``on_coalesce`` callback receives it, so a
    coalesced response can name the trace whose work answered it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight = {}

    def do(self, key, fn, meta=None, on_coalesce=None):
        with self._lock:
            call = self._inflight.get(key)
            if call is not None:
                leader = False
            else:
                call = _Call()
                call.meta = meta
                self._inflight[key] = call
                leader = True
        if not leader:
            call.event.wait()
            if call.error is not None:
                raise call.error
            if on_coalesce is not None:
                on_coalesce(call.meta)
            return call.result, True
        try:
            call.result = fn()
        except BaseException as exc:
            call.error = exc
            raise
        finally:
            with self._lock:
                del self._inflight[key]
            call.event.set()
        return call.result, False


def _take(body, key, default=None):
    value = body.pop(key, default)
    return value


def _reject_unknown(body, endpoint):
    if body:
        raise RequestError(
            f"{endpoint}: unknown field(s) "
            f"{', '.join(sorted(map(str, body)))}"
        )


def _normalize_common(body, endpoint, workload_key):
    workload = _take(body, workload_key)
    if not workload or not isinstance(workload, str):
        raise RequestError(f"{endpoint}: {workload_key!r} is required")
    input_set = _take(body, "input_set", "reduced")
    try:
        scale = float(_take(body, "scale", 1.0))
    except (TypeError, ValueError):
        raise RequestError(f"{endpoint}: 'scale' must be a number") \
            from None
    return workload, input_set, scale


class ServeApp:
    """Warm-state request execution behind the HTTP daemon.

    ``trace_dir`` (optional) turns on distributed tracing: every
    request gets a :class:`~repro.obs.tracectx.TraceContext` — joined
    from the ``X-Repro-Trace-Id`` header when the client sent one,
    freshly rooted otherwise — and its spans spool into ``trace_dir``
    for ``GET /v1/trace/<id>`` and ``python -m repro trace show``.
    With the default ``trace_dir=None`` the request path is exactly the
    pre-tracing one (one ``None`` check per request), which is what
    keeps the serve benchmark's tracing-disabled throughput flat.

    Request spans, like every other counter the computation bumps,
    land in the *active* telemetry context, not in ``registry``: the
    context is module-global, so per-request switching would race
    between request threads.  The daemon installs
    ``telemetry(metrics=app.registry)`` around ``serve_forever()``, so
    ``/metrics`` shows them; an in-process ``ServeApp(registry=R)``
    needs the same ``with telemetry(metrics=R):`` to see them in ``R``.
    """

    def __init__(self, registry=None, trace_dir=None, access_log=None):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracectx import SpanSpool

        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.started = time.time()
        self.trace_dir = trace_dir
        self._spool = SpanSpool(trace_dir) if trace_dir else None
        self.access = access_log
        self._flight = SingleFlight()
        #: Serializes computations: the warm caches underneath
        #: (AnalysisManager, runner LRUs) are not thread-safe.
        self._compute_lock = threading.Lock()

    # -- endpoint table ------------------------------------------------

    def handle(self, endpoint, body, traceparent=None):
        """Dispatch one ``/v1`` request; returns ``(status, bytes)``.

        Thin compatibility wrapper over :meth:`handle_request` for
        callers that do not care about per-request metadata.
        """
        status, response, _meta = self.handle_request(
            endpoint, body, traceparent=traceparent
        )
        return status, response

    def handle_request(self, endpoint, body, traceparent=None):
        """Dispatch one ``/v1`` request with request metadata.

        Returns ``(status, bytes, meta)`` where ``meta`` carries the
        request's trace identity (``trace_id``/``traceparent`` for the
        response header, ``None`` when tracing is off), its
        ``duration_ms``, whether it was ``coalesced``, and — for a
        coalesced follower — the ``leader`` trace identity whose
        computation produced the bytes.

        ``body`` is the parsed JSON request object (it is consumed).
        Errors come back as ``(4xx/5xx, error-JSON bytes)`` — they are
        never coalesced, so a follower of a failing leader re-raises
        into its own error response.
        """
        from repro.obs import tracectx

        meta = {
            "endpoint": endpoint,
            "trace_id": None,
            "traceparent": None,
            "coalesced": False,
            "leader": None,
            "duration_ms": 0.0,
            "status": 0,
        }
        ctx = self._request_context(traceparent)
        started = time.monotonic()
        with tracectx.activate(ctx):
            if ctx is not None:
                meta["trace_id"] = ctx.trace_id
                from repro.obs.spans import span

                with span(f"serve.{endpoint}"):
                    meta["traceparent"] = ctx.traceparent()
                    status, response = self._dispatch(
                        endpoint, body, meta
                    )
            else:
                status, response = self._dispatch(endpoint, body, meta)
        meta["duration_ms"] = (time.monotonic() - started) * 1000.0
        meta["status"] = status
        return status, response, meta

    def _request_context(self, traceparent):
        """The request's trace context (None when tracing is off)."""
        if self._spool is None:
            return None
        from repro.obs import tracectx

        if traceparent:
            try:
                trace_id, parent = tracectx.parse_traceparent(traceparent)
            except ValueError:
                trace_id, parent = tracectx.new_trace_id(), None
        else:
            trace_id, parent = tracectx.new_trace_id(), None
        return tracectx.TraceContext(
            trace_id, parent, service="serve", spool=self._spool
        )

    def _dispatch(self, endpoint, body, meta):
        handlers = {
            "compile": self._compile,
            "simulate": self._simulate,
            "explain": self._explain,
        }
        handler = handlers.get(endpoint)
        if handler is None:
            return 404, error_bytes(f"unknown endpoint {endpoint!r}")
        self.registry.counter(
            "serve_requests_total",
            help="HTTP requests accepted by the serving daemon",
        ).inc()
        started = time.monotonic()
        try:
            if not isinstance(body, dict):
                raise RequestError(
                    f"{endpoint}: request body must be a JSON object"
                )
            response, coalesced = handler(dict(body), meta)
        except RequestError as exc:
            self._count_error()
            return 400, error_bytes(exc.message)
        except _CLIENT_ERRORS as exc:
            self._count_error()
            message = exc.args[0] if exc.args else str(exc)
            return 400, error_bytes(str(message))
        except Exception as exc:  # noqa: BLE001 — boundary
            self._count_error()
            return 500, error_bytes(f"{type(exc).__name__}: {exc}")
        finally:
            self.registry.histogram(
                f"serve_{endpoint}_latency_seconds", LATENCY_BUCKETS,
                help=f"/v1/{endpoint} request latency",
            ).observe(time.monotonic() - started)
        if coalesced:
            meta["coalesced"] = True
            self.registry.counter(
                "serve_coalesced_total",
                help="requests answered from a coalesced in-flight "
                     "computation",
            ).inc()
        return 200, response

    def _count_error(self):
        self.registry.counter(
            "serve_errors_total",
            help="requests that ended in an error response",
        ).inc()

    def _run(self, op, params, fn, meta=None):
        """Single-flight ``fn`` under the warm-state lock.

        The key hashes the *normalized* request (op + params) with the
        same :func:`content_hash` the campaign layer uses.
        """
        key = content_hash({"op": op, "params": params})
        return self._flight_do(key, fn, meta)

    def _flight_do(self, key, fn, meta):
        """Coalesced execution with leader trace attribution."""
        from repro.obs import tracectx

        def compute():
            with self._compute_lock:
                return fn()

        ctx = tracectx.current()
        my_identity = None
        if ctx is not None:
            my_identity = {
                "trace_id": ctx.trace_id,
                "span_id": ctx.current_span_id(),
            }

        def on_coalesce(leader_identity):
            if meta is not None:
                meta["leader"] = leader_identity

        return self._flight.do(
            key, compute, meta=my_identity, on_coalesce=on_coalesce
        )

    # -- /v1/compile ---------------------------------------------------

    def _compile(self, body, meta=None):
        benchmark, input_set, scale = _normalize_common(
            body, "compile", "benchmark"
        )
        config = _take(body, "config")
        pipeline = _take(body, "pipeline")
        _reject_unknown(body, "compile")
        if config is not None and pipeline is not None:
            raise RequestError(
                "compile: 'config' and 'pipeline' are mutually exclusive"
            )
        params = {
            "benchmark": benchmark, "input_set": input_set,
            "scale": scale, "config": config, "pipeline": pipeline,
        }
        return self._run(
            "compile", params,
            lambda: _compile_bytes(benchmark, input_set, scale,
                                   config, pipeline),
            meta=meta,
        )

    # -- /v1/simulate --------------------------------------------------

    def _simulate(self, body, meta=None):
        benchmark, input_set, scale = _normalize_common(
            body, "simulate", "benchmark"
        )
        selection = _take(body, "selection", "all-best-heur")
        thresholds = _take(body, "thresholds") or {}
        processor = _take(body, "processor") or {}
        _reject_unknown(body, "simulate")
        if not isinstance(thresholds, dict) \
                or not isinstance(processor, dict):
            raise RequestError(
                "simulate: 'thresholds' and 'processor' must be objects"
            )
        # Exactly the params dict CampaignSpec._resolve builds, so the
        # coalescing key below == the campaign cell ID for this cell.
        params = {
            "benchmark": benchmark,
            "input_set": input_set,
            "scale": scale,
            "selection": selection,
            "thresholds": thresholds,
            "processor": processor,
            "cell": DEFAULT_CELL,
        }
        key = content_hash(params)
        return self._flight_do(
            key, lambda: _simulate_bytes(params, key), meta
        )

    # -- /v1/explain ---------------------------------------------------

    def _explain(self, body, meta=None):
        workload, input_set, scale = _normalize_common(
            body, "explain", "workload"
        )
        config = _take(body, "config", "all-best-cost")
        pipeline = _take(body, "pipeline")
        _reject_unknown(body, "explain")
        params = {
            "workload": workload, "input_set": input_set,
            "scale": scale, "config": config, "pipeline": pipeline,
        }
        return self._run(
            "explain", params,
            lambda: _explain_bytes(workload, input_set, scale,
                                   config, pipeline),
            meta=meta,
        )

    # -- GET endpoints -------------------------------------------------

    def healthz(self):
        """Liveness + warm-state summary as ``(200, bytes)``."""
        from repro.compiler import shared_manager
        from repro.exec import artifact_cache

        manager = shared_manager()
        requests = self.registry.get("serve_requests_total")
        coalesced = self.registry.get("serve_coalesced_total")
        data = {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started, 3),
            "analysis_cache": manager.stats(),
            "artifact_cache": artifact_cache.info(),
            "requests": requests.value if requests else 0,
            "coalesced": coalesced.value if coalesced else 0,
        }
        body = json.dumps(data, indent=2, sort_keys=True) + "\n"
        return 200, body.encode("utf-8")

    def metrics(self):
        """The registry as OpenMetrics text, ``(200, bytes)``."""
        return 200, self.registry.render_openmetrics().encode("utf-8")

    def trace_timeline(self, trace_id):
        """``GET /v1/trace/<id>``: the merged timeline as JSON bytes.

        404 when tracing is off or the trace has no spans yet; the
        payload is exactly ``python -m repro trace show <id> --json``
        over the daemon's own spool directory (schema-pinned).
        """
        if self.trace_dir is None:
            return 404, error_bytes(
                "tracing is disabled (start the daemon with tracing "
                "enabled to use /v1/trace)"
            )
        from repro.obs.traceview import build_timeline

        try:
            data = build_timeline(self.trace_dir, trace_id)
        except ValueError as exc:
            return 404, error_bytes(str(exc))
        body = json.dumps(data, indent=2, sort_keys=True) + "\n"
        return 200, body.encode("utf-8")

    def log_access(self, method, path, status, duration_ms, meta=None):
        """One structured access-log line (no-op without a sink)."""
        if self.access is None:
            return None
        leader = (meta or {}).get("leader") or {}
        return self.access.log(
            method, path, status, duration_ms,
            trace_id=(meta or {}).get("trace_id"),
            coalesced=bool((meta or {}).get("coalesced")),
            leader_trace_id=leader.get("trace_id"),
        )


def error_bytes(message):
    """The ``{"error": message}`` JSON body of an error response."""
    return (json.dumps({"error": message}, sort_keys=True) + "\n") \
        .encode("utf-8")


# -- the byte-identical response builders --------------------------------


def _compile_config(config, pipeline, default):
    from repro.compiler import registry
    from repro.compiler.pipeline import parse_spec

    if pipeline is not None:
        return parse_spec(pipeline)
    return registry.resolve(config or default)


def _compile_bytes(benchmark, input_set, scale, config, pipeline):
    """Exactly what ``python -m repro compile`` prints to stdout."""
    from repro.core import DivergeSelector, annotation_io
    from repro.experiments.runner import get_artifacts

    selection = _compile_config(config, pipeline, "all-best-heur")
    artifacts = get_artifacts(benchmark, input_set=input_set, scale=scale)
    selector = DivergeSelector(
        artifacts.program, artifacts.profile, selection
    )
    annotation = selector.select()
    return (annotation_io.dumps(annotation) + "\n").encode("utf-8")


def _simulate_bytes(params, cell_id):
    """One campaign cell's deterministic result as canonical JSON.

    The ``ledger`` key is popped exactly as the campaign scheduler pops
    it before journaling, so the ``result`` object is byte-identical to
    the matching ``cell.finish`` journal record's ``result`` field.
    """
    from repro.campaign.spec import run_cell

    result = run_cell(dict(params))
    if isinstance(result, dict):
        result.pop("ledger", None)
    data = {"cell_id": cell_id, "params": params, "result": result}
    return (canonical_json(data) + "\n").encode("utf-8")


def _explain_bytes(workload, input_set, scale, config, pipeline):
    """Exactly what ``python -m repro explain --json`` prints.

    Mirrors the CLI's config resolution, including its
    case-insensitive preset lookup.
    """
    from repro.compiler import registry
    from repro.compiler.pipeline import parse_spec
    from repro.obs.explain import build_explain

    if pipeline is not None:
        selection = parse_spec(pipeline)
    else:
        selection = registry.resolve((config or "all-best-cost").lower())
    data = build_explain(
        workload, selection, input_set=input_set, scale=scale
    )
    return (json.dumps(data, indent=2, sort_keys=True) + "\n") \
        .encode("utf-8")
