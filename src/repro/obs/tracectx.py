"""Distributed trace context: one identity across every process.

A *trace* ties together everything one entry point caused — a served
HTTP request fanning into a warm-state computation, or a ``campaign
run`` forking cell workers across shards.  The identity travels as a
W3C-traceparent-style string::

    00-<32 hex trace_id>-<16 hex span_id>-01

carried on the ``X-Repro-Trace-Id`` HTTP header between serve clients
and the daemon, and injected into child processes either as explicit
arguments (campaign backends, the exec process pool) or via the
``REPRO_TRACEPARENT`` / ``REPRO_TRACE_DIR`` environment variables.

Each participating process appends its finished spans to a
*per-process spool* — ``spans-<pid>.jsonl`` inside the shared trace
directory — so concurrent writers never interleave within a line and a
crash can only tear the final line of one file (the same torn-tail
contract as the campaign journal).  ``python -m repro trace show
<trace_id>`` (:mod:`repro.obs.traceview`) merges the spools back into
one cross-process timeline.

The active context is **thread-local**: the serve daemon installs one
per request thread, CLI entry points install one on the main thread,
and forked workers rebuild one from the propagated traceparent.  When
no context is active (the default), :func:`current` returns ``None``
and the tracing hook in :func:`~repro.obs.spans.span` costs a single
attribute check — mirroring the ``NULL_TRACER`` hot-loop contract.
"""

import os
import threading
from contextlib import contextmanager

from repro.obs.jsonl import JsonlSink

#: HTTP header carrying the traceparent value on /v1/* requests and
#: echoed back on every traced response.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Environment variables used for cross-process propagation when
#: explicit argument injection is not available.
TRACEPARENT_ENV = "REPRO_TRACEPARENT"
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Spool file name pattern inside a trace directory.
SPOOL_PREFIX = "spans-"
SPOOL_SUFFIX = ".jsonl"

_TRACEPARENT_VERSION = "00"
_TRACEPARENT_FLAGS = "01"

_LOCAL = threading.local()


def new_trace_id():
    """A fresh 128-bit trace id as 32 lowercase hex characters."""
    return os.urandom(16).hex()


def new_span_id():
    """A fresh 64-bit span id as 16 lowercase hex characters."""
    return os.urandom(8).hex()


def format_traceparent(trace_id, span_id):
    """``00-<trace_id>-<span_id>-01`` (W3C traceparent shape)."""
    return (
        f"{_TRACEPARENT_VERSION}-{trace_id}-{span_id}-{_TRACEPARENT_FLAGS}"
    )


def parse_traceparent(text):
    """``(trace_id, span_id)`` from a traceparent string.

    Raises :class:`ValueError` on anything malformed — wrong field
    count, wrong widths, or non-hex digits.  The version and flags
    fields are accepted but otherwise ignored (forward compatibility,
    like the W3C spec requires of receivers).
    """
    parts = str(text).strip().split("-")
    if len(parts) != 4:
        raise ValueError(f"malformed traceparent {text!r}")
    _version, trace_id, span_id, _flags = parts
    if len(trace_id) != 32 or len(span_id) != 16:
        raise ValueError(f"malformed traceparent {text!r}")
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        raise ValueError(f"malformed traceparent {text!r}") from None
    # An all-zero parent span id means "join the trace at the root":
    # the sender had a trace identity but no active span (e.g. an
    # orchestrator that exported REPRO_TRACEPARENT before any work).
    # Mapping it to None keeps the joined spans roots instead of
    # orphans pointing at a span nobody ever wrote.
    if span_id == "0" * 16:
        return trace_id.lower(), None
    return trace_id.lower(), span_id.lower()


class SpanSpool(JsonlSink):
    """The append-only span sink of one trace directory.

    Each process writes ``spans-<pid>.jsonl`` in it: :attr:`path` is
    read at each open, so a forked worker appends to its own file.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        super().__init__(self.path, append=True)

    @property
    def path(self):
        """The spool path this process writes to."""
        return os.path.join(
            self.directory, f"{SPOOL_PREFIX}{os.getpid()}{SPOOL_SUFFIX}"
        )


class TraceContext:
    """One process's view of a distributed trace.

    Holds the shared ``trace_id``, the *remote parent* span id (the
    caller's active span at the propagation point, or ``None`` at the
    trace root), a process-local stack of open span ids maintained by
    :func:`~repro.obs.spans.span`, and the spool finished spans are
    appended to.  ``service`` labels which process/role produced each
    span in the merged timeline (``serve``, ``campaign``,
    ``campaign-worker``, ``exec-worker``, ...).
    """

    __slots__ = ("trace_id", "parent_span_id", "service", "spool",
                 "attrs", "_stack")

    def __init__(self, trace_id, parent_span_id=None, service="repro",
                 spool=None, attrs=None):
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.service = service
        self.spool = spool
        self.attrs = dict(attrs) if attrs else {}
        self._stack = []

    # -- construction ------------------------------------------------

    @classmethod
    def root(cls, service="repro", trace_dir=None, attrs=None):
        """A brand-new trace rooted at this process (an entry point)."""
        spool = SpanSpool(trace_dir) if trace_dir else None
        return cls(new_trace_id(), None, service=service, spool=spool,
                   attrs=attrs)

    @classmethod
    def from_traceparent(cls, traceparent, service="repro",
                         trace_dir=None, attrs=None):
        """Join an existing trace as a child of the caller's span."""
        trace_id, parent_span_id = parse_traceparent(traceparent)
        spool = SpanSpool(trace_dir) if trace_dir else None
        return cls(trace_id, parent_span_id, service=service,
                   spool=spool, attrs=attrs)

    @classmethod
    def from_propagation(cls, payload, service="repro"):
        """Rebuild a child context from :meth:`propagation` output."""
        if not payload:
            return None
        return cls.from_traceparent(
            payload["traceparent"],
            service=service,
            trace_dir=payload.get("dir"),
            attrs=payload.get("attrs"),
        )

    @classmethod
    def from_env(cls, environ=None, service="repro"):
        """A child context from ``REPRO_TRACEPARENT`` (or ``None``)."""
        environ = os.environ if environ is None else environ
        traceparent = environ.get(TRACEPARENT_ENV)
        if not traceparent:
            return None
        return cls.from_traceparent(
            traceparent, service=service,
            trace_dir=environ.get(TRACE_DIR_ENV) or None,
        )

    # -- propagation -------------------------------------------------

    def current_span_id(self):
        """The innermost open span id, or the remote parent, or None."""
        if self._stack:
            return self._stack[-1]
        return self.parent_span_id

    def traceparent(self):
        """The traceparent naming the current span (for headers/env)."""
        return format_traceparent(
            self.trace_id, self.current_span_id() or "0" * 16
        )

    def propagation(self, attrs=None):
        """JSON-ready payload for argument injection into a child.

        The child rebuilds its context with
        :meth:`from_propagation`; ``attrs`` ride along and are stamped
        onto the child's spans (e.g. ``cell_id``/``attempt``).
        """
        payload = {"traceparent": self.traceparent()}
        if self.spool is not None:
            payload["dir"] = self.spool.directory
        if attrs:
            payload["attrs"] = dict(attrs)
        return payload

    def to_env(self, environ=None):
        """Set the propagation environment variables (for subprocesses)."""
        environ = os.environ if environ is None else environ
        environ[TRACEPARENT_ENV] = self.traceparent()
        if self.spool is not None:
            environ[TRACE_DIR_ENV] = self.spool.directory
        return environ

    # -- span lifecycle (driven by repro.obs.spans.span) -------------

    def enter_span(self):
        """Open a span: returns ``(span_id, parent_id)`` and pushes it."""
        parent = self.current_span_id()
        span_id = new_span_id()
        self._stack.append(span_id)
        return span_id, parent

    def exit_span(self, span_id):
        """Close the innermost span: pop it off the stack."""
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()


# -- the active (thread-local) context --------------------------------


def current():
    """The thread's active :class:`TraceContext`, or ``None``."""
    return getattr(_LOCAL, "ctx", None)


@contextmanager
def activate(ctx):
    """Install ``ctx`` as this thread's active context for the block.

    ``activate(None)`` is a no-op block, so call sites can write
    ``with activate(maybe_ctx):`` without branching.  Contexts nest:
    the previous context is restored on exit.
    """
    if ctx is None:
        yield None
        return
    previous = getattr(_LOCAL, "ctx", None)
    _LOCAL.ctx = ctx
    try:
        yield ctx
    finally:
        _LOCAL.ctx = previous
