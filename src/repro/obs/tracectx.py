"""Distributed trace context: one identity across every process.

A *trace* ties together everything one entry point caused — a served
HTTP request fanning into a warm-state computation, or a ``campaign
run`` forking cell workers across shards.  The identity travels as a
W3C-traceparent-style string::

    00-<32 hex trace_id>-<16 hex span_id>-01

carried on the ``X-Repro-Trace-Id`` HTTP header between serve clients
and the daemon, passed to forked workers as explicit arguments
(campaign backends, the exec process pool), and read from the
``REPRO_TRACEPARENT`` / ``REPRO_TRACE_DIR`` environment variables an
orchestrator sets for several campaign shards.

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
import re
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
_TRACE_ID = re.compile("[0-9a-fA-F]{32}")
_SPAN_ID = re.compile("[0-9a-fA-F]{16}")

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

    Raises :class:`ValueError` on anything malformed: wrong field
    count, a trace id that is not exactly 32 hex digits or is all
    zeros (invalid in W3C Trace Context), or a span id that is not
    exactly 16 hex digits.  The version and flags fields are accepted
    but otherwise ignored (forward compatibility, like the W3C spec
    requires of receivers).
    """
    parts = str(text).strip().split("-")
    if len(parts) != 4:
        raise ValueError(f"malformed traceparent {text!r}")
    _version, trace_id, span_id, _flags = parts
    if not (_TRACE_ID.fullmatch(trace_id) and _SPAN_ID.fullmatch(span_id)
            and trace_id.strip("0")):
        raise ValueError(f"malformed traceparent {text!r}")
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
    """One process's view of a distributed trace: its identity only.

    Holds the shared ``trace_id``, the *remote parent* span id (the
    caller's active span at the propagation point, or ``None`` at the
    trace root), the spool finished spans are appended to, and
    ``attrs`` stamped onto every span.  ``service`` labels which
    process/role produced each span in the merged timeline (``serve``,
    ``campaign``, ``campaign-worker``, ``exec-worker``, ...).  Its
    open spans are on the thread's span stack
    (:func:`repro.obs.spans.open_spans`).
    """

    __slots__ = ("trace_id", "parent_span_id", "service", "spool",
                 "attrs")

    def __init__(self, trace_id, parent_span_id=None, service="repro",
                 spool=None, attrs=None):
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.service = service
        self.spool = spool
        self.attrs = dict(attrs) if attrs else {}

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
        """This context's innermost open span id in this thread, else
        the remote parent (``None`` at a trace root)."""
        from repro.obs.spans import open_spans

        for handle in reversed(open_spans()):
            if handle.ctx is self:
                return handle.span_id
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
