"""The structured event tracer and its sinks.

The hot-loop contract: callers keep a local ``traced = tracer.enabled``
(or test ``tracer.enabled`` directly) and only construct/emit events
when it is true.  The default :data:`NULL_TRACER` therefore costs one
attribute check per guarded site and nothing else.

Sinks are pluggable: anything with ``write(record: dict)`` and
``close()`` works.  :class:`JsonlSink` appends one JSON object per
line; :class:`ListSink` collects records in memory (tests, in-process
analysis).  :func:`read_events` / :func:`iter_records` read a JSONL
log back as typed events / raw dicts.
"""

import json
import os

from repro.ioutil import ensure_parent
from repro.obs import tracectx
from repro.obs.events import from_record, to_record


class NullTracer:
    """The disabled tracer: emits nothing, closes nothing."""

    __slots__ = ()

    enabled = False

    def emit(self, event_obj):
        pass

    def close(self):
        pass


#: Shared default instance — there is no state to isolate.
NULL_TRACER = NullTracer()


class Tracer:
    """Writes typed events to a sink, stamping a sequence number."""

    __slots__ = ("sink", "seq")

    enabled = True

    def __init__(self, sink):
        self.sink = sink
        self.seq = 0

    def emit(self, event_obj):
        record = to_record(event_obj)
        record["seq"] = self.seq
        self.seq += 1
        ctx = tracectx.current()
        if ctx is not None:
            record["trace_id"] = ctx.trace_id
            span_id = ctx.current_span_id()
            if span_id:
                record["span_id"] = span_id
        self.sink.write(record)

    def close(self):
        self.sink.close()


class JsonlSink:
    """Appends records as JSON lines to a file path or file object.

    Every record is written as one line and flushed, so the file holds
    all a process wrote even if it exits without closing the sink.
    Forked workers (figure process pools, campaign cells) inherit the
    sink; a process other than the one that opened the path appends
    through its own handle, opened on its first record like the per-pid
    reopen of :class:`~repro.obs.tracectx.SpanSpool`, and every handle
    appends, so no two processes' lines overwrite or tear each other.
    """

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._handle = path_or_file
            self._owns_handle = False
            self.path = getattr(path_or_file, "name", None)
        else:
            ensure_parent(path_or_file)
            # The file starts empty; append mode keeps every process's
            # writes at its end.
            fd = os.open(path_or_file,
                         os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                         | os.O_APPEND, 0o666)
            self._handle = open(fd, "w", encoding="utf-8")
            self._owns_handle = True
            self.path = path_or_file
        self._pid = os.getpid()

    def write(self, record):
        if self._owns_handle and self._pid != os.getpid():
            self._handle = open(self.path, "a", encoding="utf-8")
            self._pid = os.getpid()
        self._handle.write(json.dumps(record, sort_keys=False) + "\n")
        self._handle.flush()

    def close(self):
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


class ListSink:
    """Collects records in memory (``sink.records``)."""

    def __init__(self):
        self.records = []
        self.closed = False

    def write(self, record):
        self.records.append(record)

    def close(self):
        self.closed = True

    def events(self):
        """The collected records as typed events."""
        return [from_record(r) for r in self.records]


def jsonl_tracer(path):
    """Convenience: a :class:`Tracer` writing JSONL to ``path``."""
    return Tracer(JsonlSink(path))


def iter_records(path, strict=True, corrupt=None):
    """Yield raw record dicts from a JSONL trace log.

    With ``strict=True`` (the default) a malformed line raises
    :class:`ValueError` with the path and line number.  With
    ``strict=False`` the bad line is skipped — matching the campaign
    journal's torn-tail contract, since a crash mid-write legitimately
    truncates the final line — and, when ``corrupt`` is a list, a
    ``(line_number, message)`` pair is appended per skipped line so
    consumers can surface a warning.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: bad trace record: {exc}"
                    ) from exc
                if corrupt is not None:
                    corrupt.append((line_number, str(exc)))


def read_events(path):
    """Read a JSONL trace log back as a list of typed events."""
    return [from_record(record) for record in iter_records(path)]
