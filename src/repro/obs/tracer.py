"""The structured event tracer and its sinks.

The hot-loop contract: callers keep a local ``traced = tracer.enabled``
(or test ``tracer.enabled`` directly) and only construct/emit events
when it is true.  The default :data:`NULL_TRACER` therefore costs one
attribute check per guarded site and nothing else.

Sinks are pluggable: anything with ``write(record: dict)`` and
``close()`` works.  :class:`~repro.obs.jsonl.JsonlSink` appends one
JSON object per line; :class:`ListSink` collects records in memory
(tests, in-process analysis).  :func:`read_events` /
:func:`~repro.obs.jsonl.iter_records` read a JSONL log back as typed
events / raw dicts.
"""

from repro.obs import tracectx
from repro.obs.jsonl import JsonlSink, iter_records


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
        from repro.obs import events

        record = events.to_record(event_obj)
        record["seq"] = self.seq
        self.seq += 1
        ctx = tracectx.current()
        if ctx is not None:
            record["trace_id"] = ctx.trace_id
            span_id = ctx.current_span_id()
            if span_id:
                record["span_id"] = span_id
        self.sink.write(record)

    def emit_record(self, record):
        """Write a ready ``span.end`` record, adding only its ``seq``."""
        self.sink.write({**record, "seq": self.seq})
        self.seq += 1

    def close(self):
        self.sink.close()


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
        from repro.obs.events import from_record

        return [from_record(r) for r in self.records]


def jsonl_tracer(path):
    """Convenience: a :class:`Tracer` writing JSONL to ``path``."""
    return Tracer(JsonlSink(path))


def read_events(path):
    """Read a JSONL trace log back as a list of typed events."""
    from repro.obs.events import from_record

    return [from_record(record) for record in iter_records(path)]
