"""Hierarchical timed spans: where does the wall-clock go, by region?

A *span* is a nestable timed region and the one timing primitive of
the reproduction.  Spans form a tree: entering ``span("simulate")``
inside ``span("cell")`` records under the path ``("cell",
"simulate")``.  Each path accumulates

- ``seconds`` — cumulative wall-clock (the span and everything below);
- ``self_seconds`` — cumulative minus the children's cumulative, i.e.
  the time spent *in this region itself*;
- ``events`` — an optional throughput count (instructions, rows, ...);
- ``calls`` — how many times the path was entered.

The stack of open spans is per thread, so serve request threads share
one tree without nesting into each other.  Closing a span mirrors
``span_<dotted.path>_{seconds,calls}_total`` counters into the metrics
registry and, when tracing or a trace spool is on, writes one
``span.end`` record (:class:`~repro.obs.events.SpanEnd`) that both
``trace-report`` and ``trace show`` read through :func:`read_span`.
Snapshots (:meth:`SpanTree.as_dict`) merge across ``--jobs N``
workers in plan order exactly like metrics snapshots do, and
:meth:`SpanTree.by_name` folds them into the flat per-name table the
run manifest calls ``phases``.

Usage::

    with span("simulate", events=len(trace)) as sp:
        with span("fetch"):
            ...
        sp.events = stats.retired_instructions
"""

import os
import threading
import time
from contextlib import contextmanager

from repro.obs.events import SpanEnd

#: Separator used in snapshot keys ("simulate/fetch") and SpanEnd paths.
PATH_SEP = "/"

_SPAN_KEYS = ("name", "seconds")
_TRACED_KEYS = _SPAN_KEYS + ("trace_id", "span_id", "start_ts")


class SpanHandle:
    """Mutable box the ``with span(...)`` body fills in."""

    __slots__ = ("name", "events", "child_seconds")

    def __init__(self, name, events=0):
        self.name = name
        self.events = events
        self.child_seconds = 0.0


class SpanTree:
    """Accumulated wall-clock per span path (tuple of names from root).

    Safe to share between threads: each thread nests on its own stack
    and :meth:`record` folds under a lock.
    """

    __slots__ = ("_entries", "_local", "_lock")

    def __init__(self):
        self._entries = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self):
        """This thread's stack of open :class:`SpanHandle` objects."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def record(self, path, seconds, self_seconds=None, events=0, calls=1):
        """Fold one completed span (or a merged aggregate) into ``path``.

        ``self_seconds`` defaults to ``seconds``, which is right for a
        span without children.
        """
        path = tuple(path)
        with self._lock:
            entry = self._entries.get(path)
            if entry is None:
                entry = self._entries[path] = {
                    "seconds": 0.0, "self_seconds": 0.0,
                    "events": 0, "calls": 0,
                }
            entry["seconds"] += seconds
            entry["self_seconds"] += (
                seconds if self_seconds is None else self_seconds
            )
            entry["events"] += events
            entry["calls"] += calls
        return entry

    def __len__(self):
        return len(self._entries)

    def __contains__(self, path):
        return tuple(path) in self._entries

    def get(self, path):
        """The mutable entry dict for ``path``, or None."""
        return self._entries.get(tuple(path))

    def seconds(self, path):
        entry = self._entries.get(tuple(path))
        return entry["seconds"] if entry else 0.0

    def self_seconds(self, path):
        entry = self._entries.get(tuple(path))
        return entry["self_seconds"] if entry else 0.0

    def paths(self):
        """All recorded paths, sorted (parents before children)."""
        return sorted(self._entries)

    def current_path(self, name=None):
        """This thread's open span path, optionally extended by ``name``."""
        path = tuple(handle.name for handle in self.stack())
        return path + (name,) if name is not None else path

    def as_dict(self):
        """JSON-ready snapshot keyed by ``"/"``-joined path."""
        with self._lock:
            return {
                PATH_SEP.join(path): dict(self._entries[path])
                for path in sorted(self._entries)
            }

    def merge_snapshot(self, snapshot):
        """Fold another tree's :meth:`as_dict` snapshot into this one.

        Per-path addition, applied in the snapshot's own order — the
        parallel engine calls this once per worker payload in plan
        order, so parallel runs aggregate deterministically (sums per
        path; ``seconds`` are total CPU-seconds across workers).
        """
        for key, entry in snapshot.items():
            self.record(
                tuple(key.split(PATH_SEP)),
                entry.get("seconds", 0.0),
                entry.get("self_seconds", entry.get("seconds", 0.0)),
                entry.get("events", 0),
                entry.get("calls", 0),
            )
        return self

    def by_name(self):
        """Flat per-name table: every path folded by its last component.

        This is the run manifest's ``phases`` shape, ``{name: {seconds,
        events, calls, events_per_sec}}`` sorted by name: ``cell/trace``
        and a root ``trace`` both count under ``trace``, so serial and
        ``--jobs N`` runs give the same keys, calls and events.
        """
        table = {}
        for key, entry in self.as_dict().items():
            row = table.setdefault(
                key.rsplit(PATH_SEP, 1)[-1],
                {"seconds": 0.0, "events": 0, "calls": 0},
            )
            row["seconds"] += entry["seconds"]
            row["events"] += entry["events"]
            row["calls"] += entry["calls"]
        for row in table.values():
            row["events_per_sec"] = (
                row["events"] / row["seconds"]
                if row["seconds"] > 0 and row["events"] else 0.0
            )
        return dict(sorted(table.items()))


def format_tree(snapshot):
    """Indented span-tree lines from an :meth:`SpanTree.as_dict` snapshot."""
    if not snapshot:
        return ["no spans recorded"]
    keys = sorted(snapshot, key=lambda key: key.split(PATH_SEP))
    labels = {
        key: "  " * key.count(PATH_SEP) + key.rsplit(PATH_SEP, 1)[-1]
        for key in keys
    }
    width = max(len(label) for label in labels.values())
    lines = ["span timings (self-time = region minus children):"]
    for key in keys:
        entry = snapshot[key]
        line = (
            f"  {labels[key].ljust(width)}  {entry['seconds']:8.3f}s"
            f"  (self {entry['self_seconds']:8.3f}s)"
            f"  x{entry['calls']}"
        )
        if entry.get("events"):
            line += f"  {entry['events']} events"
        lines.append(line)
    return lines


def format_by_name(table):
    """The end-of-run report: one line per :meth:`SpanTree.by_name` row."""
    if not table:
        return "no spans recorded"
    width = max(len(name) for name in table)
    lines = ["phase timings:"]
    for name, entry in table.items():
        line = (
            f"  {name.ljust(width)}  {entry['seconds']:8.3f}s"
            f"  x{entry['calls']}"
        )
        if entry["events"]:
            line += (
                f"  {entry['events']} events"
                f"  ({entry['events_per_sec']:,.0f}/s)"
            )
        lines.append(line)
    return "\n".join(lines)


@contextmanager
def span(name, events=0, attrs=None):
    """Time one nested region; see the module docstring for the contract.

    The span lands in the active telemetry context
    (:mod:`repro.obs.context`): its span tree, metrics registry and
    tracer.  The stack unwinds correctly when the body raises: the
    handle is popped and the elapsed time recorded either way.

    Closing the span builds one ``span.end`` record (see
    :class:`~repro.obs.events.SpanEnd`) when the tracer is on or a
    :class:`~repro.obs.tracectx.TraceContext` with a spool is active,
    and hands that same dict to both.  Under a context the record also
    carries the span's trace identity; ``attrs`` ride along there only
    (never into metric names, which must stay low-cardinality).
    """
    from repro.obs import context, tracectx

    bundle = context.active()
    tree, metrics, tracer = bundle.spans, bundle.metrics, bundle.tracer

    handle = SpanHandle(name, events)
    stack = tree.stack()
    path = tuple(h.name for h in stack) + (name,)
    stack.append(handle)
    ctx = tracectx.current()
    if ctx is not None:
        span_id, parent_id = ctx.enter_span()
        start_ts = time.time()
    start = time.perf_counter()
    try:
        yield handle
    finally:
        elapsed = time.perf_counter() - start
        stack.pop()
        self_seconds = elapsed - handle.child_seconds
        if self_seconds < 0.0:
            self_seconds = 0.0
        if stack:
            stack[-1].child_seconds += elapsed
        tree.record(path, elapsed, self_seconds, handle.events)
        dotted = ".".join(path)
        metrics.counter(f"span_{dotted}_seconds_total").inc(elapsed)
        metrics.counter(f"span_{dotted}_calls_total").inc()
        spool = ctx.spool if ctx is not None else None
        if tracer.enabled or spool is not None:
            record = {
                "type": SpanEnd.type, "name": name,
                "path": PATH_SEP.join(path), "depth": len(path),
                "seconds": elapsed, "self_seconds": self_seconds,
                "events": handle.events,
            }
            if ctx is not None:
                record.update(
                    trace_id=ctx.trace_id, span_id=span_id,
                    parent_id=parent_id, start_ts=start_ts,
                    service=ctx.service, pid=os.getpid(),
                )
                if ctx.attrs or attrs:
                    record["attrs"] = {**ctx.attrs, **(attrs or {})}
            if spool is not None:
                spool.write(record)
            if tracer.enabled:
                tracer.emit_record(record)
        if ctx is not None:
            ctx.exit_span(span_id)


def read_span(record, traced=False):
    """One finished-span record with its optional fields filled in.

    The one reader of ``span.end`` records, for ``trace-report`` (the
    event log) and ``trace show`` (the spools).  Returns None when
    ``record`` has no ``name`` or ``seconds`` or, with
    ``traced=True``, no ``trace_id``, ``span_id`` or ``start_ts``.
    """
    required = _TRACED_KEYS if traced else _SPAN_KEYS
    if not isinstance(record, dict) or any(
            key not in record for key in required):
        return None
    return {
        "path": record["name"], "self_seconds": record["seconds"],
        "events": 0, "trace_id": None, "span_id": None,
        "parent_id": None, "start_ts": None, "service": "?", "pid": 0,
        "attrs": None, **record,
    }
