"""Hierarchical timed spans: where does the wall-clock go, by region?

A *span* is a nestable timed region and the one timing primitive of
the reproduction: ``span("simulate")`` inside ``span("cell")`` records
under the path ``cell/simulate``.  Closing a span builds one
``span.end`` record (:class:`~repro.obs.events.SpanEnd`), and every
view folds that record: :meth:`SpanTree.add` accumulates ``seconds``,
``self_seconds`` (minus the children), ``events`` and ``calls`` per
path; the registry mirrors ``span_<dotted.path>_{seconds,calls}_total``
counters; the ``--trace`` log and an active trace context's spool
write it as is, and ``trace-report`` folds a log back through
:meth:`SpanTree.add`.  Snapshots (:meth:`SpanTree.as_dict`) merge
across ``--jobs N`` workers in plan order, and :meth:`SpanTree.by_name`
is the run manifest's ``phases`` table.

Each thread keeps one stack of open spans (:func:`open_spans`).  A
span's path extends the innermost open span of the same tree, and its
``parent_id`` is the innermost open span of the same trace context, so
serve request threads share one tree without nesting into each other.

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

from repro.obs import tracectx

#: Separator used in snapshot keys ("simulate/fetch") and SpanEnd paths.
PATH_SEP = "/"

_SPAN_KEYS = ("name", "seconds")
_TRACED_KEYS = _SPAN_KEYS + ("trace_id", "span_id", "start_ts")

_LOCAL = threading.local()


class SpanHandle:
    """One open span; the body of ``with span(...)`` may set ``events``.

    ``tree`` and ``path`` place the span in its :class:`SpanTree`;
    ``ctx`` is its trace context, and ``span_id``, ``parent_id`` and
    ``start_ts`` its identity there (``None`` without a context).
    """

    __slots__ = ("path", "events", "child_seconds", "tree", "ctx",
                 "span_id", "parent_id", "start_ts")

    def __init__(self, path, events, tree, ctx):
        self.path = path
        self.events = events
        self.child_seconds = 0.0
        self.tree = tree
        self.ctx = ctx
        self.span_id = self.parent_id = self.start_ts = None


def open_spans():
    """This thread's stack of open :class:`SpanHandle` objects."""
    try:
        return _LOCAL.stack
    except AttributeError:
        stack = _LOCAL.stack = []
        return stack


class SpanTree:
    """Accumulated wall-clock per ``"/"``-joined span path.

    Safe to share between threads: :meth:`add` folds under a lock.
    """

    __slots__ = ("_entries", "_lock")

    def __init__(self):
        self._entries = {}
        self._lock = threading.Lock()

    def add(self, record):
        """Fold one ``span.end`` record into its ``path``.

        A record counts as one call unless it carries ``calls`` (a
        snapshot entry, see :meth:`merge_snapshot`); ``self_seconds``
        defaults to ``seconds`` and ``events`` to 0.
        """
        seconds = record["seconds"]
        with self._lock:
            entry = self._entries.get(record["path"])
            if entry is None:
                entry = self._entries[record["path"]] = {
                    "seconds": 0.0, "self_seconds": 0.0,
                    "events": 0, "calls": 0,
                }
            entry["seconds"] += seconds
            entry["self_seconds"] += record.get("self_seconds", seconds)
            entry["events"] += record.get("events", 0)
            entry["calls"] += record.get("calls", 1)

    def as_dict(self):
        """JSON-ready snapshot keyed by path, parents before children."""
        with self._lock:
            return {
                path: dict(self._entries[path])
                for path in sorted(
                    self._entries, key=lambda path: path.split(PATH_SEP))
            }

    def merge_snapshot(self, snapshot):
        """Fold another tree's :meth:`as_dict` snapshot into this one.

        Per-path addition, applied in the snapshot's own order — the
        parallel engine calls this once per worker payload in plan
        order, so parallel runs aggregate deterministically (sums per
        path; ``seconds`` are total CPU-seconds across workers).
        """
        for path, entry in snapshot.items():
            self.add({**entry, "path": path})
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
    (:mod:`repro.obs.context`).  A raising body still pops the handle
    and builds the record.  Under an active trace context the record
    carries the span's trace identity, and ``attrs`` ride along there
    only (never into metric names, which must stay low-cardinality).
    """
    from repro.obs import context

    bundle = context.active()
    tree = bundle.spans
    stack = open_spans()
    parent = None
    for handle in reversed(stack):
        if handle.tree is tree:
            parent = handle
            break
    path = name if parent is None else parent.path + PATH_SEP + name
    ctx = tracectx.current()
    handle = SpanHandle(path, events, tree, ctx)
    if ctx is not None:
        handle.parent_id = ctx.current_span_id()
        handle.span_id = tracectx.new_span_id()
        handle.start_ts = time.time()
    stack.append(handle)
    start = time.perf_counter()
    try:
        yield handle
    finally:
        elapsed = time.perf_counter() - start
        stack.pop()
        self_seconds = elapsed - handle.child_seconds
        if self_seconds < 0.0:
            self_seconds = 0.0
        if parent is not None:
            parent.child_seconds += elapsed
        record = {
            "type": "span.end", "name": name, "path": path,
            "depth": path.count(PATH_SEP) + 1,
            "seconds": elapsed, "self_seconds": self_seconds,
            "events": handle.events,
        }
        if ctx is not None:
            record.update(
                trace_id=ctx.trace_id, span_id=handle.span_id,
                parent_id=handle.parent_id, start_ts=handle.start_ts,
                service=ctx.service, pid=os.getpid(),
            )
            if ctx.attrs or attrs:
                record["attrs"] = {**ctx.attrs, **(attrs or {})}
        tree.add(record)
        dotted = path.replace(PATH_SEP, ".")
        bundle.metrics.counter(f"span_{dotted}_seconds_total").inc(elapsed)
        bundle.metrics.counter(f"span_{dotted}_calls_total").inc()
        if ctx is not None and ctx.spool is not None:
            ctx.spool.write(record)
        if bundle.tracer.enabled:
            bundle.tracer.emit_record(record)


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
