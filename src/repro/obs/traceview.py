"""The trace aggregator: merge per-process spools into one timeline.

``python -m repro trace show <trace_id>`` reads every
``spans-<pid>.jsonl`` spool in a trace directory (torn-tail
tolerantly, like the campaign journal), filters to one trace, and
rebuilds the cross-process span tree from the ``span_id``/
``parent_id`` edges that :mod:`repro.obs.tracectx` recorded.  The
result is a single coherent timeline even when the spans came from a
serve daemon thread, a campaign scheduler, and N forked shard workers:

- every span is *parented* — its ``parent_id`` is either ``None``
  (a trace root) or another span in the same trace.  Spans whose
  parent record is missing (e.g. a worker outlived its torn spool
  line) are reported as **orphans** and attached under a synthetic
  root so nothing disappears silently;
- per-span *derived self time* is recomputed from the merged tree
  (``seconds`` minus the direct children's ``seconds``, clamped at
  zero), so a parent that merely waited on child processes is not
  double-counted;
- the per-process summary shows which services/pids participated and
  how much wall-clock each contributed.

``--json`` output is pinned by ``docs/schemas/trace.schema.json`` and
validated with the same dependency-free checker the explain/profile
CLIs use; ``--folded`` emits flamegraph-style stack lines.
"""

import argparse
import json
import os
import sys

from repro.obs.explain import load_schema, validate_explain
from repro.obs.jsonl import iter_records
from repro.obs.spans import read_span
from repro.obs.tracectx import SPOOL_PREFIX, SPOOL_SUFFIX, TRACE_DIR_ENV


def spool_paths(directory):
    """All span spool files in ``directory``, sorted by name."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    return [
        os.path.join(directory, name)
        for name in names
        if name.startswith(SPOOL_PREFIX) and name.endswith(SPOOL_SUFFIX)
    ]


def read_spools(directory):
    """``(records, spool_files, corrupt)`` across every spool file.

    Each record is a :func:`~repro.obs.spans.read_span` dict.
    ``corrupt`` counts both torn/malformed JSON lines and records
    without a trace identity — the aggregator never raises on a live,
    still-being-written trace directory.
    """
    records = []
    corrupt = 0
    paths = spool_paths(directory)
    for path in paths:
        bad = []
        try:
            for raw in iter_records(path, strict=False, corrupt=bad):
                record = read_span(raw, traced=True)
                if record is None:
                    corrupt += 1
                else:
                    records.append(record)
        except OSError:
            continue
        corrupt += len(bad)
    return records, len(paths), corrupt


def list_traces(directory):
    """Per-trace summaries for every trace in ``directory``.

    Returns a list of dicts (newest first) with ``trace_id``, span
    count, participating services, and the trace's start/duration.
    """
    records, _files, _corrupt = read_spools(directory)
    traces = {}
    for record in records:
        traces.setdefault(record["trace_id"], []).append(record)
    out = []
    for trace_id, spans in traces.items():
        start = min(r["start_ts"] for r in spans)
        end = max(r["start_ts"] + r["seconds"] for r in spans)
        out.append({
            "trace_id": trace_id,
            "spans": len(spans),
            "services": sorted({r["service"] for r in spans}),
            "start_ts": start,
            "wall_seconds": end - start,
        })
    out.sort(key=lambda e: e["start_ts"], reverse=True)
    return out


def build_timeline(directory, trace_id):
    """The merged cross-process timeline for one trace (JSON-ready).

    Raises :class:`ValueError` when the trace has no spans at all.
    """
    records, files, corrupt = read_spools(directory)
    matching = [r for r in records if r["trace_id"] == trace_id]
    if not matching:
        raise ValueError(
            f"no spans for trace {trace_id!r} in {directory} "
            f"({files} spool files scanned)"
        )

    by_id = {}
    for record in matching:
        # Last write wins on a duplicated span id (astronomically
        # unlikely with 64-bit random ids).
        by_id[record["span_id"]] = record

    children = {}
    roots = []
    orphans = set()
    for span_id, record in by_id.items():
        parent = record["parent_id"]
        if parent is None:
            roots.append(span_id)
        elif parent in by_id:
            children.setdefault(parent, []).append(span_id)
        else:
            orphans.add(span_id)

    # Derived self time from the merged tree: a span's own seconds
    # minus its direct children's, clamped at zero (children may run
    # in parallel processes and legitimately overlap).
    child_seconds = {}
    for parent, kids in children.items():
        child_seconds[parent] = sum(by_id[k]["seconds"] for k in kids)

    def depth_of(span_id):
        depth = 0
        seen = set()
        current = by_id[span_id]["parent_id"]
        while current in by_id and current not in seen:
            seen.add(current)
            depth += 1
            current = by_id[current]["parent_id"]
        return depth

    start_ts = min(r["start_ts"] for r in matching)
    end_ts = max(r["start_ts"] + r["seconds"] for r in matching)

    spans = []
    for span_id, record in by_id.items():
        derived = record["seconds"] - child_seconds.get(span_id, 0.0)
        if derived < 0.0:
            derived = 0.0
        span = {
            "span_id": span_id,
            "parent_id": record["parent_id"],
            "name": record["name"],
            "path": record["path"],
            "service": record["service"],
            "pid": record["pid"],
            "start_ts": record["start_ts"],
            "offset_seconds": record["start_ts"] - start_ts,
            "seconds": record["seconds"],
            "self_seconds": record["self_seconds"],
            "derived_self_seconds": derived,
            "events": record["events"],
            "depth": depth_of(span_id),
            "orphan": span_id in orphans,
        }
        if record["attrs"]:
            span["attrs"] = record["attrs"]
        spans.append(span)
    spans.sort(key=lambda s: (s["start_ts"], s["depth"], s["span_id"]))

    processes = {}
    for span in spans:
        key = (span["service"], span["pid"])
        entry = processes.setdefault(key, {
            "service": span["service"], "pid": span["pid"],
            "spans": 0, "seconds": 0.0, "self_seconds": 0.0,
        })
        entry["spans"] += 1
        entry["seconds"] += span["seconds"]
        entry["self_seconds"] += span["derived_self_seconds"]

    root_seconds = sum(by_id[r]["seconds"] for r in roots)
    total_self = sum(s["derived_self_seconds"] for s in spans)
    return {
        "trace_id": trace_id,
        "spans": spans,
        "span_count": len(spans),
        "roots": sorted(roots),
        "orphans": sorted(orphans),
        "processes": sorted(
            processes.values(),
            key=lambda e: (e["service"], e["pid"]),
        ),
        "start_ts": start_ts,
        "wall_seconds": end_ts - start_ts,
        "root_seconds": root_seconds,
        "total_self_seconds": total_self,
        "spool_files": files,
        "corrupt_lines": corrupt,
    }


def format_timeline(data):
    """Human-readable cross-process timeline, one line per span."""
    lines = [
        f"trace {data['trace_id']}",
        f"  {data['span_count']} spans across "
        f"{len(data['processes'])} processes, "
        f"wall {data['wall_seconds']:.3f}s"
        + (f", {len(data['orphans'])} orphans" if data["orphans"]
           else ""),
    ]
    if data["corrupt_lines"]:
        lines.append(
            f"  warning: skipped {data['corrupt_lines']} corrupt "
            f"spool lines"
        )
    lines.append("")
    lines.append("  processes:")
    for proc in data["processes"]:
        lines.append(
            f"    {proc['service']:<16} pid {proc['pid']:<8}"
            f" {proc['spans']:>4} spans"
            f"  {proc['self_seconds']:8.3f}s self"
        )
    lines.append("")
    lines.append(
        "   offset   duration       self  service          span"
    )
    for span in data["spans"]:
        label = "  " * span["depth"] + span["name"]
        flags = []
        if span["orphan"]:
            flags.append("ORPHAN")
        attrs = span.get("attrs") or {}
        for key in sorted(attrs):
            flags.append(f"{key}={attrs[key]}")
        suffix = f"  [{' '.join(flags)}]" if flags else ""
        lines.append(
            f"  {span['offset_seconds']:7.3f}s"
            f" {span['seconds']:8.3f}s"
            f" {span['derived_self_seconds']:9.3f}s"
            f"  {span['service']:<16} {label}{suffix}"
        )
    return "\n".join(lines)


def folded_timeline(data):
    """Flamegraph-style folded stacks (service;names... self_ms)."""
    by_id = {span["span_id"]: span for span in data["spans"]}
    lines = []
    for span in data["spans"]:
        names = [span["name"]]
        seen = {span["span_id"]}
        parent = span["parent_id"]
        while parent in by_id and parent not in seen:
            seen.add(parent)
            names.append(by_id[parent]["name"])
            parent = by_id[parent]["parent_id"]
        names.append(span["service"])
        stack = ";".join(reversed(names))
        weight = max(
            int(round(span["derived_self_seconds"] * 1_000_000)), 0
        )
        lines.append(f"{stack} {weight}")
    return "\n".join(lines) + "\n"


def format_trace_list(entries):
    if not entries:
        return "no traces recorded"
    lines = ["traces (newest first):"]
    for entry in entries:
        lines.append(
            f"  {entry['trace_id']}  {entry['spans']:>5} spans"
            f"  {entry['wall_seconds']:8.3f}s"
            f"  {','.join(entry['services'])}"
        )
    return "\n".join(lines)


def _default_dir(value):
    if value:
        return value
    return os.environ.get(TRACE_DIR_ENV) or "results/trace"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Merge per-process span spools into one cross-process "
            "timeline (see docs/observability.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser(
        "show", help="render the merged timeline for one trace id"
    )
    show.add_argument("trace_id", help="the 32-hex trace id")
    show.add_argument(
        "--dir", default=None, metavar="DIR",
        help=f"trace spool directory (default: ${TRACE_DIR_ENV} "
             f"or results/trace)",
    )
    show.add_argument(
        "--json", action="store_true",
        help="emit the schema-pinned JSON timeline instead of text",
    )
    show.add_argument(
        "--folded", action="store_true",
        help="emit flamegraph-style folded stacks",
    )
    show.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )

    lst = sub.add_parser("list", help="list traces in a spool directory")
    lst.add_argument("--dir", default=None, metavar="DIR")

    args = parser.parse_args(argv)
    directory = _default_dir(args.dir)

    if args.command == "list":
        print(format_trace_list(list_traces(directory)))
        return 0

    if args.json and args.folded:
        parser.error("--json and --folded are mutually exclusive")
    try:
        data = build_timeline(directory, args.trace_id)
    except ValueError as exc:
        print(f"python -m repro trace: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        errors = validate_explain(data, load_schema("trace"))
        if errors:
            for error in errors:
                print(f"schema violation: {error}", file=sys.stderr)
            return 2
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    elif args.folded:
        text = folded_timeline(data)
    else:
        text = format_timeline(data) + "\n"
    if args.output:
        from repro.ioutil import ensure_parent

        ensure_parent(args.output)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[trace] written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0
