"""Offline summarization of a JSONL event trace.

``python -m repro trace-report OUT.jsonl`` answers the questions a raw
log cannot: which branches' dpred episodes merge vs. get squashed,
where the remaining pipeline flushes come from, and what the selector
decided (and why).  The summary also reconciles per-event counts
against the ``sim.run.end`` totals — a mismatch means events were
dropped, which would make any trace-driven diagnosis untrustworthy.
"""

from collections import Counter as TallyCounter

from repro.obs.jsonl import iter_records
from repro.obs.spans import read_span


def summarize_trace(path, trace_id=None):
    """Aggregate one JSONL trace log into a summary dict.

    ``trace_id``, when given, keeps only events stamped with that
    distributed trace id (see docs/observability.md) — events without
    a ``trace_id`` field are filtered out too, so the summary covers
    exactly one request/campaign.  ``trace_ids`` in the returned dict
    tallies every id seen before filtering, so a wrong ``--trace-id``
    is diagnosable from the report itself.
    """
    by_type = TallyCounter()
    trace_ids = TallyCounter()
    filtered_events = 0
    branches = {}
    flush_sources = TallyCounter()
    selection = {
        "selected": 0,
        "rejected": 0,
        "selected_by_source": TallyCounter(),
        "rejected_by_reason": TallyCounter(),
    }
    runs = []
    run_starts = TallyCounter()
    spans = {}
    total = 0
    corrupt = []

    def branch_entry(pc):
        entry = branches.get(pc)
        if entry is None:
            entry = branches[pc] = {
                "episodes": 0,
                "merged": 0,
                "unmerged": 0,
                "flushed": 0,
                "flushes_avoided": 0,
                "wrong_path_insts": 0,
                "select_uops": 0,
            }
        return entry

    # Torn-tail tolerant: a crash mid-write truncates the final line;
    # everything durably written before it still summarizes.
    for record in iter_records(path, strict=False, corrupt=corrupt):
        record_trace = record.get("trace_id")
        if record_trace:
            trace_ids[record_trace] += 1
        if trace_id is not None and record_trace != trace_id:
            filtered_events += 1
            continue
        total += 1
        kind = record.get("type", "unknown")
        by_type[kind] += 1
        if kind == "dpred.episode.start":
            entry = branch_entry(record["branch_pc"])
            entry["episodes"] += 1
            entry["wrong_path_insts"] += record.get("wrong_path_insts", 0)
            if record.get("mispredicted"):
                entry["flushes_avoided"] += 1
        elif kind == "dpred.episode.merge":
            entry = branch_entry(record["branch_pc"])
            entry["merged"] += 1
            entry["select_uops"] += record.get("select_uops", 0)
        elif kind == "dpred.episode.end":
            branch_entry(record["branch_pc"])["unmerged"] += 1
        elif kind == "dpred.episode.flush":
            branch_entry(record["branch_pc"])["flushed"] += 1
        elif kind == "dpred.episode.extend":
            entry = branch_entry(record["branch_pc"])
            entry["flushes_avoided"] += 1
            entry["wrong_path_insts"] += record.get("extra_insts", 0)
        elif kind == "uarch.pipeline.flush":
            flush_sources[(record["pc"], record.get("source", ""))] += 1
        elif kind == "select.branch.selected":
            selection["selected"] += 1
            selection["selected_by_source"][record.get("source", "")] += 1
        elif kind == "select.branch.rejected":
            selection["rejected"] += 1
            selection["rejected_by_reason"][record.get("reason", "")] += 1
        elif kind == "sim.run.start":
            run_starts[record.get("label", "")] += 1
        elif kind == "sim.run.end":
            runs.append({
                "label": record.get("label", ""),
                "cycles": record.get("cycles", 0),
                "retired_instructions": record.get(
                    "retired_instructions", 0),
                "pipeline_flushes": record.get("pipeline_flushes", 0),
                "dpred_episodes": record.get("dpred_episodes", 0),
                "dpred_episodes_merged": record.get(
                    "dpred_episodes_merged", 0),
            })
        elif kind == "span.end":
            finished = read_span(record)
            if finished is None:
                continue
            entry = spans.setdefault(finished["path"], {
                "seconds": 0.0, "self_seconds": 0.0,
                "events": 0, "calls": 0, "span_ids": [],
            })
            entry["seconds"] += finished["seconds"]
            entry["self_seconds"] += finished["self_seconds"]
            entry["events"] += finished["events"]
            entry["calls"] += 1
            if finished["span_id"]:
                entry["span_ids"].append(finished["span_id"])

    # A run that started but never wrote its end dropped the events
    # its totals would reconcile.
    run_ends = TallyCounter(run["label"] for run in runs)
    reconciliation = {
        "run_starts": sum(run_starts.values()),
        "run_ends": len(runs),
        "unmatched_run_starts": sum(
            (run_starts - run_ends).values()
        ),
        "episode_starts": by_type.get("dpred.episode.start", 0),
        "episode_merges": by_type.get("dpred.episode.merge", 0),
        "pipeline_flushes": by_type.get("uarch.pipeline.flush", 0),
        "run_dpred_episodes": sum(r["dpred_episodes"] for r in runs),
        "run_dpred_episodes_merged": sum(
            r["dpred_episodes_merged"] for r in runs
        ),
        "run_pipeline_flushes": sum(r["pipeline_flushes"] for r in runs),
    }
    reconciliation["consistent"] = (
        reconciliation["unmatched_run_starts"] == 0
        and reconciliation["episode_starts"]
        == reconciliation["run_dpred_episodes"]
        and reconciliation["episode_merges"]
        == reconciliation["run_dpred_episodes_merged"]
        and reconciliation["pipeline_flushes"]
        == reconciliation["run_pipeline_flushes"]
    )

    return {
        "path": path,
        "trace_id": trace_id,
        "trace_ids": dict(sorted(trace_ids.items())),
        "filtered_events": filtered_events,
        "total_events": total,
        "corrupt_lines": len(corrupt),
        "by_type": dict(sorted(by_type.items())),
        "branches": branches,
        "flush_sources": flush_sources,
        "selection": selection,
        "runs": runs,
        "spans": spans,
        "reconciliation": reconciliation,
    }


def format_trace_report(summary, top=10):
    """Render :func:`summarize_trace` output as plain text."""
    lines = [
        f"trace report: {summary['path']}",
        f"  events: {summary['total_events']}",
    ]
    if summary.get("trace_id"):
        lines.append(
            f"  filtered to trace {summary['trace_id']} "
            f"({summary.get('filtered_events', 0)} events from other "
            f"traces skipped)"
        )
    elif summary.get("trace_ids"):
        ids = summary["trace_ids"]
        lines.append(
            f"  distributed trace ids: {len(ids)} "
            f"(--trace-id filters to one)"
        )
        for tid, count in sorted(
            ids.items(), key=lambda kv: -kv[1]
        )[:top]:
            lines.append(f"    {tid}  {count} events")
    if summary.get("corrupt_lines"):
        lines.append(
            f"  WARNING: skipped {summary['corrupt_lines']} corrupt "
            f"line(s) — torn tail from a crash?"
        )
    for kind, count in summary["by_type"].items():
        lines.append(f"    {kind:<28} {count}")

    branches = summary["branches"]
    if branches:
        lines.append("")
        lines.append(f"per-branch dpred episode outcomes "
                     f"(top {top} by episodes):")
        lines.append(
            "    pc      episodes  merged  unmerged  flushed  "
            "avoided  wrong-path"
        )
        ranked = sorted(
            branches.items(), key=lambda kv: -kv[1]["episodes"]
        )[:top]
        for pc, entry in ranked:
            lines.append(
                f"    {pc:<7} {entry['episodes']:>8}  {entry['merged']:>6}"
                f"  {entry['unmerged']:>8}  {entry['flushed']:>7}"
                f"  {entry['flushes_avoided']:>7}"
                f"  {entry['wrong_path_insts']:>10}"
            )

    flushes = summary["flush_sources"]
    if flushes:
        lines.append("")
        lines.append(f"top {top} pipeline flush sources:")
        for (pc, source), count in flushes.most_common(top):
            lines.append(f"    pc {pc:<7} {source:<20} {count}")

    selection = summary["selection"]
    if selection["selected"] or selection["rejected"]:
        lines.append("")
        lines.append(
            f"selection decisions: {selection['selected']} selected, "
            f"{selection['rejected']} rejected"
        )
        for source, count in sorted(
            selection["selected_by_source"].items()
        ):
            lines.append(f"    selected via {source:<20} {count}")
        for reason, count in sorted(
            selection["rejected_by_reason"].items()
        ):
            lines.append(f"    rejected:    {reason:<20} {count}")

    if summary["runs"]:
        lines.append("")
        lines.append(f"simulation runs: {len(summary['runs'])}")
        for run in summary["runs"][:top]:
            lines.append(
                f"    {run['label'] or '(unlabelled)'}: "
                f"{run['retired_instructions']} insts, "
                f"{run['cycles']} cycles, "
                f"{run['dpred_episodes']} episodes "
                f"({run['dpred_episodes_merged']} merged), "
                f"{run['pipeline_flushes']} flushes"
            )
        if len(summary["runs"]) > top:
            lines.append(f"    ... and {len(summary['runs']) - top} more")

    spans = summary.get("spans", {})
    if spans:
        # Same ordering as the profile CLI's hotspot table: self-time,
        # largest first (ties broken by path for determinism).
        ranked = sorted(
            spans.items(),
            key=lambda kv: (-kv[1]["self_seconds"], kv[0]),
        )[:top]
        with_ids = any(e.get("span_ids") for _, e in ranked)
        lines.append("")
        lines.append(f"top {top} spans by self-time:")
        lines.append(
            "    path                          self-s    total-s"
            "   calls      events"
            + ("  span-id" if with_ids else "")
        )
        for path, entry in ranked:
            row = (
                f"    {path:<28} {entry['self_seconds']:8.3f} "
                f"{entry['seconds']:10.3f} {entry['calls']:>7} "
                f"{entry['events']:>11}"
            )
            if with_ids:
                ids = entry.get("span_ids") or []
                if len(ids) == 1:
                    row += f"  {ids[0]}"
                elif ids:
                    row += f"  {ids[0]} +{len(ids) - 1}"
                else:
                    row += "  -"
            lines.append(row)

    recon = summary["reconciliation"]
    lines.append("")
    lines.append(
        "reconciliation vs sim.run.end totals: "
        + ("OK" if recon["consistent"] else "MISMATCH")
    )
    if recon.get("unmatched_run_starts"):
        lines.append(
            f"    {recon['unmatched_run_starts']} of "
            f"{recon['run_starts']} sim.run.start events have no "
            f"sim.run.end: those runs' events are incomplete"
        )
    lines.append(
        f"    episode starts {recon['episode_starts']} "
        f"(runs say {recon['run_dpred_episodes']}), "
        f"merges {recon['episode_merges']} "
        f"(runs say {recon['run_dpred_episodes_merged']}), "
        f"flushes {recon['pipeline_flushes']} "
        f"(runs say {recon['run_pipeline_flushes']})"
    )
    return "\n".join(lines)
