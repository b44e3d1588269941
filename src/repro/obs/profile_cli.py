"""``python -m repro profile``: where does the simulator's time go?

Runs profile → select → simulate for one workload with the opt-in
:class:`~repro.uarch.SimProfiler` attached and renders the cost
attribution three ways:

- a **hotspot table** of per-component simulator self-time (fetch,
  branch predict, I/D-cache, ROB retire, dpred episodes, wrong-path
  synthesis, dataflow) in self-time order, with each bucket's
  deterministic event count;
- **folded stacks** (``--folded``) in Brendan Gregg's
  ``a;b;leaf <weight>`` format — pipe into ``flamegraph.pl`` or paste
  into speedscope; weights are integer microseconds of self-time;
- machine-readable **JSON** (``--json``) pinned by
  ``docs/schemas/profile.schema.json`` and checked with the same
  dependency-free validator as ``explain``
  (:func:`~repro.obs.explain.validate_explain`).

The per-component buckets are a stopwatch partition of the simulate
region, so they sum (within scheduler noise at the phase boundary) to
the ``simulate`` span's self-time; the report prints that coverage
explicitly.  ``sim.insts_per_sec`` is retired instructions over the
simulate span's self-time.

``--log`` appends the JSON record as one line to a JSONL history file
through :class:`~repro.obs.jsonl.JsonlSink`;
:func:`~repro.obs.jsonl.iter_records` with ``strict=False`` reads it
back, skipping a torn trailing line (a crash mid-append must not
poison the history).
"""

import argparse
import json
import sys

from repro.errors import WorkloadError
from repro.obs.explain import load_schema, validate_explain
from repro.obs.jsonl import JsonlSink
from repro.obs.spans import format_tree
from repro.uarch.profiler import COMPONENTS, EVENT_MEANING


# ---------------------------------------------------------------------------
# Building the profile
# ---------------------------------------------------------------------------


def build_profile(workload, selection_config, input_set="reduced",
                  scale=1.0, processor_config=None):
    """Run profile → select → simulate under fresh telemetry.

    The run happens in its own metrics registry and span tree
    (:func:`~repro.obs.context.run_isolated`), so the returned spans are
    self-contained (an ambient telemetry context, e.g. a figure
    driver's, is not disturbed and does not leak in).  The record's
    ``"engine"`` key names the replay that ran: always
    ``"vectorized"``, the one engine.
    """
    from repro.experiments.runner import run_selection
    from repro.obs.context import run_isolated
    from repro.uarch.profiler import SimProfiler

    profiler = SimProfiler()

    def run():
        return run_selection(
            workload, selection_config,
            input_set=input_set, scale=scale,
            config=processor_config, profiler=profiler,
        )

    (stats, annotation), snapshot = run_isolated(run)
    spans = snapshot["spans"]
    simulate_self = spans.get("simulate", {}).get("self_seconds", 0.0)
    attributed = profiler.total_seconds()
    return {
        "workload": workload,
        "config": selection_config.name,
        "scale": scale,
        "input_set": input_set,
        "engine": "vectorized",
        "run": {
            "label": stats.label,
            "cycles": stats.cycles,
            "retired_instructions": stats.retired_instructions,
            "ipc": stats.ipc,
        },
        "spans": spans,
        "simulate": {
            "self_seconds": simulate_self,
            "attributed_seconds": attributed,
            "coverage": (
                attributed / simulate_self if simulate_self > 0 else 0.0
            ),
            "insts_per_sec": (
                stats.retired_instructions / simulate_self
                if simulate_self > 0 else 0.0
            ),
        },
        "profiler": profiler.as_dict(),
        "annotated_branches": len(annotation),
    }


# ---------------------------------------------------------------------------
# Rendering (pure functions of the data dict, so JSON round-trips render)
# ---------------------------------------------------------------------------


def _hotspot_lines(data):
    """Hotspot table lines from the data dict, self-time order."""
    prof = data["profiler"]
    lines = [
        f"simulator hotspots ({prof['runs']} run(s), "
        f"{prof['total_seconds']:.3f}s attributed):",
        f"  {'component':<15} {'seconds':>9} {'%':>6} "
        f"{'events':>12}  events are",
    ]
    for row in prof["components"]:
        lines.append(
            f"  {row['name']:<15} {row['seconds']:>9.4f} "
            f"{100.0 * row['fraction']:>5.1f}% "
            f"{row['events']:>12}  "
            f"{EVENT_MEANING.get(row['name'], '')}"
        )
    return lines


def format_profile(data):
    """Render :func:`build_profile` output as plain text."""
    run = data["run"]
    sim = data["simulate"]
    engine = data.get("engine")  # absent in pre-engine records
    lines = [
        f"profile: {data['workload']} under {data['config']} "
        f"(scale {data['scale']:g}, input set {data['input_set']}"
        + (f", {engine} engine)" if engine else ")"),
        f"  run: {run['cycles']} cycles, "
        f"{run['retired_instructions']} insts "
        f"(IPC {run['ipc']:.3f}), "
        f"{data['annotated_branches']} annotated branches",
        f"  throughput: {sim['insts_per_sec']:,.0f} simulated insts/sec "
        f"over {sim['self_seconds']:.3f}s simulate self-time",
        f"  attribution: {sim['attributed_seconds']:.3f}s in component "
        f"buckets = {100.0 * sim['coverage']:.1f}% of simulate "
        f"self-time",
        "",
    ]
    lines.extend(format_tree(data["spans"]))
    lines.append("")
    lines.extend(_hotspot_lines(data))
    return "\n".join(lines)


def folded_profile(data):
    """Folded-stack lines (integer-µs self-time weights) for flamegraphs.

    Non-simulate spans appear as ``repro;<path>``; the simulate span's
    self-time is split into its component buckets
    (``repro;simulate;<component>``) with any unattributed remainder
    staying on ``repro;simulate`` itself.
    """
    component_total = sum(
        row["seconds"] for row in data["profiler"]["components"]
    )
    lines = []
    for key in sorted(data["spans"]):
        self_sec = data["spans"][key]["self_seconds"]
        if key == "simulate":
            self_sec = max(0.0, self_sec - component_total)
        micros = int(round(self_sec * 1e6))
        if micros > 0:
            lines.append("repro;" + key.replace("/", ";") + f" {micros}")
    by_name = {
        row["name"]: row["seconds"]
        for row in data["profiler"]["components"]
    }
    for name in COMPONENTS:
        micros = int(round(by_name.get(name, 0.0) * 1e6))
        if micros > 0:
            lines.append(f"repro;simulate;{name} {micros}")
    return lines


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _resolve_config(args, parser):
    from repro.compiler import registry
    from repro.compiler.pipeline import parse_spec

    if args.pipeline:
        try:
            return parse_spec(args.pipeline)
        except ValueError as exc:
            parser.error(str(exc))
    name = args.config.lower()
    try:
        return registry.resolve(name)
    except KeyError as exc:
        parser.error(exc.args[0])


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description=(
            "Attribute the simulator's own wall-clock to per-component "
            "cost buckets for one workload."
        ),
    )
    parser.add_argument("workload", help="benchmark name (e.g. mcf)")
    parser.add_argument(
        "--config", default="all-best-cost",
        help="selection preset (case-insensitive; default "
             "all-best-cost)",
    )
    parser.add_argument(
        "--pipeline", default=None, metavar="SPEC",
        help="explicit pipeline spec instead of --config "
             "(e.g. 'exact,freq,short,ret,loop,cost:edge')",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="trace-length multiplier (default 1.0)",
    )
    parser.add_argument(
        "--input-set", default="reduced",
        help="workload input set (default: reduced)",
    )
    form = parser.add_mutually_exclusive_group()
    form.add_argument(
        "--json", action="store_true",
        help="emit the full profile as schema-pinned JSON "
             "(docs/schemas/profile.schema.json)",
    )
    form.add_argument(
        "--folded", action="store_true",
        help="emit folded stacks (for flamegraph.pl / speedscope) "
             "instead of the report",
    )
    parser.add_argument(
        "--log", default=None, metavar="PATH.jsonl",
        help="also append the JSON record to a JSONL history file",
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout "
             "(parent directories are created)",
    )
    args = parser.parse_args(argv)
    selection_config = _resolve_config(args, parser)

    try:
        data = build_profile(
            args.workload, selection_config,
            input_set=args.input_set, scale=args.scale,
        )
    except (KeyError, WorkloadError) as exc:
        print(f"python -m repro profile: error: {exc.args[0]}",
              file=sys.stderr)
        return 1

    errors = validate_explain(data, load_schema("profile"))
    if errors:
        for error in errors:
            print(f"python -m repro profile: schema violation: {error}",
                  file=sys.stderr)
        return 1

    if args.json:
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    elif args.folded:
        text = "\n".join(folded_profile(data)) + "\n"
    else:
        text = format_profile(data) + "\n"

    if args.log:
        sink = JsonlSink(args.log, append=True)
        try:
            sink.write(data)
        finally:
            sink.close()
        print(f"[obs] profile record appended to {args.log}",
              file=sys.stderr)

    if args.output:
        from repro.ioutil import ensure_parent

        with open(ensure_parent(args.output), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
        print(f"[obs] profile written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
