"""``python -m repro explain``: estimate vs. observed, per static branch.

Joins the :class:`~repro.obs.ledger.SelectionLedger` (who marked or
rejected each candidate, under which rule, at what estimated cost) with
the :class:`~repro.obs.ledger.RuntimeLedger` (what the simulator then
measured per pc) for one workload under one selection config.  The
output answers the question the paper's §4 cost model begs: *was the
estimate right?*  For every selected branch the observed net benefit is

    observed_benefit = flushes_avoided · misp_penalty
    observed_overhead = (wrong_path_insts + select_uops) / fetch_width
    observed_net = observed_benefit − observed_overhead

in the same units as Equation (1)'s ``dpred_cost`` (fetch cycles;
``est_net_benefit = −dpred_cost`` per episode), so a branch whose
per-episode observed net disagrees in *sign* with the estimate is
flagged ``misestimated``.

The join also powers ``campaign report --explain``
(:func:`cell_ledger_summary` is the compact per-cell form journaled
next to the cache counters) and the CI smoke test
(:func:`validate_explain` checks the ``--json`` output against
``docs/schemas/explain.schema.json`` without needing the jsonschema
package).
"""

import argparse
import json
import os
import sys

from repro.errors import WorkloadError
from repro.obs.ledger import RUNTIME_COUNTERS, RuntimeLedger, SelectionLedger


# ---------------------------------------------------------------------------
# The join
# ---------------------------------------------------------------------------


def observed_outcome(counters, cost_params):
    """Observed cost/benefit (Equation-1 units) from runtime counters.

    ``counters`` is a named counter dict
    (:meth:`~repro.obs.ledger.RuntimeLedger.branch`); returns a dict
    with total and per-episode cycles.
    """
    fetch_width = max(1, cost_params.fetch_width)
    overhead = (
        counters["wrong_path_insts"] + counters["select_uops"]
    ) / fetch_width
    benefit = counters["flushes_avoided"] * cost_params.misp_penalty
    net = benefit - overhead
    episodes = counters["episodes"]
    return {
        "overhead_cycles": overhead,
        "benefit_cycles": benefit,
        "net_cycles": net,
        "net_per_episode": (net / episodes) if episodes else 0.0,
    }


def _is_misestimated(decision, counters, observed):
    """Sign disagreement between the estimate and the measurement.

    Only meaningful for selected branches that actually entered
    dpred-mode and carried a cost-model estimate.
    """
    if decision.verdict != "selected":
        return False
    if decision.est_cost is None or not counters["episodes"]:
        return False
    est_net = decision.est_net_benefit
    return (est_net >= 0.0) != (observed["net_per_episode"] >= 0.0)


def join_ledgers(selection, runtime, cost_params):
    """Per-branch join of compile-time verdicts and runtime outcomes.

    Returns ``(branches, summary)``: a list of per-branch entries
    (selection decisions first, then runtime-only pcs such as return
    flush sites) and the run-level summary.
    """
    final = selection.final()
    entries = []
    pcs = sorted(set(final) | set(runtime.pcs()))
    for pc in pcs:
        decision = final.get(pc)
        counters = runtime.branch(pc)
        observed = observed_outcome(counters, cost_params)
        if decision is not None:
            # A transform pass records the branches it removed with
            # reason "melded"; report them under their own verdict so
            # the join never claims a rewritten-away pc is missing.
            verdict = decision.verdict
            if verdict == "rejected" and decision.reason == "melded":
                verdict = "melded"
            entry = {
                "branch_pc": pc,
                "verdict": verdict,
                "pass": decision.pass_name,
                "reason": decision.reason,
                "rule": decision.rule,
                "kind": decision.kind,
                "est": {
                    "overhead": decision.est_overhead,
                    "cost": decision.est_cost,
                    "net_benefit": decision.est_net_benefit,
                    "flush_savings": decision.est_flush_savings,
                    "merge_prob": decision.merge_prob,
                },
                "decisions": len(selection.history(pc)),
            }
        else:
            entry = {
                "branch_pc": pc,
                "verdict": "unconsidered",
                "pass": "",
                "reason": "",
                "rule": "",
                "kind": "",
                "est": {
                    "overhead": None,
                    "cost": None,
                    "net_benefit": None,
                    "flush_savings": None,
                    "merge_prob": None,
                },
                "decisions": 0,
            }
        entry["runtime"] = counters
        entry["observed"] = observed
        entry["misestimated"] = (
            _is_misestimated(decision, counters, observed)
            if decision is not None else False
        )
        entries.append(entry)

    totals = runtime.totals()
    reconciliation = runtime.reconcile()
    counts = selection.counts()
    misestimated = sorted(
        e["branch_pc"] for e in entries if e["misestimated"]
    )
    summary = {
        "selected": counts["selected"],
        "rejected": counts["rejected"],
        "melded": sum(1 for e in entries if e["verdict"] == "melded"),
        "decisions": counts["decisions"],
        "episodes": totals["episodes"],
        "episodes_merged": totals["merged"],
        "flushes_avoided": totals["flushes_avoided"],
        "flushes_taken": totals["flushes"],
        "observed_net_cycles": sum(
            e["observed"]["net_cycles"] for e in entries
            if e["verdict"] == "selected"
        ),
        "misestimated": misestimated,
        "consistent": reconciliation["consistent"],
    }
    return entries, summary


def build_explain(workload, selection_config, input_set="reduced",
                  scale=1.0, processor_config=None):
    """Run profile → select → simulate with ledgers and join them.

    Program-rewriting configs (``meld=...``) take the meld-aware path:
    the simulator runs the *melded* trace, and both ledgers are
    translated back into original pc space so the report lines up with
    the original disassembly — branches the transform removed appear
    with verdict ``"melded"`` instead of going missing.
    """
    from repro.experiments.runner import run_selection

    if getattr(selection_config, "meld", None) is not None:
        return _build_explain_melded(
            workload, selection_config, input_set, scale,
            processor_config,
        )
    selection = SelectionLedger()
    runtime = RuntimeLedger()
    stats, annotation = run_selection(
        workload, selection_config,
        input_set=input_set, scale=scale, config=processor_config,
        selection_ledger=selection, runtime_ledger=runtime,
    )
    return _assemble_explain(
        workload, selection_config, input_set, scale,
        stats, selection, runtime, len(annotation),
    )


def _build_explain_melded(workload, selection_config, input_set, scale,
                          processor_config):
    """The meld-aware explain path (see :func:`build_explain`)."""
    from repro.experiments.meldcompare import melded_run
    from repro.uarch import make_simulator

    selection = SelectionLedger()
    runtime = RuntimeLedger()
    state, program, trace = melded_run(
        workload, selection_config, input_set=input_set, scale=scale,
        ledger=selection,
    )
    stats = make_simulator(
        program, config=processor_config, annotation=state.annotation,
        ledger=runtime,
    ).run(trace, label=f"{workload}/{selection_config.name}")
    melded_pcs = []
    if state.transform is not None:
        # Post-meld decisions and runtime counters carry melded-program
        # pcs; the removal records (reason "melded") are already in
        # original pc space and must not be translated.
        inverse = state.transform.inverse_pc_map()
        selection = selection.remapped(inverse, keep_reasons=("melded",))
        runtime = runtime.remapped(inverse)
        melded_pcs = sorted(state.transform.melded)
    data = _assemble_explain(
        workload, selection_config, input_set, scale,
        stats, selection, runtime, len(state.annotation),
    )
    data["melded_branches"] = melded_pcs
    return data


def _assemble_explain(workload, selection_config, input_set, scale,
                      stats, selection, runtime, annotated_branches):
    branches, summary = join_ledgers(
        selection, runtime, selection_config.cost_params
    )
    return {
        "workload": workload,
        "config": selection_config.name,
        "scale": scale,
        "input_set": input_set,
        "run": {
            "label": stats.label,
            "cycles": stats.cycles,
            "retired_instructions": stats.retired_instructions,
            "ipc": stats.ipc,
            "mispredictions": stats.mispredictions,
            "pipeline_flushes": stats.pipeline_flushes,
            "dpred_episodes": stats.dpred_episodes,
            "dpred_episodes_merged": stats.dpred_episodes_merged,
            "dpred_flushes_avoided": stats.dpred_flushes_avoided,
            "dpred_wrong_path_insts": stats.dpred_wrong_path_insts,
            "dpred_select_uops": stats.dpred_select_uops,
        },
        "selection": selection.counts(),
        "reconciliation": runtime.reconcile(),
        "branches": branches,
        "summary": summary,
        "annotated_branches": annotated_branches,
        "history": {
            str(pc): [d.as_dict() for d in selection.history(pc)]
            for pc in sorted(
                {d.branch_pc for d in selection.decisions}
            )
        },
    }


def cell_ledger_summary(selection, runtime, cost_params):
    """The compact per-cell form a campaign journals with each cell.

    Small enough to live in the journal (no per-branch counter lists),
    rich enough for ``campaign report --explain``: decision counts,
    episode outcome totals, the observed net cycles over selected
    branches, the misestimated pcs, and the reconciliation flag.
    """
    branches, summary = join_ledgers(selection, runtime, cost_params)
    return {
        "selected": summary["selected"],
        "rejected": summary["rejected"],
        "episodes": summary["episodes"],
        "flushes_avoided": summary["flushes_avoided"],
        "flushes_taken": summary["flushes_taken"],
        "observed_net_cycles": round(summary["observed_net_cycles"], 3),
        "misestimated": summary["misestimated"],
        "consistent": summary["consistent"],
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt(value, digits=1):
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def format_explain(data, branch=None, top=10):
    """Render :func:`build_explain` output as plain text."""
    run = data["run"]
    summary = data["summary"]
    lines = [
        f"explain: {data['workload']} under {data['config']} "
        f"(scale {data['scale']:g})",
        f"  run: {run['cycles']} cycles, "
        f"{run['retired_instructions']} insts (IPC {run['ipc']:.3f}), "
        f"{run['pipeline_flushes']} flushes, "
        f"{run['dpred_episodes']} episodes "
        f"({run['dpred_episodes_merged']} merged, "
        f"{run['dpred_flushes_avoided']} flushes avoided)",
        f"  selection: {summary['selected']} selected, "
        f"{summary['rejected']} rejected"
        + (f", {summary['melded']} melded (statically if-converted)"
           if summary.get("melded") else "")
        + f" ({summary['decisions']} decisions)",
        "  ledger reconciliation vs run totals: "
        + ("EXACT" if summary["consistent"] else "MISMATCH"),
    ]
    if data.get("corrupt_lines"):
        lines.append(
            f"  WARNING: skipped {data['corrupt_lines']} corrupt trace "
            f"line(s) — torn tail from a crash?"
        )

    if branch is not None:
        return "\n".join(lines + _branch_detail(data, branch))

    selected = [
        e for e in data["branches"] if e["verdict"] == "selected"
    ]
    if selected:
        ranked = sorted(
            selected, key=lambda e: -abs(e["observed"]["net_cycles"])
        )[:top]
        lines.append("")
        lines.append(
            f"selected branches by |observed net cycles| (top {top}):"
        )
        lines.append(
            "    pc      pass    rule                 est/ep   obs/ep"
            "   net-cycles  episodes  flag"
        )
        for entry in ranked:
            observed = entry["observed"]
            lines.append(
                f"    {entry['branch_pc']:<7} {entry['pass']:<7} "
                f"{entry['rule']:<20} "
                f"{_fmt(entry['est']['net_benefit']):>7} "
                f"{_fmt(observed['net_per_episode']):>7} "
                f"{observed['net_cycles']:>11.1f} "
                f"{entry['runtime']['episodes']:>9}  "
                f"{'MISESTIMATED' if entry['misestimated'] else ''}"
            )
        lines.append(
            f"  observed net over selected branches: "
            f"{summary['observed_net_cycles']:.1f} cycles"
        )

    if summary["misestimated"]:
        lines.append("")
        lines.append(
            f"mis-estimated branches (estimate and observation disagree "
            f"in sign): {len(summary['misestimated'])}"
        )
        for pc in summary["misestimated"]:
            entry = next(
                e for e in data["branches"] if e["branch_pc"] == pc
            )
            lines.append(
                f"    pc {pc}: est {_fmt(entry['est']['net_benefit'])} "
                f"cycles/episode, observed "
                f"{_fmt(entry['observed']['net_per_episode'])} "
                f"over {entry['runtime']['episodes']} episodes "
                f"(selected by {entry['pass']} via {entry['rule']})"
            )
    else:
        lines.append("")
        lines.append("no mis-estimated branches (all estimates agree "
                     "in sign with the measurements)")
    return "\n".join(lines)


def _branch_detail(data, branch):
    """The ``--branch PC`` drill-down: full history + outcomes."""
    lines = [""]
    entry = next(
        (e for e in data["branches"] if e["branch_pc"] == branch), None
    )
    if entry is None:
        lines.append(f"branch pc {branch}: never considered and never "
                     f"seen at runtime")
        return lines
    lines.append(
        f"branch pc {branch}: {entry['verdict']}"
        + (f" by pass {entry['pass']!r} via rule {entry['rule']!r}"
           if entry["pass"] else "")
    )
    history = data.get("history", {}).get(str(branch), [])
    if history:
        lines.append("  decision history (pipeline order):")
        for decision in history:
            cost = decision.get("est_cost")
            lines.append(
                f"    [{decision['pass']}] {decision['verdict']} "
                f"({decision['reason']}; rule {decision['rule']}"
                + (f"; dpred_cost {cost:.2f}" if cost is not None else "")
                + ")"
            )
    est = entry["est"]
    if est["cost"] is not None:
        lines.append(
            f"  estimate: overhead {_fmt(est['overhead'], 2)} "
            f"cycles/episode, cost {_fmt(est['cost'], 2)} "
            f"(net {_fmt(est['net_benefit'], 2)}), "
            f"flush savings {_fmt(est['flush_savings'], 2)}, "
            f"merge prob {_fmt(est['merge_prob'], 3)}"
        )
    runtime = entry["runtime"]
    lines.append(
        "  runtime: "
        + ", ".join(f"{name} {runtime[name]}"
                    for name in RUNTIME_COUNTERS)
    )
    observed = entry["observed"]
    lines.append(
        f"  observed: benefit {observed['benefit_cycles']:.1f} − "
        f"overhead {observed['overhead_cycles']:.1f} = net "
        f"{observed['net_cycles']:.1f} cycles "
        f"({observed['net_per_episode']:.2f}/episode)"
        + ("  MISESTIMATED" if entry["misestimated"] else "")
    )
    return lines


# ---------------------------------------------------------------------------
# Minimal JSON-schema validation (the container has no jsonschema)
# ---------------------------------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


#: The checked-in schemas ship next to the code so every CLI can
#: self-validate anywhere.
SCHEMA_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "docs", "schemas",
)


def load_schema(name):
    """The checked-in ``docs/schemas/<name>.schema.json`` as a dict."""
    path = os.path.join(SCHEMA_DIR, f"{name}.schema.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def validate_explain(data, schema, path="$"):
    """Validate ``data`` against a small JSON-schema subset.

    Supports ``type`` (string or list), ``properties``, ``required``,
    ``items``, ``enum``, and ``additionalProperties: false`` — enough
    for ``docs/schemas/explain.schema.json``.  Returns a list of
    ``"path: message"`` strings (empty = valid).
    """
    errors = []
    expected = schema.get("type")
    if expected is not None:
        types = [expected] if isinstance(expected, str) else expected
        if not any(_TYPE_CHECKS[t](data) for t in types):
            errors.append(
                f"{path}: expected {'|'.join(types)}, "
                f"got {type(data).__name__}"
            )
            return errors
    if "enum" in schema and data not in schema["enum"]:
        errors.append(f"{path}: {data!r} not in enum {schema['enum']}")
    if isinstance(data, dict):
        for name in schema.get("required", ()):
            if name not in data:
                errors.append(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        for name, subschema in properties.items():
            if name in data:
                errors.extend(validate_explain(
                    data[name], subschema, f"{path}.{name}"
                ))
        if schema.get("additionalProperties") is False:
            for name in data:
                if name not in properties:
                    errors.append(f"{path}: unexpected key {name!r}")
    if isinstance(data, list) and "items" in schema:
        for index, item in enumerate(data):
            errors.extend(validate_explain(
                item, schema["items"], f"{path}[{index}]"
            ))
    return errors


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
    # Case-insensitive: the paper's figure legends capitalize
    # ("All-best-cost") while the registry is lowercase.
    name = args.config.lower()
    try:
        return registry.resolve(name)
    except KeyError as exc:
        parser.error(exc.args[0])


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description=(
            "Attribute runtime dpred outcomes back to compile-time "
            "selection decisions for one workload."
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
    parser.add_argument(
        "--branch", type=lambda s: int(s, 0), default=None, metavar="PC",
        help="drill into one branch pc (decimal or 0x hex)",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="branches shown in the text report (default 10)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full join as JSON instead of text",
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout "
             "(parent directories are created)",
    )
    args = parser.parse_args(argv)
    selection_config = _resolve_config(args, parser)

    try:
        data = build_explain(
            args.workload, selection_config,
            input_set=args.input_set, scale=args.scale,
        )
    except (KeyError, WorkloadError) as exc:
        print(f"python -m repro explain: error: {exc.args[0]}",
              file=sys.stderr)
        return 1

    if args.json:
        from repro.jsontext import dumps_sorted

        text = dumps_sorted(data) + "\n"
    else:
        text = format_explain(
            data, branch=args.branch, top=args.top
        ) + "\n"

    if args.output:
        from repro.ioutil import ensure_parent

        with open(ensure_parent(args.output), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
        print(f"[obs] explain report written to {args.output}")
    else:
        sys.stdout.write(text)
    if not data["reconciliation"]["consistent"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
