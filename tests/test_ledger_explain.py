"""The decision ledger and ``explain``: estimate vs. observed, joined.

The tentpole guarantee is *exact* attribution: for every workload and
selection config, the per-branch runtime counters summed over the
ledger must equal the run's :class:`SimStats` totals — otherwise any
per-branch "was the cost model right?" claim would be built on sand.
On top of that: the compile-time ledger records every verdict (tracer
on or off), the trace-driven ledger rebuild matches the live one, the
explain CLI's ``--json`` validates against the checked-in schema, a
known mis-estimated branch stays pinned, and campaigns journal the
per-cell summary that ``report --explain`` renders.
"""

import json
import os

import pytest

from repro.campaign.journal import Journal, replay
from repro.campaign.report import render_report
from repro.campaign.scheduler import Scheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.journal import JournalState
from repro.compiler import registry
from repro.obs import jsonl_tracer, telemetry
from repro.obs.explain import (
    build_explain,
    cell_ledger_summary,
    join_ledgers,
    main as explain_main,
    observed_outcome,
    validate_explain,
)
from repro.obs.ledger import (
    RUNTIME_COUNTERS,
    RuntimeLedger,
    SelectionLedger,
)
from repro.experiments.runner import run_selection
from repro.workloads.suite import BENCHMARK_NAMES

SCALE = 0.1

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "docs", "schemas",
    "explain.schema.json",
)

CONFIGS = ("all-best-heur", "all-best-cost")


def _run_with_ledgers(benchmark, config_name, scale=SCALE):
    config = registry.resolve(config_name)
    selection = SelectionLedger()
    runtime = RuntimeLedger()
    stats, annotation = run_selection(
        benchmark, config, scale=scale,
        selection_ledger=selection, runtime_ledger=runtime,
    )
    return config, selection, runtime, stats, annotation


# -- the compile-time ledger -------------------------------------------------


class _FakeKind:
    def __init__(self, value):
        self.value = value


class _FakeBranch:
    """The subset of DivergeBranch the ledger reads."""

    def __init__(self, pc, kind="hammock", source="frequency"):
        self.branch_pc = pc
        self.kind = _FakeKind(kind)
        self.source = source
        self.always_predicate = False
        self.cfm_points = (pc + 4,)
        self.num_select_uops = 2


def test_selection_ledger_records_and_last_decision_wins():
    ledger = SelectionLedger()
    ledger.record_selected(_FakeBranch(40), "freq")
    ledger.record_rejected(40, "cost", "cost-model", rule="dpred_cost>=0")
    ledger.record_rejected(64, "minmisp", "easy-branch-filter")
    assert len(ledger) == 3
    assert ledger.counts() == {
        "selected": 0, "rejected": 2, "decisions": 3,
    }
    final = ledger.final()
    assert final[40].verdict == "rejected"
    assert final[40].pass_name == "cost"
    assert final[40].rule == "dpred_cost>=0"
    assert [d.pass_name for d in ledger.history(40)] == ["freq", "cost"]
    assert ledger.selected_pcs() == []


def test_selection_ledger_round_trips_as_dict():
    ledger = SelectionLedger()
    ledger.record_selected(_FakeBranch(40), "finish")
    ledger.record_rejected(64, "cost", "cost-model")
    clone = SelectionLedger.from_dict(ledger.as_dict())
    assert clone.as_dict() == ledger.as_dict()


def test_ledger_records_verdicts_with_tracer_disabled():
    """The ledger must not depend on tracing being enabled."""
    _, selection, runtime, stats, annotation = _run_with_ledgers(
        "mcf", "all-best-cost"
    )
    counts = selection.counts()
    assert counts["selected"] == len(annotation)
    assert counts["decisions"] >= counts["selected"]
    assert counts["rejected"] > 0  # mcf has cost-model rejections
    assert runtime.reconcile()["consistent"]


# -- exact reconciliation across the whole suite -----------------------------


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("workload", BENCHMARK_NAMES)
def test_runtime_ledger_reconciles_exactly(workload, config_name):
    """Summed per-branch counters == SimStats totals, every workload."""
    _, _, runtime, stats, _ = _run_with_ledgers(workload, config_name)
    totals = runtime.totals()
    assert totals["episodes"] == stats.dpred_episodes
    assert totals["merged"] == stats.dpred_episodes_merged
    assert totals["flushes_avoided"] == stats.dpred_flushes_avoided
    assert totals["flushes"] == stats.pipeline_flushes
    assert totals["wrong_path_insts"] == stats.dpred_wrong_path_insts
    assert totals["select_uops"] == stats.dpred_select_uops
    reconciliation = runtime.reconcile()
    assert reconciliation["consistent"], reconciliation


def test_runtime_ledger_round_trips_as_dict():
    _, _, runtime, _, _ = _run_with_ledgers("gzip", "all-best-heur")
    clone = RuntimeLedger.from_dict(runtime.as_dict())
    assert clone.branches() == runtime.branches()
    assert clone.run_totals() == runtime.run_totals()


# -- trace-driven rebuild matches the live ledger ----------------------------

#: Live-only counters: there is no per-execution trace event, so a
#: trace rebuild cannot reconstruct these two.
_LIVE_ONLY = ("executions", "mispredictions")


def test_from_trace_matches_live_ledger(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    config = registry.resolve("all-best-cost")
    runtime = RuntimeLedger()
    tracer = jsonl_tracer(path)
    with telemetry(tracer=tracer):
        run_selection(
            "mcf", config, scale=SCALE, runtime_ledger=runtime,
        )
    tracer.close()

    rebuilt = RuntimeLedger.from_trace(path)
    assert rebuilt.corrupt_lines == 0
    assert rebuilt.pcs() == runtime.pcs()
    for pc in runtime.pcs():
        live = runtime.branch(pc)
        traced = rebuilt.branch(pc)
        for name in RUNTIME_COUNTERS:
            if name in _LIVE_ONLY:
                continue
            assert traced[name] == live[name], (pc, name)
    assert rebuilt.run_totals() == runtime.run_totals()
    assert rebuilt.reconcile()["consistent"]


def test_from_trace_tolerates_torn_tail(tmp_path):
    """A crash mid-write truncates the last line; readers must cope."""
    path = str(tmp_path / "trace.jsonl")
    config = registry.resolve("all-best-cost")
    tracer = jsonl_tracer(path)
    with telemetry(tracer=tracer):
        run_selection("mcf", config, scale=SCALE)
    tracer.close()

    with open(path, "rb+") as handle:
        handle.seek(0, os.SEEK_END)
        handle.truncate(handle.tell() - 25)  # tear the final line

    ledger = RuntimeLedger.from_trace(path)
    assert ledger.corrupt_lines == 1
    assert ledger.pcs()  # durable prefix still attributed

    from repro.obs.trace_report import (
        format_trace_report,
        summarize_trace,
    )

    summary = summarize_trace(path)
    assert summary["corrupt_lines"] == 1
    assert "WARNING" in format_trace_report(summary)


def test_empty_trace_is_an_empty_ledger(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    ledger = RuntimeLedger.from_trace(str(path))
    assert ledger.corrupt_lines == 0
    assert ledger.pcs() == []
    assert ledger.reconcile()["consistent"]


# -- the join and a pinned mis-estimated branch ------------------------------


def test_join_covers_every_decided_and_observed_pc():
    config, selection, runtime, _, _ = _run_with_ledgers(
        "mcf", "all-best-cost"
    )
    branches, summary = join_ledgers(
        selection, runtime, config.cost_params
    )
    pcs = {entry["branch_pc"] for entry in branches}
    assert set(selection.final()) <= pcs
    assert set(runtime.pcs()) <= pcs
    assert summary["consistent"]
    assert summary["selected"] == len(selection.selected_pcs())
    by_verdict = {entry["verdict"] for entry in branches}
    assert by_verdict <= {"selected", "rejected", "unconsidered"}


def test_observed_outcome_units_follow_equation_one():
    config = registry.resolve("all-best-cost")
    counters = dict.fromkeys(RUNTIME_COUNTERS, 0)
    counters.update(
        episodes=4, flushes_avoided=2,
        wrong_path_insts=24, select_uops=8,
    )
    observed = observed_outcome(counters, config.cost_params)
    width = config.cost_params.fetch_width
    penalty = config.cost_params.misp_penalty
    assert observed["overhead_cycles"] == pytest.approx(32 / width)
    assert observed["benefit_cycles"] == pytest.approx(2 * penalty)
    assert observed["net_cycles"] == pytest.approx(
        2 * penalty - 32 / width
    )
    assert observed["net_per_episode"] == pytest.approx(
        observed["net_cycles"] / 4
    )


def test_mcf_surfaces_a_misestimated_branch():
    """Pinned fixture: the cost model's estimate disagrees in sign
    with the measured outcome for at least one selected mcf branch."""
    data = build_explain("mcf", registry.resolve("all-best-cost"),
                         scale=0.25)
    misestimated = data["summary"]["misestimated"]
    assert misestimated, "expected mcf to surface a mis-estimated branch"
    assert 474 in misestimated  # the worst offender at scale 0.25
    entry = next(
        e for e in data["branches"] if e["branch_pc"] == 474
    )
    assert entry["verdict"] == "selected"
    assert entry["est"]["net_benefit"] >= 0.0  # model said: win
    assert entry["observed"]["net_per_episode"] < 0.0  # it lost
    assert entry["misestimated"]


# -- the explain CLI and its schema ------------------------------------------


def test_explain_json_validates_against_checked_in_schema(tmp_path, capsys):
    out = str(tmp_path / "nested" / "explain.json")
    rc = explain_main([
        "mcf", "--config", "All-best-cost", "--scale", str(SCALE),
        "--json", "-o", out,
    ])
    assert rc == 0
    data = json.load(open(out, encoding="utf-8"))
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        schema = json.load(handle)
    assert validate_explain(data, schema) == []
    assert data["workload"] == "mcf"
    assert data["config"] == "all-best-cost"
    assert data["reconciliation"]["consistent"]


def test_explain_text_reports_exact_reconciliation(capsys):
    rc = explain_main(["gzip", "--config", "all-best-heur",
                       "--scale", str(SCALE)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ledger reconciliation vs run totals: EXACT" in text
    assert "selected branches" in text


def test_explain_unknown_workload_fails_cleanly(capsys):
    rc = explain_main(["no-such-benchmark"])
    assert rc == 1
    assert "error" in capsys.readouterr().err.lower()


def test_validate_explain_flags_schema_violations():
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        schema = json.load(handle)
    errors = validate_explain({"workload": 3}, schema)
    assert errors  # wrong type and missing required keys
    assert any("workload" in e for e in errors)


# -- campaigns journal and render the summary --------------------------------


def test_campaign_journals_ledger_and_report_explain_renders(tmp_path):
    spec = CampaignSpec(
        name="ledger-smoke", benchmarks=("gzip",), scale=SCALE,
        selection="all-best-cost",
    )
    journal_path = str(tmp_path / "journal.jsonl")
    with Journal(journal_path) as journal:
        journal.campaign_start(spec.name, spec.spec_hash, 1)
        scheduler = Scheduler(spec, journal, jobs=1)
        summary = scheduler.run(JournalState())
    assert not summary["interrupted"]

    # The scheduler pops the ledger off the result, so the journaled
    # (and in-memory) result payload stays byte-identical with or
    # without the annotation...
    (cell,) = spec.cells()
    assert "ledger" not in summary["results"][cell.cell_id]

    # ...while replay surfaces it separately.
    state = replay(journal_path)
    annotation = state.ledger[cell.cell_id]
    assert annotation["consistent"]
    assert annotation["selected"] >= 1
    assert state.results[cell.cell_id]["speedup"] == pytest.approx(
        summary["results"][cell.cell_id]["speedup"]
    )

    base = render_report(spec, state.results,
                         quarantined=state.quarantined)
    explained = render_report(spec, state.results,
                              quarantined=state.quarantined,
                              ledgers=state.ledger)
    assert "Decision ledger" not in base
    assert explained.startswith(base)  # annotation only appends
    assert "Decision ledger (estimate vs observed, per cell)" in explained
    assert "1/1 cells journaled a ledger" in explained


def test_report_explain_renders_gaps_for_unjournaled_cells():
    spec = CampaignSpec(
        name="gaps", benchmarks=("gzip", "twolf"), scale=SCALE,
    )
    cells = spec.cells()
    config = registry.resolve("all-best-cost")
    selection = SelectionLedger()
    runtime = RuntimeLedger()
    run_selection("gzip", config, scale=SCALE,
                  selection_ledger=selection, runtime_ledger=runtime)
    ledgers = {
        cells[0].cell_id: cell_ledger_summary(
            selection, runtime, config.cost_params
        ),
    }
    text = render_report(spec, {}, ledgers=ledgers)
    explain_section = text.split("Decision ledger")[1]
    assert "—" in explain_section  # the unjournaled twolf cell
    assert "1/2 cells journaled a ledger" in text


# -- zero overhead when off ---------------------------------------------------


def test_per_branch_accounting_is_off_by_default():
    """``ledger=None`` + no coverage flag must skip attribution
    entirely (the throughput benchmark bounds the cost when on)."""
    from repro.uarch import make_simulator
    from repro.experiments.runner import get_artifacts

    artifacts = get_artifacts("gzip", scale=SCALE)
    simulator = make_simulator(artifacts.program)
    assert simulator.ledger is None
    stats = simulator.run(artifacts.trace)
    assert stats.per_branch == {}


# -- meld-aware explain (branches removed by a transform) ---------------------

MELD_SCALE = 0.2
#: Pinned fixture: the vpr hammocks the meld:short transform removes at
#: scale 0.2.  A matcher or selection change that alters this set must
#: update the pin deliberately.
VPR_MELDED_PCS = [8, 16, 24]


def test_explain_reports_melded_branches():
    data = build_explain(
        "vpr", registry.resolve("meld+all-best-heur"), scale=MELD_SCALE
    )
    assert data["melded_branches"] == VPR_MELDED_PCS
    by_pc = {e["branch_pc"]: e for e in data["branches"]}
    for pc in VPR_MELDED_PCS:
        assert by_pc[pc]["verdict"] == "melded"
        assert by_pc[pc]["reason"] == "melded"
    assert data["summary"]["melded"] == len(VPR_MELDED_PCS)
    assert data["reconciliation"]["consistent"]
    # Selected pcs were translated back to original coordinates, so
    # they never collide with the removed hammock branches.
    selected = [
        e["branch_pc"] for e in data["branches"]
        if e["verdict"] == "selected"
    ]
    assert selected
    assert not set(selected) & set(VPR_MELDED_PCS)


def test_explain_meld_json_validates_against_schema(tmp_path):
    out = str(tmp_path / "meld.json")
    rc = explain_main([
        "vpr", "--config", "meld+all-best-heur",
        "--scale", str(MELD_SCALE), "--json", "-o", out,
    ])
    assert rc == 0
    data = json.load(open(out, encoding="utf-8"))
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        schema = json.load(handle)
    assert validate_explain(data, schema) == []
    assert data["melded_branches"] == VPR_MELDED_PCS


def test_explain_text_mentions_melded(capsys):
    rc = explain_main(["vpr", "--config", "meld",
                       "--scale", str(MELD_SCALE)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "melded (statically if-converted)" in text
