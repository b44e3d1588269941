"""Static if-conversion vs dynamic predication (the §6 comparison).

The paper's §6 weighs DMP against *software* predication: a compiler
that if-converts hammocks outright instead of marking them for dynamic
predication.  This driver quantifies the three strategies on our suite:

- **static-meld** — the ``meld`` preset: profitable short hammocks are
  if-converted (branch removed, both sides executed, ``CMOV`` selects)
  and *no* dynamic predication runs;
- **dpred** — All-best-heur dynamic predication on the untouched
  program (the paper's mechanism);
- **meld+dpred** — the combined strategy: melding claims the short
  hammocks first, All-best-heur selection then runs on the *melded*
  program and dynamically predicates what remains.

Melded programs retire a different (longer) instruction stream for the
same architectural work, so two invariants are enforced per benchmark:
the melded run must halt and reach the *bit-identical* final
register/memory state of the original, and speedups are computed as
cycle ratios (not IPC ratios — see :func:`work_speedup`).

The decision-ledger attribution reports which hammocks each strategy
claimed: pcs melded by the static pass, pcs selected by dynamic
predication, and their overlap — the branches where the two approaches
directly compete.
"""

from repro.compiler import resolve, run_selection_pipeline
from repro.emulator import execute as emulate
from repro.exec import Job, execute
from repro.experiments.report import percent, render_table
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    KeyedCache,
    get_artifacts,
    mean_speedup,
    run_baseline,
    run_selection,
)
from repro.obs.ledger import SelectionLedger
from repro.uarch import make_simulator

SERIES = ("static-meld", "dpred", "meld+dpred")

#: Functional-execution budget multiplier for melded programs.  Melding
#: executes both hammock sides plus predicate/select overhead, so the
#: melded dynamic instruction count exceeds the original's; ×4 bounds
#: it with ample slack (observed expansion is well under 2×).
MELD_BUDGET_FACTOR = 4

#: (name, input_set, scale, melded fingerprint) -> functional trace.
#: The ``meld`` and ``meld+all-best-heur`` presets produce the same
#: rewritten program, so the second pipeline run reuses the trace.
_meld_trace_cache = KeyedCache("meld_trace", max_entries=32)
#: (name, input_set, scale) -> the original run's final ArchState.
_final_state_cache = KeyedCache("meld_final_state", max_entries=32)


def clear_meld_caches():
    """Drop the melded-trace/final-state caches (``clear_cache`` hook)."""
    _meld_trace_cache.clear()
    _final_state_cache.clear()


def work_speedup(stats, baseline):
    """Cycle-ratio speedup: same architectural work, fewer cycles.

    :meth:`~repro.uarch.stats.SimStats.speedup_over` compares IPC,
    which is only meaningful when both runs retire the same instruction
    stream.  A melded run retires *more* instructions for the same
    work, inflating its IPC; the cycle ratio is the honest metric (for
    same-trace runs the two definitions coincide).
    """
    if stats.cycles == 0:
        return 0.0
    return baseline.cycles / stats.cycles - 1.0


def _original_final_state(name, input_set, scale):
    """Final architectural state of the unmelded program (cached)."""
    key = (name, input_set, scale)
    cached = _final_state_cache.get(key)
    if cached is not None:
        return cached
    artifacts = get_artifacts(name, input_set=input_set, scale=scale)
    workload = artifacts.workload
    _, result = emulate(
        artifacts.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
        compact=True,
    )
    _final_state_cache.put(key, result.state)
    return result.state


def assert_equivalent(name, original, melded):
    """Melding must be architecturally invisible.

    The rewrite's contract (scratch registers cleared, ``CMOV``
    select, stores never melded) promises the final register file and
    memory image match the original bit for bit; any difference is a
    transform bug, reported loudly instead of skewing the comparison.
    """
    if original.regs != melded.regs:
        diverged = [
            index
            for index, (a, b) in enumerate(zip(original.regs, melded.regs))
            if a != b
        ]
        raise RuntimeError(
            f"melded {name!r} diverges from the original in "
            f"registers {diverged}"
        )
    if original.memory != melded.memory:
        keys = set(original.memory) | set(melded.memory)
        diverged = sorted(
            addr for addr in keys
            if original.memory.get(addr, 0) != melded.memory.get(addr, 0)
        )
        raise RuntimeError(
            f"melded {name!r} diverges from the original at memory "
            f"words {diverged[:8]}"
        )


def melded_run(name, config, input_set="reduced", scale=1.0, ledger=None):
    """Compile a meld config and functionally execute the result.

    Returns ``(state, program, trace)`` where ``program``/``trace``
    are the *melded* program and its functional trace (falling back to
    the originals when no hammock qualified).  The melded run is
    checked: it must halt within the widened budget and reach the
    original's exact final register/memory state.
    """
    artifacts = get_artifacts(name, input_set=input_set, scale=scale)
    state = run_selection_pipeline(
        artifacts.program, artifacts.profile, config, ledger=ledger
    )
    if state.transform is None:
        return state, artifacts.program, artifacts.trace
    program = state.transform.program
    workload = artifacts.workload
    key = (name, input_set, scale, program.fingerprint)
    trace = _meld_trace_cache.get(key)
    if trace is not None:
        return state, program, trace
    budget = workload.max_instructions * MELD_BUDGET_FACTOR
    trace, result = emulate(
        program,
        memory=workload.memory,
        max_instructions=budget,
        compact=True,
    )
    if not result.halted:
        raise RuntimeError(
            f"melded {name!r} did not halt within {budget} instructions"
        )
    assert_equivalent(
        name, _original_final_state(name, input_set, scale), result.state
    )
    _meld_trace_cache.put(key, trace)
    return state, program, trace


def _claims(meld_state, dpred_ledger, comb_state, comb_ledger):
    """Which hammocks each strategy claimed, in original pc space.

    The combined config's selection decisions are recorded in
    *melded* pc space (the annotation applies to the rewritten
    program); ``inverse_pc_map`` translates them back so all three
    columns compare in the original program's coordinates.
    """
    melded = sorted(
        meld_state.transform.melded if meld_state.transform else ()
    )
    dpred = dpred_ledger.selected_pcs()
    inverse = (
        comb_state.transform.inverse_pc_map()
        if comb_state.transform else {}
    )
    combined_melded = sorted(
        comb_state.transform.melded if comb_state.transform else ()
    )
    combined_dpred = sorted(
        inverse.get(pc, pc) for pc in comb_ledger.selected_pcs()
    )
    melded_set, dpred_set = set(melded), set(dpred)
    return {
        "melded": melded,
        "dpred": dpred,
        "contested": sorted(melded_set & dpred_set),
        "meld_only": sorted(melded_set - dpred_set),
        "dpred_only": sorted(dpred_set - melded_set),
        "combined_melded": combined_melded,
        "combined_dpred": combined_dpred,
    }


def _bench_cell(name, scale):
    """One benchmark under all three strategies (a parallel job)."""
    from repro.core import SelectionConfig

    baseline = run_baseline(name, scale=scale)

    dpred_ledger = SelectionLedger()
    dpred_stats, _ = run_selection(
        name, SelectionConfig.all_best_heur(), scale=scale,
        selection_ledger=dpred_ledger,
    )

    meld_state, meld_program, meld_trace = melded_run(
        name, resolve("meld"), scale=scale
    )
    meld_stats = make_simulator(meld_program).run(
        meld_trace, label=f"{name}/static-meld"
    )

    comb_ledger = SelectionLedger()
    comb_state, comb_program, comb_trace = melded_run(
        name, resolve("meld+all-best-heur"), scale=scale,
        ledger=comb_ledger,
    )
    comb_stats = make_simulator(
        comb_program, annotation=comb_state.annotation
    ).run(comb_trace, label=f"{name}/meld+dpred")

    return {
        "ipc": {
            "baseline": baseline.ipc,
            "static-meld": meld_stats.ipc,
            "dpred": dpred_stats.ipc,
            "meld+dpred": comb_stats.ipc,
        },
        "speedup": {
            "static-meld": work_speedup(meld_stats, baseline),
            "dpred": work_speedup(dpred_stats, baseline),
            "meld+dpred": work_speedup(comb_stats, baseline),
        },
        "claims": _claims(
            meld_state, dpred_ledger, comb_state, comb_ledger
        ),
    }


def run(scale=1.0, benchmarks=None, jobs=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    cells = execute(
        [Job(_bench_cell, name, scale, label=f"meldcompare:{name}")
         for name in benchmarks],
        jobs=jobs,
    )
    ipc = {label: {} for label in ("baseline",) + SERIES}
    speedups = {label: {} for label in SERIES}
    claims = {}
    for name, cell in zip(benchmarks, cells):
        for label in ipc:
            ipc[label][name] = cell["ipc"][label]
        for label in SERIES:
            speedups[label][name] = cell["speedup"][label]
        claims[name] = cell["claims"]
    means = {
        label: mean_speedup(per.values())
        for label, per in speedups.items()
    }
    return {
        "benchmarks": list(benchmarks),
        "series": list(SERIES),
        "ipc": ipc,
        "speedups": speedups,
        "means": means,
        "claims": claims,
        "scale": scale,
    }


def format_result(result):
    headers = (
        ["Benchmark", "base IPC"]
        + [f"{label} IPC" for label in result["series"]]
        + [f"{label} spd" for label in result["series"]]
    )
    rows = []
    for name in result["benchmarks"]:
        rows.append(
            [name, result["ipc"]["baseline"][name]]
            + [result["ipc"][s][name] for s in result["series"]]
            + [percent(result["speedups"][s][name])
               for s in result["series"]]
        )
    rows.append(
        ["MEAN", "", "", "", ""]
        + [percent(result["means"][s]) for s in result["series"]]
    )
    table = render_table(
        headers,
        rows,
        title=(
            "§6 comparison: static if-conversion (meld) vs dynamic "
            "predication vs both"
        ),
    )
    lines = [table, "", "Hammock attribution (original pcs):"]
    for name in result["benchmarks"]:
        claim = result["claims"][name]
        lines.append(
            f"  {name}: melded={len(claim['melded'])} "
            f"dpred={len(claim['dpred'])} "
            f"contested={len(claim['contested'])} "
            f"(combined kept {len(claim['combined_dpred'])} dpred "
            f"branches after melding {len(claim['combined_melded'])})"
        )
    return "\n".join(lines)


def meld_cell(params):
    """Meld-aware campaign cell (``cell`` hook for :func:`campaign_spec`).

    The default :func:`repro.campaign.spec.run_cell` replays the
    *original* trace — wrong for program-rewriting selections, which
    :func:`~repro.experiments.runner.run_selection` therefore refuses.
    This cell compiles the transform, functionally re-executes the
    melded program (asserting architectural equivalence against the
    original), and simulates that trace.  Non-meld selections fall
    through to the default cell so a mixed selection axis compares
    like for like.
    """
    from repro.campaign.spec import build_selection, run_cell
    from repro.obs.explain import cell_ledger_summary
    from repro.obs.ledger import RuntimeLedger

    selection = build_selection(
        params["selection"], params.get("thresholds")
    )
    if selection.meld is None:
        return run_cell(params)
    if params.get("processor"):
        raise ValueError(
            "meld cells run the default processor only; drop the "
            "proc.* axes or the meld selection"
        )
    benchmark = params["benchmark"]
    input_set = params.get("input_set", "reduced")
    scale = params.get("scale", 1.0)
    baseline = run_baseline(benchmark, input_set=input_set, scale=scale)
    selection_ledger = SelectionLedger()
    runtime_ledger = RuntimeLedger()
    state, program, trace = melded_run(
        benchmark, selection, input_set=input_set, scale=scale,
        ledger=selection_ledger,
    )
    stats = make_simulator(
        program, annotation=state.annotation, ledger=runtime_ledger
    ).run(trace, label=f"{benchmark}/{selection.name}")
    melded = state.transform.melded if state.transform else ()
    return {
        "speedup": work_speedup(stats, baseline),
        "baseline": baseline.as_dict(),
        "stats": stats.as_dict(),
        "diverge_branches": len(state.annotation),
        "melded_branches": len(melded),
        "ledger": cell_ledger_summary(
            selection_ledger, runtime_ledger, selection.cost_params
        ),
    }


def campaign_spec(scale=1.0, benchmarks=None):
    """The §6 comparison as a durable campaign (``campaign run meld``).

    A ``selection`` axis sweeps the three strategies per benchmark;
    the meld-aware cell simulates rewriting selections against the
    melded trace and plain ones through the default pipeline, so the
    campaign report's per-cell speedups match :func:`run`.
    """
    from repro.campaign import Axis, CampaignSpec

    return CampaignSpec(
        name="meld",
        benchmarks=tuple(benchmarks or DEFAULT_BENCHMARKS),
        scale=scale,
        selection="all-best-heur",
        axes=(
            Axis("selection",
                 ("meld", "all-best-heur", "meld+all-best-heur")),
        ),
        cell="repro.experiments.meldcompare:meld_cell",
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
