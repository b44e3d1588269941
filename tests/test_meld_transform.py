"""Static if-conversion (MeldPass): matcher, rewrite, and equivalence.

The transform's load-bearing contract is that melding is
*architecturally invisible*: a melded program must halt and reach the
bit-identical final register file and memory image of the original.
The suite-wide battery at the bottom asserts that for every benchmark
under ``meld:all`` (the widest structural mode, so every rewrite shape
is exercised).
"""

import pytest

from repro.compiler import resolve, run_selection_pipeline
from repro.compiler.transform import (
    MELD_MAX_SIDE_INSTS,
    MeldPass,
    apply_meld,
    find_meld_candidates,
    select_meld_candidates,
)
from repro.emulator import execute
from repro.isa import NUM_REGISTERS, Opcode, ProgramBuilder, assemble
from repro.workloads import BENCHMARK_NAMES, load_benchmark


def _run_states(program_a, program_b, memory=None, budget=1_000_000):
    _, result_a = execute(
        program_a, memory=dict(memory or {}), max_instructions=budget
    )
    _, result_b = execute(
        program_b, memory=dict(memory or {}), max_instructions=budget
    )
    assert result_a.halted and result_b.halted
    return result_a.state, result_b.state


# -- structural matcher -------------------------------------------------------


def test_finds_diamond_candidate(simple_hammock_program):
    candidates = find_meld_candidates(
        simple_hammock_program, MELD_MAX_SIDE_INSTS
    )
    kinds = {c.kind for c in candidates}
    assert "diamond" in kinds
    diamond = next(c for c in candidates if c.kind == "diamond")
    instructions = simple_hammock_program.instructions
    assert instructions[diamond.branch_pc].op in (
        Opcode.BEQZ, Opcode.BNEZ
    )
    # Both sides are nonempty and disjoint, join strictly after both.
    then_lo, then_hi = diamond.then_range
    else_lo, else_hi = diamond.else_range
    assert then_lo < then_hi and else_lo < else_hi
    assert diamond.join_pc >= max(then_hi, else_hi)


def test_finds_one_sided_candidate():
    program = assemble(
        """
        .func main
            movi r1, 7
            bnez r1, skip
            addi r2, r2, 1
            addi r3, r3, 2
        skip:
            halt
        .endfunc
        """,
        name="one-sided",
    )
    candidates = find_meld_candidates(program, MELD_MAX_SIDE_INSTS)
    assert [c.kind for c in candidates] == ["one-sided"]
    assert candidates[0].join_pc == 4


def test_store_in_side_disqualifies():
    program = assemble(
        """
        .func main
            movi r1, 7
            bnez r1, skip
            st r2, 0(r1)
        skip:
            halt
        .endfunc
        """,
        name="store-side",
    )
    assert find_meld_candidates(program, MELD_MAX_SIDE_INSTS) == []


def test_external_entry_disqualifies():
    # The jmp from outside lands mid-hammock, so predicating the side
    # would change that path's behaviour.
    program = assemble(
        """
        .func main
            movi r1, 1
            bnez r1, over
            jmp inside
        over:
            bnez r1, skip
            addi r2, r2, 1
        inside:
            addi r3, r3, 1
        skip:
            halt
        .endfunc
        """,
        name="external-entry",
    )
    pcs = [c.branch_pc for c in find_meld_candidates(
        program, MELD_MAX_SIDE_INSTS
    )]
    assert 3 not in pcs


def test_side_size_bound_respected(simple_hammock_program):
    assert find_meld_candidates(simple_hammock_program, 0) == []


# -- rewrite semantics --------------------------------------------------------


def test_meld_preserves_architectural_state(simple_hammock_program):
    candidates = find_meld_candidates(
        simple_hammock_program, MELD_MAX_SIDE_INSTS
    )
    result = apply_meld(simple_hammock_program, candidates)
    assert result.changed
    memory = {i: i % 2 for i in range(100)}
    original, melded = _run_states(
        simple_hammock_program, result.program, memory=memory
    )
    assert original.regs == melded.regs
    assert original.memory == melded.memory


def test_melded_program_has_no_hammock_branch(simple_hammock_program):
    candidates = find_meld_candidates(
        simple_hammock_program, MELD_MAX_SIDE_INSTS
    )
    result = apply_meld(simple_hammock_program, candidates)
    melded_pcs = set(result.melded)
    assert melded_pcs == {c.branch_pc for c in candidates}
    # The removed branch pcs are absent from the surviving-pc map...
    assert not melded_pcs & set(result.pc_map)
    # ...and every surviving instruction keeps its identity.
    for old_pc, new_pc in result.pc_map.items():
        old = simple_hammock_program.instructions[old_pc]
        new = result.program.instructions[new_pc]
        assert old.op is new.op
        assert (old.dest, old.src1, old.src2) == (
            new.dest, new.src1, new.src2
        )
    # CMOV select instructions were spliced in.
    ops = [inst.op for inst in result.program.instructions]
    assert Opcode.CMOV in ops


def test_inverse_pc_map_is_bijective(simple_hammock_program):
    result = apply_meld(
        simple_hammock_program,
        find_meld_candidates(simple_hammock_program, MELD_MAX_SIDE_INSTS),
    )
    inverse = result.inverse_pc_map()
    assert len(inverse) == len(result.pc_map)
    for old_pc, new_pc in result.pc_map.items():
        assert inverse[new_pc] == old_pc


def test_not_enough_scratch_registers_skips():
    # Reference every register except r0 so the scratch pool is empty;
    # the hammock is structurally meldable but must be left alone.
    builder = ProgramBuilder()
    builder.begin_function("main")
    for reg in range(1, NUM_REGISTERS):
        builder.movi(reg, reg)
    builder.bnez(1, "skip")
    builder.addi(2, 2, 1)
    builder.label("skip")
    builder.halt()
    builder.end_function()
    program = builder.build()
    candidates = find_meld_candidates(program, MELD_MAX_SIDE_INSTS)
    assert candidates
    result = apply_meld(program, candidates)
    assert not result.changed
    assert result.program is program


def test_nested_hammock_equivalence(nested_hammock_program):
    result = apply_meld(
        nested_hammock_program,
        find_meld_candidates(nested_hammock_program, MELD_MAX_SIDE_INSTS),
    )
    memory = {i: (i * 7) % 3 for i in range(100)}
    original, melded = _run_states(
        nested_hammock_program, result.program, memory=memory
    )
    assert original.regs == melded.regs
    assert original.memory == melded.memory


# -- selection / profile interaction ------------------------------------------


def _artifacts(name, scale=0.2):
    from repro.experiments.runner import get_artifacts

    return get_artifacts(name, scale=scale)


def test_select_short_requires_profile_heat():
    artifacts = _artifacts("vpr")
    config = resolve("meld")
    short = select_meld_candidates(
        artifacts.program, artifacts.profile,
        config.effective_thresholds, mode="short",
    )
    everything = select_meld_candidates(
        artifacts.program, artifacts.profile,
        config.effective_thresholds, mode="all",
    )
    assert {c.branch_pc for c in short} <= {
        c.branch_pc for c in everything
    }
    for candidate in short:
        assert artifacts.profile.branch_profile.exec_count(
            candidate.branch_pc
        ) > 0


def test_profile_remap_drops_melded_branches():
    artifacts = _artifacts("vpr")
    config = resolve("meld")
    state = run_selection_pipeline(
        artifacts.program, artifacts.profile, config
    )
    assert state.transform is not None and state.transform.changed
    # The pipeline's melded profile lost exactly the removed branches'
    # executions from its branch totals.
    remapped = artifacts.profile.remapped(state.transform.pc_map)
    dropped = sum(
        artifacts.profile.branch_profile.exec_count(pc)
        for pc in state.transform.melded
    )
    assert remapped.total_branches == (
        artifacts.profile.total_branches - dropped
    )
    assert remapped.total_instructions == artifacts.profile.total_instructions
    for pc in state.transform.melded:
        assert pc not in remapped.edge_profile.executed_branch_pcs()


def test_meld_preset_yields_empty_annotation():
    artifacts = _artifacts("vpr")
    state = run_selection_pipeline(
        artifacts.program, artifacts.profile, resolve("meld")
    )
    assert len(state.annotation) == 0
    assert state.transform is not None


def test_combined_annotation_pcs_in_melded_program():
    artifacts = _artifacts("vpr")
    state = run_selection_pipeline(
        artifacts.program, artifacts.profile,
        resolve("meld+all-best-heur"),
    )
    assert state.transform is not None
    program = state.transform.program
    melded_new_pcs = {
        record.new_pc for record in state.transform.melded.values()
    }
    for branch in state.annotation:
        inst = program.instructions[branch.branch_pc]
        assert inst.op in (Opcode.BEQZ, Opcode.BNEZ)
        assert branch.branch_pc not in melded_new_pcs


def test_run_selection_refuses_meld_configs():
    from repro.experiments.runner import run_selection

    with pytest.raises(ValueError, match="meldcompare"):
        run_selection("vpr", resolve("meld"), scale=0.2)


def test_meld_pass_ledger_attribution():
    from repro.obs.ledger import SelectionLedger

    artifacts = _artifacts("vpr")
    ledger = SelectionLedger()
    state = run_selection_pipeline(
        artifacts.program, artifacts.profile, resolve("meld"),
        ledger=ledger,
    )
    melded_decisions = [
        d for d in ledger.decisions if d.reason == "melded"
    ]
    assert sorted(d.branch_pc for d in melded_decisions) == sorted(
        state.transform.melded
    )
    for decision in melded_decisions:
        assert decision.pass_name == MeldPass.name
        assert decision.rule.startswith("meld:short:")


# -- suite-wide architectural-equivalence battery -----------------------------


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_melded_program_architecturally_identical(name):
    """meld:all on every workload: halt + bit-identical final state."""
    from repro.experiments.meldcompare import (
        MELD_BUDGET_FACTOR,
        assert_equivalent,
    )

    workload = load_benchmark(name, scale=0.2)
    program = workload.program
    candidates = find_meld_candidates(program, MELD_MAX_SIDE_INSTS)
    result = apply_meld(program, candidates)
    _, original = execute(
        program, memory=workload.memory,
        max_instructions=workload.max_instructions,
    )
    assert original.halted
    if not result.changed:
        return
    _, melded = execute(
        result.program, memory=workload.memory,
        max_instructions=workload.max_instructions * MELD_BUDGET_FACTOR,
    )
    assert melded.halted
    assert_equivalent(name, original.state, melded.state)


def test_suite_has_meldable_hammocks():
    """The battery above checks real rewrites: the matcher finds, and
    the rewrite melds, hammocks in the suite."""
    melded = 0
    for name in BENCHMARK_NAMES:
        program = load_benchmark(name, scale=0.2).program
        candidates = find_meld_candidates(program, MELD_MAX_SIDE_INSTS)
        melded += len(apply_meld(program, candidates).melded)
    assert melded > 0


# -- comparison driver, CLI --diff, campaign cell -----------------------------


def test_meldcompare_driver_structure():
    from repro.experiments import meldcompare

    result = meldcompare.run(scale=0.2, benchmarks=["vpr"], jobs=1)
    assert result["series"] == list(meldcompare.SERIES)
    for label in ("baseline",) + meldcompare.SERIES:
        assert result["ipc"][label]["vpr"] > 0
    claims = result["claims"]["vpr"]
    melded, dpred = set(claims["melded"]), set(claims["dpred"])
    assert set(claims["contested"]) == melded & dpred
    assert set(claims["meld_only"]) == melded - dpred
    assert set(claims["dpred_only"]) == dpred - melded
    assert set(claims["combined_melded"]) == melded
    # Whatever dpred still claims after melding is a subset of what it
    # claimed before (melding only removes candidates).
    assert set(claims["combined_dpred"]) <= dpred
    text = meldcompare.format_result(result)
    assert "static-meld" in text and "Hammock attribution" in text


def test_meldcompare_work_speedup_is_cycle_ratio():
    from repro.experiments.meldcompare import work_speedup
    from repro.uarch.stats import SimStats

    baseline = SimStats(cycles=1000, retired_instructions=1000)
    melded = SimStats(cycles=800, retired_instructions=1400)
    assert work_speedup(melded, baseline) == pytest.approx(0.25)
    # IPC-based speedup_over would overstate it badly.
    assert melded.speedup_over(baseline) > 0.25


def test_meld_campaign_cell_dispatch():
    from repro.experiments.meldcompare import meld_cell

    base = {"benchmark": "vpr", "input_set": "reduced", "scale": 0.2,
            "thresholds": {}, "processor": {},
            "cell": "repro.experiments.meldcompare:meld_cell"}
    melded = meld_cell(dict(base, selection="meld+all-best-heur"))
    assert melded["melded_branches"] > 0
    assert melded["diverge_branches"] > 0
    assert melded["ledger"]["consistent"]
    # Non-meld selections fall through to the default cell (no
    # melded_branches key, same payload shape).
    plain = meld_cell(dict(base, selection="all-best-heur"))
    assert "melded_branches" not in plain
    assert plain["speedup"] != 0


def test_meld_campaign_spec_registered():
    from repro.campaign.cli import builtin_specs
    from repro.experiments.meldcompare import campaign_spec

    assert "meld" in builtin_specs()
    spec = campaign_spec(scale=0.2, benchmarks=["vpr"])
    cells = spec.cells()
    assert [c.params["selection"] for c in cells] == [
        "meld", "all-best-heur", "meld+all-best-heur"
    ]
    assert all(
        c.params["cell"] == "repro.experiments.meldcompare:meld_cell"
        for c in cells
    )


def test_compile_cli_diff_flag(capsys):
    from repro.compiler.cli import main

    assert main([
        "--benchmark", "vpr", "--scale", "0.2", "--config", "meld",
        "-o", "/dev/null", "--diff",
    ]) == 0
    out = capsys.readouterr().out
    assert "--- vpr (original)" in out
    assert "+++ vpr (transformed)" in out
    assert "cmov" in out
    assert "# melded" in out


def test_compile_cli_diff_flag_annotation_only(capsys):
    from repro.compiler.cli import main

    assert main([
        "--benchmark", "vpr", "--scale", "0.2",
        "--config", "all-best-heur", "-o", "/dev/null", "--diff",
    ]) == 0
    assert "annotation-only pipeline" in capsys.readouterr().out
