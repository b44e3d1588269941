"""The pre-decoded emulator and the table-driven walker match their
frozen predecessors (``tests/_legacy_emulator.py``) exactly.

Emulator: identical trace columns, ``on_branch`` calls, final
:class:`ArchState` and :class:`RunResult` on every workload (both input
sets) and on random programs that reach every opcode, including
operands past 64 bits and the error paths.  Walker: identical
``(insts, merged)`` over random start pcs, CFM sets and bias states.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import ArchState, Emulator, Trace
from repro.errors import EmulationError
from repro.isa.instructions import (
    ALU_OPCODES,
    Instruction,
    Opcode,
)
from repro.isa.program import Function, Program
from repro.uarch.wrongpath import BiasTable, WrongPathWalker
from repro.workloads import BENCHMARK_NAMES, load_benchmark
from repro.workloads.suite import INPUT_SETS

from tests._legacy_emulator import LegacyEmulator, LegacyWalker


def _run(cls, program, memory, budget, trace_kind, state=None):
    """Run one emulator; returns everything observable about the run."""
    state = state if state is not None else ArchState(memory=memory)
    trace = {"compact": Trace(), "list": [], "none": None}[trace_kind]
    branches = []
    try:
        result = cls(program).run(
            state=state, max_instructions=budget, trace=trace,
            on_branch=lambda pc, taken: branches.append((pc, taken)),
        )
        outcome = (result.instruction_count, result.halted)
    except (EmulationError, OverflowError) as exc:
        # OverflowError: a compact trace column cannot hold an address
        # past 64 bits; both interpreters stop at the same row.
        outcome = (type(exc).__name__, str(exc))
    if trace_kind == "compact":
        rows = trace.to_bytes()
    elif trace_kind == "list":
        rows = [(d.pc, d.next_pc, d.address) for d in trace]
    else:
        rows = None
    return (outcome, rows, branches, state.regs, state.memory,
            state.call_stack)


def _assert_same(program, memory=None, budget=100_000,
                 trace_kind="compact", call_stack=()):
    runs = []
    for cls in (LegacyEmulator, Emulator):
        state = ArchState(memory=memory)
        state.call_stack.extend(call_stack)
        runs.append(_run(cls, program, memory, budget, trace_kind, state))
    assert runs[0] == runs[1]
    return runs[1]


@pytest.mark.parametrize("input_set", sorted(INPUT_SETS))
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_workloads_match_legacy(name, input_set):
    workload = load_benchmark(name, input_set=input_set, scale=0.05)
    (outcome, *_rest) = _assert_same(
        workload.program, workload.memory, workload.max_instructions,
    )
    assert outcome[1] is True          # halted


@pytest.mark.parametrize("trace_kind", ["list", "none"])
def test_list_and_untraced_runs_match_legacy(trace_kind):
    workload = load_benchmark("twolf", scale=0.05)
    _assert_same(workload.program, workload.memory,
                 workload.max_instructions, trace_kind=trace_kind)


def test_budget_cut_matches_legacy():
    workload = load_benchmark("mcf", scale=0.05)
    outcome, *_ = _assert_same(workload.program, workload.memory,
                               budget=777)
    assert outcome == (777, False)


# -- random programs ---------------------------------------------------------

#: Immediates and memory words beyond 64 bits reach every wrap rule.
BIG = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-(2**66), max_value=2**66),
    st.sampled_from([2**63 - 1, -(2**63), 2**63, 2**64 + 5, -1]),
)
REG = st.integers(min_value=0, max_value=7)
ALU = sorted(ALU_OPCODES, key=lambda op: op.value)


@st.composite
def random_programs(draw):
    """A ``main`` function of random instructions (every opcode, any
    branch target inside it, calls into a ``helper`` ending in RET),
    plus a preloaded memory and a budget."""
    main_len = draw(st.integers(min_value=2, max_value=24))
    helper_len = draw(st.integers(min_value=1, max_value=4))
    helper = main_len
    instructions = []
    for pc in range(main_len):
        choice = draw(st.sampled_from(
            ["alu", "alu", "alu", "mov", "movi", "cmov", "ld", "st",
             "cond", "jmp", "call", "nop", "halt"]
        ))
        if choice == "alu":
            op = draw(st.sampled_from(ALU))
            if draw(st.booleans()):
                inst = Instruction(op, dest=draw(REG), src1=draw(REG),
                                   imm=draw(BIG))
            else:
                inst = Instruction(op, dest=draw(REG), src1=draw(REG),
                                   src2=draw(REG))
        elif choice == "mov":
            inst = Instruction(Opcode.MOV, dest=draw(REG), src1=draw(REG))
        elif choice == "movi":
            inst = Instruction(Opcode.MOVI, dest=draw(REG), imm=draw(BIG))
        elif choice == "cmov":
            inst = Instruction(Opcode.CMOV, dest=draw(REG),
                               src1=draw(REG), src2=draw(REG))
        elif choice == "ld":
            inst = Instruction(Opcode.LD, dest=draw(REG), src1=draw(REG),
                               imm=draw(st.integers(-3, 40)))
        elif choice == "st":
            inst = Instruction(Opcode.ST, src1=draw(REG), src2=draw(REG),
                               imm=draw(st.integers(-3, 40)))
        elif choice == "cond":
            inst = Instruction(
                draw(st.sampled_from([Opcode.BEQZ, Opcode.BNEZ])),
                src1=draw(REG),
                target=draw(st.integers(0, main_len - 1)),
            )
        elif choice == "jmp":
            inst = Instruction(Opcode.JMP,
                               target=draw(st.integers(0, main_len - 1)))
        elif choice == "call":
            inst = Instruction(Opcode.CALL, target=helper)
        elif choice == "nop":
            inst = Instruction(Opcode.NOP)
        else:
            inst = Instruction(Opcode.HALT)
        instructions.append(inst)
    for _ in range(helper_len - 1):
        op = draw(st.sampled_from(ALU))
        instructions.append(Instruction(op, dest=draw(REG),
                                        src1=draw(REG), imm=draw(BIG)))
    instructions.append(Instruction(Opcode.RET))
    program = Program(instructions, [
        Function("main", 0, main_len),
        Function("helper", helper, helper + helper_len),
    ])
    memory = draw(st.dictionaries(st.integers(-3, 48), BIG, max_size=12))
    budget = draw(st.integers(min_value=0, max_value=400))
    return program, memory, budget


class TestRandomPrograms:
    @given(random_programs(), st.sampled_from(["compact", "list", "none"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_legacy(self, params, trace_kind):
        program, memory, budget = params
        _assert_same(program, memory, budget, trace_kind=trace_kind)

    @given(random_programs(),
           st.lists(st.integers(-3, 60), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_preloaded_call_stack_matches_legacy(self, params, stack):
        """A RET may pop any pc, in range or not."""
        program, memory, budget = params
        _assert_same(program, memory, budget, trace_kind="list",
                     call_stack=stack)


def test_fall_off_the_end_matches_legacy():
    program = Program(
        [Instruction(Opcode.MOVI, dest=1, imm=3),
         Instruction(Opcode.NOP)],
        [Function("main", 0, 2)],
    )
    outcome, rows, *_ = _assert_same(program, trace_kind="list")
    assert outcome == ("EmulationError", "pc out of range: 2")
    assert len(rows) == 2


def test_return_out_of_range_matches_legacy():
    program = Program([Instruction(Opcode.RET)],
                      [Function("main", 0, 1)])
    outcome, *_ = _assert_same(program, trace_kind="list",
                               call_stack=[-5])
    assert outcome == ("EmulationError", "pc out of range: -5")
    # The budget ends the run before the stray pc is fetched.
    outcome, *_ = _assert_same(program, budget=1, call_stack=[-5])
    assert outcome == (1, False)


# -- the wrong-path walker ---------------------------------------------------


def _walk_both(program, counters, start, cfm_pcs, return_cfm, budget):
    bias = BiasTable()
    bias._counters.update(counters)
    legacy = LegacyWalker(program, bias)._walk(start, cfm_pcs, return_cfm,
                                               budget)
    walker = WrongPathWalker(program, bias)
    assert walker.walk(start, cfm_pcs, return_cfm, budget) == legacy
    assert (walker.walks, walker.insts_synthesized,
            walker.walks_merged) == (1, legacy[0], int(legacy[1]))


@pytest.mark.parametrize("name", ["gzip", "twolf", "mcf", "gcc", "eon"])
def test_walker_matches_legacy_on_workloads(name):
    program = load_benchmark(name, scale=0.05).program
    n = len(program.instructions)
    cond_pcs = program.conditional_branch_pcs()
    rng = random.Random(name)
    for _ in range(300):
        counters = {pc: rng.randrange(4)
                    for pc in rng.sample(cond_pcs,
                                         rng.randrange(len(cond_pcs)))}
        cfm_pcs = frozenset(rng.randrange(-2, n + 2)
                            for _ in range(rng.randrange(4)))
        _walk_both(program, counters, rng.randrange(-2, n + 2), cfm_pcs,
                   rng.random() < 0.3, rng.choice([0, 1, 7, 64, 256]))


@given(random_programs(), st.data())
@settings(max_examples=200, deadline=None)
def test_walker_matches_legacy_on_random_programs(params, data):
    program = params[0]
    n = len(program.instructions)
    counters = data.draw(st.dictionaries(
        st.integers(0, n - 1), st.integers(0, 3), max_size=n,
    ))
    _walk_both(
        program, counters,
        data.draw(st.integers(-1, n + 1)),
        data.draw(st.frozensets(st.integers(-1, n + 1), max_size=4)),
        data.draw(st.booleans()),
        data.draw(st.integers(0, 300)),
    )
