"""Baseline timing-simulator tests."""

import pytest

from repro.emulator import execute
from repro.errors import SimulationError
from repro.isa import ProgramBuilder, assemble
from repro.uarch import ProcessorConfig, make_simulator, simulate


def straightline(n, ilp=True):
    builder = ProgramBuilder("straight")
    builder.begin_function("main")
    for i in range(n):
        builder.addi(1 + (i % 8 if ilp else 0), 1 + (i % 8 if ilp else 0),
                     1)
    builder.halt()
    builder.end_function()
    return builder.build()


class TestFetchAndRetire:
    def test_ilp_code_approaches_fetch_width(self):
        program = straightline(4000, ilp=True)
        trace, _ = execute(program)
        stats = simulate(program, trace)
        assert stats.ipc > 5.0  # 8-wide minus start-up effects

    def test_serial_chain_is_one_ipc(self):
        program = straightline(4000, ilp=False)
        trace, _ = execute(program)
        stats = simulate(program, trace)
        assert stats.ipc == pytest.approx(1.0, abs=0.1)

    def test_retired_instructions_match_trace(self):
        program = straightline(100)
        trace, _ = execute(program)
        stats = simulate(program, trace)
        assert stats.retired_instructions == len(trace)

    def test_empty_trace_rejected(self):
        program = straightline(4)
        with pytest.raises(SimulationError):
            simulate(program, [])

    def test_taken_branches_break_fetch(self):
        # A tight loop of 2 instructions: the taken backedge limits
        # fetch to one iteration per cycle.
        program = assemble(
            """
            .func main
                movi r1, 2000
            top:
                addi r1, r1, -1
                bnez r1, top
                halt
            .endfunc
            """
        )
        trace, _ = execute(program)
        stats = simulate(program, trace)
        assert stats.ipc < 2.5


class TestBranchHandling:
    def _random_branch_program(self):
        return assemble(
            """
            .func main
                movi r1, 0
                movi r2, 400
            loop:
                cmpge r4, r1, r2
                bnez r4, done
                ld r3, 0(r1)
                bnez r3, then
                addi r6, r6, 1
                jmp merge
            then:
                addi r7, r7, 1
            merge:
                addi r1, r1, 1
                jmp loop
            done:
                halt
            .endfunc
            """
        )

    def test_mispredictions_cause_flushes_and_slowdown(self):
        import random

        program = self._random_branch_program()
        rng = random.Random(9)
        hard = {i: rng.randrange(2) for i in range(400)}
        easy = {i: 0 for i in range(400)}
        trace_hard, _ = execute(program, memory=hard)
        trace_easy, _ = execute(program, memory=easy)
        stats_hard = simulate(program, trace_hard)
        stats_easy = simulate(program, trace_easy)
        assert stats_hard.pipeline_flushes > 100
        assert stats_easy.pipeline_flushes < 20
        assert stats_easy.ipc > stats_hard.ipc * 1.5

    def test_flush_costs_at_least_min_penalty(self):
        import random

        program = self._random_branch_program()
        rng = random.Random(9)
        hard = {i: rng.randrange(2) for i in range(400)}
        trace, _ = execute(program, memory=hard)
        base = simulate(program, trace)
        config = ProcessorConfig(redirect_penalty=40)
        slow = simulate(program, trace, config=config)
        extra = slow.cycles - base.cycles
        assert extra >= base.pipeline_flushes * 30  # 35 extra per flush

    def test_mpki_and_flush_stats_consistent(self):
        import random

        program = self._random_branch_program()
        rng = random.Random(9)
        memory = {i: rng.randrange(2) for i in range(400)}
        trace, _ = execute(program, memory=memory)
        stats = simulate(program, trace)
        # without DMP every misprediction flushes
        assert stats.pipeline_flushes == stats.mispredictions
        assert stats.conditional_branches > 0


class TestMemoryEffects:
    def test_pointer_chase_is_slow(self):
        program = assemble(
            """
            .func main
                movi r1, 0
                movi r2, 3000
                movi r5, 0
            loop:
                cmpge r4, r1, r2
                bnez r4, done
                ld r5, 0(r5)
                addi r1, r1, 1
                jmp loop
            done:
                halt
            .endfunc
            """
        )
        import random

        # random cyclic permutation over 200k words (past the L2)
        n = 200_000
        idx = list(range(n))
        random.Random(4).shuffle(idx)
        memory = {idx[i]: idx[(i + 1) % n] for i in range(n)}
        trace, _ = execute(program, memory=memory)
        stats = simulate(program, trace)
        assert stats.ipc < 0.5

    def test_rob_limits_memory_parallelism(self):
        # Same chase with a tiny ROB is slower (fewer overlapped misses
        # behind the chain and less fetch-ahead).
        program = straightline(2000, ilp=True)
        trace, _ = execute(program)
        big = simulate(program, trace, config=ProcessorConfig(rob_size=512))
        small = simulate(program, trace,
                         config=ProcessorConfig(rob_size=16))
        assert small.cycles >= big.cycles


class TestCallsAndReturns:
    def test_ras_predicts_returns(self, call_program, alternating_memory):
        trace, _ = execute(call_program, memory=alternating_memory)
        simulator = make_simulator(call_program)
        stats = simulator.run(trace)
        assert simulator.ras.predictions > 0
        assert simulator.ras.mispredictions == 0

    def test_stats_report_renders(self, call_program, alternating_memory):
        trace, _ = execute(call_program, memory=alternating_memory)
        stats = simulate(call_program, trace, label="call-test")
        text = stats.report()
        assert "call-test" in text
        assert "IPC" in text
