"""Edge-case tests for the DMP timing simulator."""

import random

import pytest

from repro.core import (
    BinaryAnnotation,
    CFMKind,
    CFMPoint,
    DivergeBranch,
    DivergeKind,
)
from repro.emulator import execute
from repro.isa import assemble
from repro.uarch import ProcessorConfig, simulate


def hammock_program(iterations=300):
    return assemble(
        f"""
        .func main
            movi r1, 0
            movi r2, {iterations}
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
            addi r8, r8, 1
            addi r1, r1, 1
            jmp loop
        done:
            halt
        .endfunc
        """
    )


BRANCH_PC = 5
MERGE_PC = 9


def random_memory(n=300, seed=11):
    rng = random.Random(seed)
    return {i: rng.randrange(2) for i in range(n)}


def mark(cfm_pc, **kwargs):
    points = ()
    if cfm_pc is not None:
        points = (CFMPoint(pc=cfm_pc, kind=CFMKind.EXACT),)
    return BinaryAnnotation(
        "t",
        [
            DivergeBranch(
                branch_pc=BRANCH_PC,
                kind=DivergeKind.SIMPLE_HAMMOCK,
                cfm_points=points,
                select_registers=frozenset({6, 7}),
                **kwargs,
            )
        ],
    )


class TestCFMPlacement:
    def test_unreachable_cfm_degrades_to_dual_path(self):
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        # CFM that the true path never visits: the halt instruction.
        halt_pc = len(program) - 1
        stats = simulate(program, trace, annotation=mark(halt_pc))
        assert stats.dpred_episodes > 0
        assert stats.dpred_episodes_merged == 0

    def test_correct_cfm_merges(self):
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        stats = simulate(program, trace, annotation=mark(MERGE_PC))
        assert stats.dpred_episodes_merged > 0
        assert stats.merge_rate > 0.9


class TestEpisodeInterruption:
    def test_inner_misprediction_squashes_episode(self):
        # Mark the outer loop-exit branch: episodes opened there get
        # squashed whenever the hammock branch inside mispredicts.
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        annotation = BinaryAnnotation(
            "t",
            [
                DivergeBranch(
                    branch_pc=3,  # outer bnez r4, done
                    kind=DivergeKind.NESTED_HAMMOCK,
                    cfm_points=(
                        CFMPoint(pc=len(program) - 1, kind=CFMKind.EXACT),
                    ),
                    always_predicate=True,
                )
            ],
        )
        stats = simulate(program, trace, annotation=annotation)
        # the inner hammock still flushes normally
        assert stats.pipeline_flushes > 0

    def test_one_episode_at_a_time(self):
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        annotation = mark(MERGE_PC, always_predicate=True)
        stats = simulate(program, trace, annotation=annotation)
        executions = sum(
            1 for d in trace if d.pc == BRANCH_PC
        )
        assert stats.dpred_episodes <= executions


class TestConfigurationKnobs:
    def test_narrow_fetch_is_slower(self):
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        wide = simulate(program, trace, config=ProcessorConfig())
        narrow = simulate(
            program, trace, config=ProcessorConfig(fetch_width=2)
        )
        assert narrow.cycles > wide.cycles

    def test_higher_penalty_hurts_baseline_more_than_dmp(self):
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        config = ProcessorConfig(redirect_penalty=30)
        base = simulate(program, trace, config=config)
        dmp = simulate(program, trace, config=config,
                       annotation=mark(MERGE_PC))
        cheap = ProcessorConfig(redirect_penalty=1)
        base_cheap = simulate(program, trace, config=cheap)
        dmp_cheap = simulate(program, trace, config=cheap,
                             annotation=mark(MERGE_PC))
        gain_expensive = base.cycles - dmp.cycles
        gain_cheap = base_cheap.cycles - dmp_cheap.cycles
        assert gain_expensive > gain_cheap

    def test_confidence_threshold_gates_episodes(self):
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        eager = simulate(
            program,
            trace,
            config=ProcessorConfig(confidence_threshold=15),
            annotation=mark(MERGE_PC),
        )
        shy = simulate(
            program,
            trace,
            config=ProcessorConfig(confidence_threshold=1),
            annotation=mark(MERGE_PC),
        )
        assert eager.dpred_episodes > shy.dpred_episodes

    def test_tournament_predictor_config(self):
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        stats = simulate(
            program,
            trace,
            config=ProcessorConfig(predictor_kind="tournament"),
        )
        assert stats.retired_instructions == len(trace)


class TestWarmICache:
    def test_static_code_does_not_pay_cold_memory_latency(self):
        program = hammock_program(iterations=20)
        trace, _ = execute(program, memory=random_memory(20))
        stats = simulate(program, trace)
        # warming leaves no I-cache misses at all on this tiny footprint
        assert stats.icache_misses == 0
        # and the run is nowhere near the ~312-cycles-per-line regime
        # (flushes and a few cold D-misses dominate instead)
        assert stats.cycles < 10 * len(trace)


class TestResourceConstraints:
    def test_cfm_registers_cap_episode_cfms(self):
        program = hammock_program()
        memory = random_memory()
        trace, _ = execute(program, memory=memory)
        # hand-written annotation with more CFM points than registers
        points = tuple(
            CFMPoint(pc=pc, kind=CFMKind.APPROXIMATE, merge_prob=0.5)
            for pc in (MERGE_PC, MERGE_PC + 1, MERGE_PC + 2,
                       len(program) - 1)
        )
        annotation = BinaryAnnotation(
            "t",
            [
                DivergeBranch(
                    branch_pc=BRANCH_PC,
                    kind=DivergeKind.FREQUENTLY_HAMMOCK,
                    cfm_points=points,
                )
            ],
        )
        stats = simulate(program, trace, annotation=annotation)
        # still runs and merges at one of the tracked points
        assert stats.dpred_episodes > 0

    def test_predicate_registers_bound_loop_depth(self):
        loop_text = """
        .func main
            movi r1, 0
            movi r2, 120
        outer:
            cmpge r4, r1, r2
            bnez r4, done
            ld r3, 0(r1)
        inner:
            addi r5, r5, 1
            addi r3, r3, -1
            bnez r3, inner
            addi r1, r1, 1
            jmp outer
        done:
            halt
        .endfunc
        """
        program = assemble(loop_text)
        rng = random.Random(5)
        memory = {i: rng.randrange(1, 9) for i in range(120)}
        trace, _ = execute(program, memory=memory)
        annotation = BinaryAnnotation(
            "l",
            [
                DivergeBranch(
                    branch_pc=7,
                    kind=DivergeKind.LOOP,
                    cfm_points=(
                        CFMPoint(pc=8, kind=CFMKind.LOOP_EXIT),
                    ),
                    select_registers=frozenset({3, 5}),
                    loop_direction=True,
                    loop_body_size=3,
                )
            ],
        )
        few = simulate(
            program, trace,
            config=ProcessorConfig(num_predicate_registers=1),
            annotation=annotation,
        )
        many = simulate(
            program, trace,
            config=ProcessorConfig(num_predicate_registers=32),
            annotation=annotation,
        )
        # fewer predicate registers => fewer select-µops per episode
        assert few.dpred_select_uops <= many.dpred_select_uops
