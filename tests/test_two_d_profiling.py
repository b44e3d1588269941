"""Tests for the 2D-profiling extension (§8.3 future work)."""

import random

import pytest

from repro.core import SelectionConfig, select_diverge_branches
from repro.isa import assemble
from repro.profiling import Profiler
from repro.profiling.two_d import BranchPhaseStats, TwoDProfiler


def phased_program():
    """Two hammocks: one always easy, one with phased difficulty."""
    return assemble(
        """
        .func main
            movi r1, 0
            movi r2, 600
        loop:
            cmpge r4, r1, r2
            bnez r4, done
            ld r3, 0(r1)
            and r5, r3, 1
            bnez r5, easy_then      ; pc 7: always-easy branch
            addi r6, r6, 1
            jmp easy_merge
        easy_then:
            addi r7, r7, 1
        easy_merge:
            and r5, r3, 2
            bnez r5, hard_then      ; pc 13: phased branch
            addi r8, r8, 1
            jmp hard_merge
        hard_then:
            addi r9, r9, 1
        hard_merge:
            addi r1, r1, 1
            jmp loop
        done:
            halt
        .endfunc
        """
    )


EASY_PC = 6
PHASED_PC = 11


def phased_memory(n=600, seed=3):
    """bit0 constant (easy); bit1 random in the middle third only."""
    rng = random.Random(seed)
    memory = {}
    for i in range(n):
        hard_phase = n // 3 <= i < 2 * n // 3
        bit1 = rng.randrange(2) if hard_phase else 0
        memory[i] = 0 | (bit1 << 1)
    return memory


@pytest.fixture(scope="module")
def two_d():
    program = phased_program()
    return program, TwoDProfiler().profile(
        program, memory=phased_memory()
    )


class TestDetection:
    def test_phased_branch_flagged_input_dependent(self, two_d):
        _, profile = two_d
        assert profile.is_input_dependent(PHASED_PC)

    def test_easy_branch_flagged_always_easy(self, two_d):
        _, profile = two_d
        assert profile.is_always_easy(EASY_PC)
        assert not profile.is_input_dependent(EASY_PC)

    def test_keep_branch_rule(self, two_d):
        _, profile = two_d
        assert profile.keep_branch(PHASED_PC)
        assert not profile.keep_branch(EASY_PC)

    def test_listings_consistent(self, two_d):
        _, profile = two_d
        assert PHASED_PC in profile.input_dependent_branches()
        assert EASY_PC in profile.always_easy_branches()

    def test_rarely_executed_branch_kept_conservatively(self, two_d):
        _, profile = two_d
        # an unknown pc has no evidence → conservatively kept
        assert profile.keep_branch(99999)

    def test_phase_stddev_math(self):
        stats = BranchPhaseStats(
            pc=1, executions=100, mispredictions=10,
            slice_rates=[0.0, 0.0, 0.5, 0.5],
        )
        assert stats.misprediction_rate == pytest.approx(0.10)
        assert stats.phase_stddev == pytest.approx(0.2887, abs=1e-3)

    def test_single_slice_has_zero_stddev(self):
        stats = BranchPhaseStats(1, 10, 1, [0.3])
        assert stats.phase_stddev == 0.0


class TestSelectionIntegration:
    def test_filter_drops_easy_branch_only(self, two_d):
        program, profile2d = two_d
        profile = Profiler().profile(program, memory=phased_memory())
        unfiltered = select_diverge_branches(
            program, profile, SelectionConfig()
        )
        filtered = select_diverge_branches(
            program,
            profile,
            SelectionConfig(),
            two_d_profile=profile2d,
        )
        assert unfiltered.is_diverge(EASY_PC)
        assert not filtered.is_diverge(EASY_PC)
        assert filtered.is_diverge(PHASED_PC)

    def test_filtered_is_subset(self, two_d):
        program, profile2d = two_d
        profile = Profiler().profile(program, memory=phased_memory())
        unfiltered = select_diverge_branches(
            program, profile, SelectionConfig()
        )
        filtered = select_diverge_branches(
            program, profile, SelectionConfig(), two_d_profile=profile2d
        )
        assert {b.branch_pc for b in filtered} <= {
            b.branch_pc for b in unfiltered
        }
