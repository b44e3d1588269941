"""Additional edge-case coverage across small utilities."""

import pytest

from repro.cfg import build_cfgs, enumerate_paths
from repro.emulator import execute
from repro.isa import ProgramBuilder, assemble
from repro.uarch.stats import SimStats
from repro.workloads import load_benchmark
from repro.workloads.generator import fill_memory


class TestSimStats:
    def test_zero_division_guards(self):
        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.mpki == 0.0
        assert stats.flushes_per_kilo_inst == 0.0
        assert stats.measured_acc_conf == 0.0
        assert stats.merge_rate == 0.0

    def test_speedup_over(self):
        fast = SimStats(cycles=100, retired_instructions=1000)
        slow = SimStats(cycles=200, retired_instructions=1000)
        assert fast.speedup_over(slow) == pytest.approx(1.0)
        assert slow.speedup_over(fast) == pytest.approx(-0.5)
        empty = SimStats()
        assert fast.speedup_over(empty) == 0.0

    def test_report_without_dpred_has_no_dpred_line(self):
        stats = SimStats(label="x", cycles=10, retired_instructions=10)
        assert "dpred" not in stats.report()


class TestTraceDetails:
    def test_halt_recorded_in_trace(self):
        program = assemble(".func main\n    halt\n.endfunc")
        trace, result = execute(program)
        assert result.halted
        assert trace[-1].pc == 0

    def test_dynamic_instruction_repr(self):
        program = assemble(".func main\n    nop\n    halt\n.endfunc")
        trace, _ = execute(program)
        assert "pc=0" in repr(trace[0])

    def test_collect_trace_false_returns_none(self):
        program = assemble(".func main\n    halt\n.endfunc")
        trace, result = execute(program, collect_trace=False)
        assert trace is None
        assert result.halted


class TestPathEnumerationLimits:
    def test_max_paths_cap(self):
        # A ladder of N independent branches yields 2^N paths; the cap
        # must bound enumeration without raising.
        builder = ProgramBuilder()
        builder.begin_function("main")
        builder.movi(1, 1)
        start = builder.here
        builder.bnez(1, "l0")
        builder.label("l0")
        for i in range(12):
            taken = f"t{i}"
            merge = f"m{i}"
            builder.bnez(1, taken)
            builder.addi(2, 2, 1)
            builder.jmp(merge)
            builder.label(taken)
            builder.addi(3, 3, 1)
            builder.label(merge)
        builder.halt()
        builder.end_function()
        program = builder.build()
        cfg = build_cfgs(program)["main"]
        ps = enumerate_paths(
            cfg,
            start,
            lambda pc, taken: 0.5,
            max_instr=500,
            max_cbr=50,
            max_paths=64,
        )
        assert 0 < len(ps.taken_paths) <= 64

    def test_tiny_probability_inner_directions_pruned(self):
        builder = ProgramBuilder()
        builder.begin_function("main")
        builder.movi(1, 1)
        builder.bnez(1, "side")          # root branch (pc 1)
        builder.addi(2, 2, 1)
        builder.bnez(2, "side")          # inner branch (pc 3)
        builder.addi(2, 2, 2)
        builder.label("side")
        builder.addi(3, 3, 1)
        builder.halt()
        builder.end_function()
        program = builder.build()
        cfg = build_cfgs(program)["main"]
        # The root branch's directions are always explored (the
        # enumeration is *conditional* on them); an inner branch whose
        # every direction is below MIN_EXEC_PROB ends its path as
        # "pruned".
        ps = enumerate_paths(
            cfg, 1, lambda pc, taken: 1e-12, max_instr=50, max_cbr=5,
            min_exec_prob=1e-3,
        )
        assert any(p.reason == "pruned" for p in ps.nottaken_paths)


class TestInputSets:
    def test_train_trip_counts_scale_up(self):
        reduced = load_benchmark("parser", scale=0.3)
        train = load_benchmark("parser", scale=0.3, input_set="train")
        # diverge-loop trip words live in the loop regions' segments;
        # compare total trip mass as a proxy.
        reduced_sum = sum(reduced.memory)
        train_sum = sum(train.memory)
        assert train_sum != reduced_sum

    def test_fill_memory_rejects_nothing_silently(self):
        # every region kind in the default specs has an input generator
        workload = load_benchmark("go", scale=0.1)
        assert workload.memory  # non-empty image

    def test_memory_images_are_ints(self):
        workload = load_benchmark("mcf", scale=0.1)
        assert workload.memory.typecode == "q"
        assert all(isinstance(v, int) for v in workload.memory[:100])


class TestRunnerCache:
    def test_clear_cache_resets(self):
        from repro.experiments.runner import (
            clear_cache,
            get_artifacts,
        )

        first = get_artifacts("li", scale=0.1)
        clear_cache()
        second = get_artifacts("li", scale=0.1)
        assert first is not second
        # determinism: same content regardless of cache state
        assert len(first.trace) == len(second.trace)
