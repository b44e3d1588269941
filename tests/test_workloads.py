"""Tests for the synthetic workload generator and benchmark suite."""

import zlib

import pytest

from repro.cfg import build_cfgs, find_natural_loops
from repro.core import DivergeKind, SelectionConfig, select_diverge_branches
from repro.emulator import execute
from repro.emulator.state import dense_memory
from repro.errors import WorkloadError
from repro.profiling import Profiler
from repro.workloads import (
    BENCHMARK_NAMES,
    BENCHMARK_SPECS,
    BenchmarkSpec,
    Region,
    build_program,
    load_benchmark,
)
from repro.workloads import suite
from repro.workloads.behaviors import BehaviorRNG
from repro.workloads.generator import fill_memory

from tests._legacy_workloads import legacy_fill_memory


class TestBehaviors:
    def test_biased_rate(self):
        bits = BehaviorRNG(1).biased(10_000, 0.2)
        assert 0.17 < sum(bits) / len(bits) < 0.23

    def test_markov_correlation(self):
        bits = BehaviorRNG(1).markov(10_000, p_same=0.9)
        switches = sum(a != b for a, b in zip(bits, bits[1:]))
        assert 0.07 < switches / len(bits) < 0.13

    def test_pattern_noise(self):
        clean = BehaviorRNG(1).pattern(700, period=7, duty=3, noise=0.0)
        assert clean[:7] == [1, 1, 1, 0, 0, 0, 0]
        noisy = BehaviorRNG(1).pattern(10_000, noise=0.1)
        flips = sum(
            a != b for a, b in zip(noisy, BehaviorRNG(1).pattern(10_000,
                                                                 noise=0.0))
        )
        # not exactly comparable (different rng draws) but nonzero noise
        assert flips > 0

    def test_bursty_rate_and_clustering(self):
        frac = 0.4
        bits = BehaviorRNG(2).bursty(20_000, hard_fraction=frac)
        # long-run switch rate well below an i.i.d. fair coin's 50%
        switches = sum(a != b for a, b in zip(bits, bits[1:]))
        assert switches / len(bits) < 0.35

    def test_geometric_trips_mean(self):
        trips = BehaviorRNG(3).geometric_trips(20_000, mean=4.0)
        assert all(t >= 1 for t in trips)
        mean = sum(trips) / len(trips)
        assert 3.3 < mean < 4.7

    def test_jittery_trips_mostly_constant(self):
        trips = BehaviorRNG(3).jittery_trips(1000, mean=5, deviation_prob=0.2)
        constant = sum(t == 5 for t in trips)
        assert constant > 700

    def test_uniform_and_constant_trips(self):
        rng = BehaviorRNG(4)
        uniform = rng.uniform_trips(1000, 2, 6)
        assert all(2 <= t <= 6 for t in uniform)
        assert rng.constant_trips(5, 3) == [3, 3, 3, 3, 3]

    def test_pointer_chain_is_single_cycle(self):
        chain = BehaviorRNG(5).pointer_chain(64, 64)
        seen = set()
        node = 0
        for _ in range(64):
            assert node not in seen
            seen.add(node)
            node = chain[node]
        assert node == 0
        assert seen == set(range(64))

    def test_determinism(self):
        assert BehaviorRNG(9).biased(100, 0.3) == \
            BehaviorRNG(9).biased(100, 0.3)


class TestGenerator:
    def test_unknown_region_kind_rejected(self):
        with pytest.raises(WorkloadError):
            Region("mystery")

    def test_region_count_validated(self):
        with pytest.raises(WorkloadError):
            Region("compute", count=0)

    def _build(self, region, iterations=40):
        spec = BenchmarkSpec(
            name="t", regions=(region,), iterations=iterations
        )
        program, segments = build_program(spec)
        memory = fill_memory(spec, segments, seed=1)
        return spec, program, memory

    @pytest.mark.parametrize(
        "kind",
        [
            "simple_hammock",
            "nested_hammock",
            "freq_hammock",
            "short_hammock",
            "split",
            "ret_hammock",
            "diverge_loop",
            "long_loop",
            "compute",
            "memory",
        ],
    )
    def test_every_region_kind_runs_to_completion(self, kind):
        spec, program, memory = self._build(Region(kind))
        trace, result = execute(
            program, memory=memory, max_instructions=200_000
        )
        assert result.halted

    def test_freq_region_yields_frequently_hammock(self):
        spec, program, memory = self._build(
            Region("freq_hammock", p=0.4, behavior="bursty"),
            iterations=300,
        )
        profile = Profiler().profile(
            program, memory=memory, max_instructions=500_000
        )
        annotation = select_diverge_branches(
            program, profile, SelectionConfig()
        )
        assert annotation.branches_of_kind(DivergeKind.FREQUENTLY_HAMMOCK)

    def test_diverge_loop_region_yields_loop(self):
        spec, program, memory = self._build(
            Region("diverge_loop", mean_iters=3.0), iterations=300
        )
        profile = Profiler().profile(
            program, memory=memory, max_instructions=500_000
        )
        annotation = select_diverge_branches(
            program, profile, SelectionConfig.all_best_heur()
        )
        assert annotation.branches_of_kind(DivergeKind.LOOP)

    def test_long_loop_region_rejected_by_heuristics(self):
        spec, program, memory = self._build(
            Region("long_loop", mean_iters=18.0, body_insts=3,
                   trip_kind="constant"),
            iterations=200,
        )
        profile = Profiler().profile(
            program, memory=memory, max_instructions=500_000
        )
        annotation = select_diverge_branches(
            program, profile, SelectionConfig.all_best_heur()
        )
        assert not annotation.branches_of_kind(DivergeKind.LOOP)

    def test_ret_region_produces_return_cfm(self):
        spec, program, memory = self._build(
            Region("ret_hammock", p=0.3, behavior="bursty"), iterations=300
        )
        profile = Profiler().profile(
            program, memory=memory, max_instructions=500_000
        )
        annotation = select_diverge_branches(
            program,
            profile,
            SelectionConfig(enable_return_cfm=True),
        )
        assert any(b.has_return_cfm for b in annotation)

    def test_replicas_are_distinct_static_code(self):
        spec, program, _ = self._build(
            Region("simple_hammock", count=3)
        )
        branch_pcs = program.conditional_branch_pcs()
        # outer loop branch + 3 hammock branches
        assert len(branch_pcs) == 4


class TestSuite:
    def test_seventeen_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 17
        assert "gcc" in BENCHMARK_NAMES and "m88ksim" in BENCHMARK_NAMES

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            load_benchmark("specfp")

    def test_unknown_input_set_rejected(self):
        with pytest.raises(WorkloadError):
            load_benchmark("gzip", input_set="ref")

    @pytest.mark.parametrize("scale", [
        0, -1, -0.5, float("inf"), float("-inf"), float("nan"), "0.3",
        None,
    ])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(WorkloadError, match="scale"):
            load_benchmark("gzip", scale=scale)

    def test_load_is_deterministic(self):
        a = load_benchmark("li", scale=0.2)
        b = load_benchmark("li", scale=0.2)
        assert a.memory == b.memory
        assert len(a.program) == len(b.program)

    def test_input_sets_share_program_but_differ_in_data(self):
        reduced = load_benchmark("li", scale=0.2)
        train = load_benchmark("li", scale=0.2, input_set="train")
        assert reduced.program is train.program
        assert reduced.memory != train.memory

    def test_scale_controls_dynamic_length(self):
        small = load_benchmark("eon", scale=0.2)
        _, result = execute(
            small.program,
            memory=small.memory,
            max_instructions=small.max_instructions,
        )
        assert result.halted
        assert 4_000 < result.instruction_count < 30_000

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_benchmark_halts(self, name):
        workload = load_benchmark(name, scale=0.1)
        _, result = execute(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
        )
        assert result.halted

    def test_specs_have_notes(self):
        assert all(spec.note for spec in BENCHMARK_SPECS.values())

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_pinned_calibration_matches_measurement(self, name):
        measured = suite.measure_calibration_count(name)
        assert measured == suite.CALIBRATION_COUNTS[name], (
            f"stale calibration; replace its table line with:\n"
            f'    "{name}": {measured},'
        )

    @pytest.mark.parametrize("input_set", ["reduced", "train"])
    def test_lazy_memory_equals_eager_fill(self, input_set):
        """Every benchmark's lazily built memory image holds exactly
        the frozen pre-change fill's words, zero everywhere else."""
        seed_offset, p_shift, iter_scale = suite.INPUT_SETS[input_set]
        for name in BENCHMARK_NAMES:
            workload = load_benchmark(name, input_set=input_set,
                                      scale=0.2)
            _, segments = build_program(workload.spec)
            eager = legacy_fill_memory(
                workload.spec, segments,
                zlib.crc32(name.encode()) + seed_offset,
                p_shift=p_shift, iter_scale=iter_scale,
            )
            assert workload.memory == dense_memory(eager), name
            assert workload.memory is workload.memory


class TestFootprint:
    #: Bytes ``get_artifacts("mcf", scale=0.3)`` may allocate at its
    #: peak: halfway between the per-word dict image (18.9 MB peak) and
    #: the dense ``array('q')`` image (7.0 MB), measured with
    #: tracemalloc on CPython 3.11.
    MCF_PEAK_BOUND = 13_000_000

    def test_artifact_build_stays_dense(self):
        """A return to a per-word dict image fails this bound."""
        import tracemalloc

        from repro.exec import artifact_cache
        from repro.experiments import runner

        load_benchmark("mcf", scale=0.3)     # the program, built once
        artifact_cache.set_disabled(True)
        tracemalloc.start()
        try:
            runner.get_artifacts("mcf", scale=0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            artifact_cache.set_disabled(None)
        assert peak < self.MCF_PEAK_BOUND
