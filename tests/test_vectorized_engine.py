"""Vectorized batch-replay engine: bit-identity and engine selection.

The contract under test (see ``repro.uarch.vectorized``): the
vectorized engine produces *bit-identical* ``SimStats`` — including
per-branch counters, runtime-ledger rows, and the tracer event stream
— to the scalar engine for every supported (program, config,
annotation) triple, at every window size.
"""

import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BinaryAnnotation,
    CFMKind,
    CFMPoint,
    DivergeBranch,
    DivergeKind,
    SelectionConfig,
    select_diverge_branches,
)
from repro.emulator import execute
from repro.errors import SimulationError
from repro.isa import assemble
from repro.obs.ledger import RuntimeLedger
from repro.obs.tracer import ListSink, Tracer
from repro.profiling import Profiler
from repro.uarch import (
    ProcessorConfig,
    TimingSimulator,
    VectorizedTimingSimulator,
    make_simulator,
    requested_engine,
    resolve_engine,
)
from repro.uarch import vectorized
from repro.uarch.engine import ENV_SIM_ENGINE
from repro.uarch.vectorized import supports
from repro.workloads import load_benchmark
from repro.workloads.generator import (
    BenchmarkSpec,
    Region,
    build_program,
    fill_memory,
)
from repro.workloads.suite import BENCHMARK_SPECS

from tests.test_simulator_dmp import hammock_annotation, hammock_setup


def _trace_of(workload):
    trace, _ = execute(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
        compact=True,
    )
    return trace


def _profiled_trace(program, memory, max_instructions=200_000):
    """Emulate once, returning ``(trace, branch profile)``."""
    profiler = Profiler()
    collector = profiler.collector()
    trace, result = execute(
        program, memory=memory, max_instructions=max_instructions,
        on_branch=collector.on_branch, compact=True,
    )
    return trace, collector.finish(result)


def _run_pair(program, trace, annotation=None, config=None,
              window_size=None, label="run"):
    """Scalar and vectorized stats dicts + ledger rows for one input."""
    out = []
    for cls in (TimingSimulator, VectorizedTimingSimulator):
        kwargs = {}
        if cls is VectorizedTimingSimulator and window_size is not None:
            kwargs["window_size"] = window_size
        ledger = RuntimeLedger()
        stats = cls(
            program, config=config, annotation=annotation,
            collect_per_branch=True, ledger=ledger, **kwargs
        ).run(trace, label=label)
        out.append((stats.as_dict(per_branch=True), ledger._branches))
    return out


class TestSuiteBitIdentity:
    """Every workload, baseline + both selection presets."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SPECS))
    def test_workload(self, name):
        workload = load_benchmark(name, scale=0.05)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        annotations = [None]
        for config in (SelectionConfig.all_best_heur(),
                       SelectionConfig.all_best_cost()):
            annotations.append(select_diverge_branches(
                workload.program, profile, config
            ))
        for annotation in annotations:
            (scalar, scalar_led), (vec, vec_led) = _run_pair(
                workload.program, trace, annotation, label=name
            )
            assert scalar == vec
            assert scalar_led == vec_led


class TestEventStreamIdentity:
    @pytest.mark.parametrize("name", ["twolf", "gzip"])
    def test_tracer_events_identical(self, name):
        workload = load_benchmark(name, scale=0.05)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        annotation = select_diverge_branches(
            workload.program, profile, SelectionConfig.all_best_heur()
        )
        streams = []
        for cls in (TimingSimulator, VectorizedTimingSimulator):
            sink = ListSink()
            cls(workload.program, annotation=annotation,
                tracer=Tracer(sink)).run(trace, label=name)
            streams.append(json.dumps(sink.records, sort_keys=True))
        assert streams[0] == streams[1]


class TestWindowBoundaries:
    def test_window_sweep_with_episodes(self):
        """Tiny windows force episode entries/flushes onto boundaries."""
        program, trace = hammock_setup()
        annotation = hammock_annotation()
        reference = TimingSimulator(
            program, annotation=annotation
        ).run(trace).as_dict()
        assert reference["dpred_episodes"] > 0
        for window_size in (1, 2, 3, 5, 7, 16, 64, 1000):
            got = VectorizedTimingSimulator(
                program, annotation=annotation, window_size=window_size
            ).run(trace).as_dict()
            assert got == reference, f"window_size={window_size}"

    def test_episode_entry_pinned_on_window_edge(self):
        """Windows cut exactly at the first diverge-branch row."""
        from repro.emulator import trace_rows
        from tests.test_simulator_dmp import HAMMOCK_BRANCH

        program, trace = hammock_setup()
        annotation = hammock_annotation(always=True)
        first = next(
            i for i, (pc, _, _) in enumerate(trace_rows(trace))
            if pc == HAMMOCK_BRANCH
        )
        reference = TimingSimulator(
            program, annotation=annotation
        ).run(trace).as_dict()
        assert reference["dpred_episodes"] > 0
        for window_size in (first, first + 1, max(1, first - 1)):
            got = VectorizedTimingSimulator(
                program, annotation=annotation, window_size=window_size
            ).run(trace).as_dict()
            assert got == reference, f"window_size={window_size}"

    def test_object_trace(self):
        workload = load_benchmark("gzip", scale=0.05)
        trace, _ = execute(
            workload.program, memory=workload.memory,
            max_instructions=workload.max_instructions, compact=False,
        )
        assert TimingSimulator(workload.program).run(trace).as_dict() \
            == VectorizedTimingSimulator(
                workload.program).run(trace).as_dict()

    def test_window_size_validated(self):
        workload = load_benchmark("gzip", scale=0.05)
        with pytest.raises(SimulationError):
            VectorizedTimingSimulator(workload.program, window_size=0)


#: A hammock (branch pc 8, merging at 13) and a diverge loop (latch
#: pc 16) in one outer loop.  Each iteration loads r6 from a fresh
#: line (a miss), so the CMOV's third source, its old destination, is
#: its latest one; a second CMOV writes r0 right after a store that
#: completes late.  The run ends on another miss followed by short
#: instructions.
HAMMOCK_AND_LOOP = """
.func main
    movi r1, 0
    movi r2, 100
    movi r11, 4096
outer:
    cmpge r4, r1, r2
    bnez r4, done
    ld r3, 0(r1)
    ld r6, 0(r11)
    addi r11, r11, 64
    bnez r3, then
    addi r8, r8, 1
    jmp merge
then:
    addi r7, r7, 1
    cmov r6, r3, r7
merge:
    ld r9, 256(r1)
inner:
    addi r5, r5, 1
    addi r9, r9, -1
    bnez r9, inner
    st r6, 1024(r1)
    cmov r0, r3, r5
    addi r1, r1, 1
    jmp outer
done:
    ld r12, 0(r11)
    addi r13, r13, 1
    addi r14, r14, 1
    addi r15, r15, 1
    halt
.endfunc
"""


def _hammock_and_loop():
    program = assemble(HAMMOCK_AND_LOOP)
    rng = random.Random(5)
    memory = {}
    for i in range(100):
        memory[i] = rng.randrange(2)
        trips = 1                 # geometric, mean ~3: unpredictable
        while trips < 12 and rng.random() > 1 / 3:
            trips += 1
        memory[256 + i] = trips
    trace, _ = execute(program, memory=memory)
    annotation = BinaryAnnotation("hammock+loop", [
        DivergeBranch(
            branch_pc=8, kind=DivergeKind.SIMPLE_HAMMOCK,
            cfm_points=(CFMPoint(pc=13, kind=CFMKind.EXACT),),
            select_registers=frozenset({6, 7, 8}),
        ),
        DivergeBranch(
            branch_pc=16, kind=DivergeKind.LOOP,
            cfm_points=(CFMPoint(pc=17, kind=CFMKind.LOOP_EXIT),),
            select_registers=frozenset({5, 9}),
            loop_direction=True, loop_body_size=3,
        ),
    ])
    return program, trace, annotation


class TestRetireGeometry:
    """The block-scanned ROB retire against the scalar per-entry one.

    Loop episodes and their late-exit extensions bulk-insert many ROB
    entries at once, so tiny ROBs are overfilled by far more than one
    entry; every window size cuts the replay differently.
    """

    @pytest.mark.parametrize("fetch_width", (1, 8))
    @pytest.mark.parametrize("retire_width", (1, 3, 8))
    @pytest.mark.parametrize("rob_size", (1, 2, 16, 512))
    def test_matches_scalar(self, rob_size, retire_width, fetch_width):
        program, trace, annotation = _hammock_and_loop()
        config = ProcessorConfig(rob_size=rob_size,
                                 retire_width=retire_width,
                                 fetch_width=fetch_width)
        runs = []
        for cls, window_size in ((TimingSimulator, None),
                                 (VectorizedTimingSimulator, 1),
                                 (VectorizedTimingSimulator, 7),
                                 (VectorizedTimingSimulator, None)):
            kwargs = {} if window_size is None \
                else {"window_size": window_size}
            ledger = RuntimeLedger()
            sink = ListSink()
            stats = cls(program, config=config, annotation=annotation,
                        collect_per_branch=True, ledger=ledger,
                        tracer=Tracer(sink), **kwargs).run(trace)
            runs.append((stats.as_dict(per_branch=True),
                         ledger._branches,
                         json.dumps(sink.records, sort_keys=True)))
        reference = runs[0][0]
        assert reference["dpred_episodes"] \
            > reference["dpred_episodes_loop"] > 0
        for got, window_size in zip(runs[1:], (1, 7, None)):
            assert got == runs[0], f"window_size={window_size}"

    def test_profiler_charges_retire(self):
        from repro.uarch import COMPONENTS, SimProfiler

        program, trace, annotation = _hammock_and_loop()
        config = ProcessorConfig(rob_size=16, retire_width=3)
        events = []
        for cls in (TimingSimulator, VectorizedTimingSimulator):
            profiler = SimProfiler()
            cls(program, config=config, annotation=annotation,
                profiler=profiler).run(trace)
            events.append(dict(zip(COMPONENTS, profiler.events)))
            run = profiler.runs[0]
            assert sum(run["seconds"].values()) == pytest.approx(
                run["total_seconds"])
            assert run["seconds"]["rob_retire"] > 0
        assert events[0]["rob_retire"] == events[1]["rob_retire"]


REGION_KINDS = (
    "simple_hammock", "nested_hammock", "freq_hammock",
    "short_hammock", "split", "ret_hammock", "diverge_loop",
    "long_loop", "compute", "memory",
)


@st.composite
def random_workloads(draw):
    regions = tuple(
        Region(
            kind=draw(st.sampled_from(REGION_KINDS)),
            behavior=draw(st.sampled_from(("biased", "markov",
                                           "pattern"))),
            p=draw(st.floats(min_value=0.05, max_value=0.95)),
            side_insts=draw(st.integers(min_value=1, max_value=10)),
            body_insts=draw(st.integers(min_value=1, max_value=8)),
            mean_iters=draw(st.floats(min_value=1.0, max_value=6.0)),
            trip_kind=draw(st.sampled_from(("geometric", "jittery",
                                            "uniform"))),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return (
        regions,
        draw(st.integers(min_value=16, max_value=60)),   # iterations
        draw(st.integers(min_value=0, max_value=2**31)),  # memory seed
        draw(st.sampled_from((1, 3, 7, 64, 1 << 15))),    # window
        draw(st.booleans()),                              # annotate?
    )


class TestPropertyBitIdentity:
    @given(random_workloads())
    @settings(max_examples=25, deadline=None)
    def test_random_programs(self, params):
        regions, iterations, seed, window_size, annotate = params
        spec = BenchmarkSpec(
            name="prop", regions=regions, iterations=iterations
        )
        program, segments = build_program(spec)
        memory = fill_memory(spec, segments, seed)
        trace, profile = _profiled_trace(program, memory)
        annotation = None
        if annotate:
            annotation = select_diverge_branches(
                program, profile, SelectionConfig.all_best_heur()
            )
        (scalar, scalar_led), (vec, vec_led) = _run_pair(
            program, trace, annotation, window_size=window_size
        )
        assert scalar == vec
        assert scalar_led == vec_led


class TestEngineSelection:
    @pytest.fixture(autouse=True)
    def _engine_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_SIM_ENGINE, raising=False)

    def test_auto_picks_vectorized_when_supported(self):
        workload = load_benchmark("gzip", scale=0.05)
        assert resolve_engine(workload.program) == "vectorized"
        assert isinstance(make_simulator(workload.program),
                          VectorizedTimingSimulator)

    def test_auto_falls_back_on_unsupported_program(self):
        """A tiny I-cache breaks residency → auto quietly uses scalar."""
        workload = load_benchmark("gzip", scale=0.05)
        tiny = ProcessorConfig(icache_kb=1, icache_assoc=1)
        ok, reason = supports(workload.program, tiny)
        assert not ok and "residency" in reason
        assert resolve_engine(workload.program, tiny) == "scalar"
        simulator = make_simulator(workload.program, config=tiny)
        assert type(simulator) is TimingSimulator

    def test_explicit_vectorized_on_unsupported_raises(self,
                                                        monkeypatch):
        workload = load_benchmark("gzip", scale=0.05)
        tiny = ProcessorConfig(icache_kb=1, icache_assoc=1)
        monkeypatch.setenv(ENV_SIM_ENGINE, "vectorized")
        with pytest.raises(SimulationError):
            resolve_engine(workload.program, tiny)
        with pytest.raises(SimulationError):
            VectorizedTimingSimulator(workload.program, config=tiny)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(ENV_SIM_ENGINE, "scalar")
        assert requested_engine() == "scalar"
        monkeypatch.setenv(ENV_SIM_ENGINE, "bogus")
        with pytest.raises(SimulationError,
                           match="auto, scalar, vectorized"):
            requested_engine()

    def test_unknown_engine_name_raises(self, monkeypatch):
        workload = load_benchmark("gzip", scale=0.05)
        monkeypatch.setenv(ENV_SIM_ENGINE, "warp")
        with pytest.raises(SimulationError):
            resolve_engine(workload.program)

    def test_cli_exits_on_unknown_engine(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv(ENV_SIM_ENGINE, "scaler")
        assert main(["table1"]) == 2
        assert "choose from auto, scalar, vectorized" \
            in capsys.readouterr().err


class TestProfileCliEngine:
    def test_profile_json_validates_with_vectorized(self, tmp_path,
                                                    capsys, monkeypatch):
        from repro.obs.explain import load_schema, validate_explain
        from repro.obs.profile_cli import main

        out = tmp_path / "profile.json"
        monkeypatch.setenv(ENV_SIM_ENGINE, "vectorized")
        assert main(["gzip", "--scale", "0.1", "--json",
                     "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["engine"] == "vectorized"
        assert validate_explain(data, load_schema("profile")) == []

    def test_profile_engine_scalar_reported(self, monkeypatch):
        from repro.obs.profile_cli import build_profile

        monkeypatch.setenv(ENV_SIM_ENGINE, "scalar")
        data = build_profile(
            "gzip", SelectionConfig.all_best_cost(), scale=0.1,
        )
        assert data["engine"] == "scalar"


def _component_state(simulator):
    """Every counter a run exposes on the simulator's components."""
    memory = simulator.memory
    return (
        memory.dcache.hits, memory.dcache.misses,
        memory.l2.hits, memory.l2.misses,
        simulator.confidence.snapshot(), simulator.confidence._history,
        simulator.btb.hits, simulator.btb.misses,
        simulator.ras.predictions, simulator.ras.mispredictions,
        simulator.ras.overflows,
    )


class TestPrepassMemo:
    """The pre-pass memo never changes a result: a miss, a hit, a
    second run on the same simulator and every window size match the
    scalar engine; hits restore the component counters and profiler
    event counts a computed run leaves."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        vectorized.clear_prepass_memo()
        yield
        vectorized.clear_prepass_memo()

    @pytest.fixture(scope="class")
    def dmp_input(self):
        workload = load_benchmark("twolf", scale=0.05)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        annotation = select_diverge_branches(
            workload.program, profile, SelectionConfig.all_best_heur()
        )
        return workload.program, trace, annotation

    def _scalar(self, program, trace, annotation=None, config=None,
                runs=1):
        simulator = TimingSimulator(program, config=config,
                                    annotation=annotation,
                                    collect_per_branch=True)
        out = [simulator.run(trace).as_dict(per_branch=True)
               for _ in range(runs)]
        return out, _component_state(simulator)

    def _vectorized(self, program, trace, annotation=None, config=None,
                    runs=1, **kwargs):
        simulator = VectorizedTimingSimulator(
            program, config=config, annotation=annotation,
            collect_per_branch=True, **kwargs,
        )
        out = [simulator.run(trace).as_dict(per_branch=True)
               for _ in range(runs)]
        return out, _component_state(simulator)

    def test_miss_then_hit(self, dmp_input):
        program, trace, annotation = dmp_input
        reference = self._scalar(program, trace, annotation)
        assert self._vectorized(program, trace, annotation) == reference
        assert len(vectorized._PREPASS_MEMO) == 1
        entry = next(iter(vectorized._PREPASS_MEMO.values()))
        # A hit: same entry, same stats and component counters.
        assert self._vectorized(program, trace, annotation) == reference
        assert list(vectorized._PREPASS_MEMO.values()) == [entry]
        # The baseline shares the annotation-independent entry.
        assert self._vectorized(program, trace) \
            == self._scalar(program, trace)
        assert len(vectorized._PREPASS_MEMO) == 1

    @pytest.mark.parametrize("warm", [False, True])
    def test_two_runs_on_one_simulator(self, dmp_input, warm):
        """The second run starts from the state the first run's
        pre-passes leave, whether the first run hit the memo or not."""
        program, trace, annotation = dmp_input
        if warm:
            VectorizedTimingSimulator(program).run(trace)
            vectorized.clear_run_memo()
            assert len(vectorized._PREPASS_MEMO) == 1
        assert self._vectorized(program, trace, annotation, runs=3) \
            == self._scalar(program, trace, annotation, runs=3)

    def test_non_default_config(self, dmp_input):
        program, trace, annotation = dmp_input
        config = ProcessorConfig(
            predictor_kind="gshare", dcache_kb=4, dcache_assoc=2,
            l2_kb=64, confidence_threshold=9, btb_entries=64,
            ras_depth=4, memory_latency=40000,
        )
        reference = self._scalar(program, trace, annotation, config)
        for _ in range(2):          # a miss, then a hit
            assert self._vectorized(program, trace, annotation,
                                    config) == reference
        # Keyed on config values: the default config is its own entry.
        self._vectorized(program, trace, annotation)
        assert len(vectorized._PREPASS_MEMO) == 2
        assert self._vectorized(
            program, trace, annotation,
            ProcessorConfig(**dict(config.__dict__)),
        ) == reference
        assert len(vectorized._PREPASS_MEMO) == 2

    def test_tiny_windows_share_the_entry(self):
        program, trace = hammock_setup()
        annotation = hammock_annotation()
        reference = self._scalar(program, trace, annotation, runs=2)
        for window_size in (1, 3, 7, 1 << 15):
            assert self._vectorized(
                program, trace, annotation, runs=2,
                window_size=window_size,
            ) == reference, window_size
        assert len(vectorized._PREPASS_MEMO) == 1

    def test_keyed_on_trace_contents(self):
        from repro.emulator import Trace

        program, trace = hammock_setup()      # a list trace
        other = Trace()
        for dyn in trace:
            other.record(dyn.pc, dyn.next_pc, dyn.address)
        self._vectorized(program, trace)
        self._vectorized(program, other)        # equal columns: a hit
        assert len(vectorized._PREPASS_MEMO) == 1
        for row, address in enumerate(other.addresses):
            if address != -1:
                other.addresses[row] = address + 4096
                break
        assert self._vectorized(program, other) \
            == self._scalar(program, other)
        assert len(vectorized._PREPASS_MEMO) == 2

    def test_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(vectorized, "PREPASS_MEMO_ENTRIES", 3)
        program, trace = hammock_setup()
        configs = [ProcessorConfig(memory_latency=100 + i)
                   for i in range(5)]
        for config in configs[:3] + configs[:1] + configs[3:]:
            VectorizedTimingSimulator(program, config=config).run(trace)
        assert [key[2] for key in vectorized._PREPASS_MEMO] \
            == [configs[0], configs[3], configs[4]]

    def test_profiler_events_on_a_hit(self, dmp_input):
        from repro.uarch import COMPONENTS, SimProfiler

        program, trace, annotation = dmp_input
        events = []
        for cls in (TimingSimulator, VectorizedTimingSimulator,
                    VectorizedTimingSimulator):    # scalar, miss, hit
            profiler = SimProfiler()
            cls(program, annotation=annotation,
                profiler=profiler).run(trace)
            events.append(dict(zip(COMPONENTS, profiler.events)))
        assert events[1] == events[2]
        assert len(vectorized._PREPASS_MEMO) == 1
        # The vectorized engine attributes icache, fetch and dataflow
        # events per kernel; every other bucket counts like the scalar.
        for name in ("icache", "fetch", "dataflow"):
            for counts in events:
                del counts[name]
        assert events[0] == events[2]


#: One loop whose two multiplies either chain through their own
#: destinations or read registers nothing writes: equal kind, latency
#: and control flow (so equal traces and pre-passes), different timing.
REGISTER_LOOP = """
.func main
    movi r1, 0
    movi r2, 200
loop:
    mul r3, {0}, r2
    mul r4, {1}, r2
    addi r1, r1, 1
    cmplt r5, r1, r2
    bnez r5, loop
    halt
.endfunc
"""


#: A hammock whose branch is never taken (r0 is always 0): marked
#: always-predicate, every instance walks the taken side on the wrong
#: path, where a ``nop`` lets the walk reach the merge and a ``halt``
#: ends it.  The two programs have equal decode tables and traces.
WALKER_HAMMOCK = """
.func main
    movi r1, 0
    movi r2, 50
loop:
    cmpge r4, r1, r2
    bnez r4, done
    bnez r0, side
    addi r8, r8, 1
merge:
    addi r1, r1, 1
    jmp loop
side:
    {0}
    addi r7, r7, 1
    jmp merge
done:
    halt
.endfunc
"""


def _metrics(registry):
    """Every instrument but the timings, with its help text."""
    return {name: (value, registry.get(name).help)
            for name, value in registry.as_dict().items()
            if "seconds" not in name}


class TestRunMemo:
    """A simulator's first run may be a finished run of the memo: it
    must leave exactly what a replay leaves — stats, every metric the
    run records, profiler event counts and, for a second run, the
    simulator state."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        vectorized.clear_prepass_memo()
        yield
        vectorized.clear_prepass_memo()

    @staticmethod
    def _run(program, trace, annotation=None, config=None, profile=False,
             **kwargs):
        """``(stats dict, metrics snapshot, events, simulator)``."""
        from repro.obs.metrics import MetricsRegistry
        from repro.uarch import SimProfiler

        registry = MetricsRegistry()
        profiler = SimProfiler() if profile else None
        simulator = VectorizedTimingSimulator(
            program, config=config, annotation=annotation,
            metrics=registry, profiler=profiler, **kwargs,
        )
        stats = simulator.run(trace, label="run")
        return (stats.as_dict(), _metrics(registry),
                profiler and profiler.events, simulator)

    @staticmethod
    def _runs(entry):
        return list(entry.runs) if entry is not None else []

    def _entry(self):
        (entry,) = vectorized._PREPASS_MEMO.values()
        return entry

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SPECS))
    def test_hit_equals_cold_on_every_fig5_config(self, name):
        from repro.experiments.configs import (
            COST_CONFIGS,
            CUMULATIVE_HEURISTICS,
        )

        workload = load_benchmark(name, scale=0.02)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        program = workload.program
        annotations = [None] + [
            select_diverge_branches(program, profile, config)
            for _, config in CUMULATIVE_HEURISTICS + COST_CONFIGS
        ]
        hits = episodes = 0
        for annotation in annotations:
            # A tracer keeps the references off the memo: plain replays
            # recording straight into their registries.
            references = {
                profile_run: list(self._run(
                    program, trace, annotation, profile=profile_run,
                    tracer=Tracer(ListSink()))[:3])
                for profile_run in (True, False)
            }
            episodes += references[True][0]["dpred_episodes"]
            for profile_run in (True, False, True):
                *got, simulator = self._run(program, trace, annotation,
                                            profile=profile_run)
                assert got == references[profile_run]
                hits += simulator._skipped is not None
        assert hits >= 2 * len(annotations)
        assert episodes > 0

    def test_key_separates_registers(self):
        programs = [assemble(REGISTER_LOOP.format("r3", "r4")),
                    assemble(REGISTER_LOOP.format("r6", "r7"))]
        traces = [execute(program)[0] for program in programs]
        assert [dyn.pc for dyn in traces[0]] \
            == [dyn.pc for dyn in traces[1]]
        results = []
        for program, trace in zip(programs, traces):
            cold = TimingSimulator(program).run(trace, label="run")
            for _ in range(2):
                stats, _, _, simulator = self._run(program, trace)
                assert stats == cold.as_dict()
            assert simulator._skipped is not None
            results.append(stats)
        assert results[0]["cycles"] != results[1]["cycles"]
        assert len(self._entry().runs) == 2

    def test_key_separates_wrong_path_kinds(self):
        programs = [assemble(WALKER_HAMMOCK.format(op))
                    for op in ("nop", "halt")]
        branch_pc = next(pc for pc, inst
                         in enumerate(programs[0].instructions)
                         if inst.is_conditional_branch and inst.src1 == 0)
        merge_pc = branch_pc + 2
        annotation = BinaryAnnotation("walk", [DivergeBranch(
            branch_pc=branch_pc, kind=DivergeKind.SIMPLE_HAMMOCK,
            cfm_points=(CFMPoint(pc=merge_pc, kind=CFMKind.EXACT),),
            always_predicate=True,
        )])
        results = []
        for program in programs:
            trace = execute(program)[0]
            cold = TimingSimulator(program, annotation=annotation).run(
                trace, label="run")
            assert self._run(program, trace, annotation)[0] \
                == cold.as_dict()
            results.append(cold.dpred_episodes_merged)
        assert results[0] > 0 == results[1]
        assert len(self._entry().runs) == 2

    def test_key_separates_configs(self):
        program, trace = hammock_setup()
        for rob_size in (512, 8, 512, 8):
            config = ProcessorConfig(rob_size=rob_size)
            cold = TimingSimulator(program, config=config).run(
                trace, label="run")
            assert self._run(program, trace, config=config)[0] \
                == cold.as_dict()
        assert len(vectorized._PREPASS_MEMO) == 2
        assert [len(entry.runs)
                for entry in vectorized._PREPASS_MEMO.values()] == [1, 1]

    def test_key_separates_annotations_but_not_empty_ones(self):
        program, trace = hammock_setup()
        empty = BinaryAnnotation("empty", [])
        hits = []
        for annotation in (None, hammock_annotation(),
                           hammock_annotation(always=True), empty,
                           hammock_annotation()):
            cold = TimingSimulator(program, annotation=annotation).run(
                trace, label="run")
            stats, _, _, simulator = self._run(program, trace, annotation)
            assert stats == cold.as_dict()
            hits.append(simulator._skipped is not None)
        assert hits == [False, False, False, True, True]
        assert len(self._entry().runs) == 3

    @pytest.mark.parametrize("runs", [2, 3])
    def test_runs_after_a_hit_match_the_scalar_engine(self, runs):
        from repro.obs.metrics import MetricsRegistry

        program, trace, annotation = _hammock_and_loop()
        self._run(program, trace, annotation)        # fills the memo
        outputs = []
        for cls in (TimingSimulator, VectorizedTimingSimulator):
            registry = MetricsRegistry()
            simulator = cls(program, annotation=annotation,
                            metrics=registry)
            stats = [simulator.run(trace, label=f"run{i}").as_dict()
                     for i in range(runs)]
            outputs.append((stats, _metrics(registry),
                            _component_state(simulator),
                            dict(simulator.bias._counters)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bypass", ["tracer"])
    def test_bypass_stores_nothing(self, bypass):
        program, trace = hammock_setup()
        annotation = hammock_annotation()
        kwargs = {"tracer": Tracer(ListSink())}
        for _ in range(2):
            stats = VectorizedTimingSimulator(
                program, annotation=annotation, **kwargs).run(trace)
            assert stats.as_dict() == TimingSimulator(
                program, annotation=annotation).run(trace).as_dict()
        assert self._entry().runs == {}

    @staticmethod
    def _tracked(cls, program, trace, annotation, tracking):
        """Two runs on one simulator with a ledger and/or per-branch
        collection: ``(per-run outputs, whether the first run hit the
        run memo)``.  Each output holds the stats with ``per_branch``,
        the ledger's counters and ``runs`` so far, every metric and the
        component counters."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        ledger = RuntimeLedger() if "ledger" in tracking else None
        simulator = cls(program, annotation=annotation, metrics=registry,
                        ledger=ledger,
                        collect_per_branch="per_branch" in tracking)
        outputs = []
        for label in ("run0", "run1"):
            stats = simulator.run(trace, label=label)
            if label == "run0":
                hit = getattr(simulator, "_skipped", None) is not None
            outputs.append((
                stats.as_dict(per_branch=True),
                None if ledger is None else (
                    {pc: list(c) for pc, c in ledger._branches.items()},
                    [dict(run) for run in ledger.runs]),
                _metrics(registry), _component_state(simulator),
            ))
        return outputs, hit

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SPECS))
    def test_tracked_hit_matches_the_scalar_engine(self, name):
        """A ledger or per-branch run misses a run stored without
        per-pc counters, stores them, and a later one hits: its stats,
        ``per_branch``, ledger counters and ``runs``, metrics and
        component counters, and those of a second run on the same
        simulator, equal the scalar engine's.  A profiled run then
        misses (no event counts stored) and the run it stores keeps
        the counters."""
        workload = load_benchmark(name, scale=0.02)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        program = workload.program
        annotations = [None, select_diverge_branches(
            program, profile, SelectionConfig.all_best_heur())]
        episodes = 0
        for annotation in annotations:
            vectorized.clear_prepass_memo()
            self._run(program, trace, annotation)  # stored, no counters
            for tracking in (("ledger",), ("per_branch",),
                             ("ledger", "per_branch")):
                reference, _ = self._tracked(
                    TimingSimulator, program, trace, annotation, tracking)
                outputs = [self._tracked(VectorizedTimingSimulator,
                                         program, trace, annotation,
                                         tracking)
                           for _ in range(2)]
                assert [output for output, _ in outputs] \
                    == [reference, reference]
                # Only the first tracked run replays: it stores the
                # counters every later tracked run hits on.
                first = tracking == ("ledger",)
                assert [hit for _, hit in outputs] == [not first, True]
                episodes += reference[0][0]["dpred_episodes"]
            *_, simulator = self._run(program, trace, annotation,
                                      profile=True)
            assert simulator._skipped is None
            (stored,) = self._entry().runs.values()
            assert stored.events is not None
            assert stored.per_branch is not None
        assert episodes > 0

    def test_runs_per_entry_are_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(vectorized, "RUN_MEMO_RUNS", 2)
        program, trace = hammock_setup()
        annotations = [None, hammock_annotation(),
                       hammock_annotation(always=True)]
        for index in (0, 1, 0, 2):
            self._run(program, trace, annotations[index])
        assert [key[1] for key in self._runs(self._entry())] \
            == [None, vectorized._annotation_key(annotations[2])]

    def test_clear_run_memo_keeps_the_prepasses(self):
        program, trace = hammock_setup()
        self._run(program, trace)
        entry = self._entry()
        vectorized.clear_run_memo()
        assert self._entry() is entry and entry.runs == {}
        _, _, _, simulator = self._run(program, trace)
        assert simulator._skipped is None
        assert simulator._deferred is not None     # a pre-pass hit

    def test_profiled_hit_charges_other(self):
        from repro.uarch import COMPONENTS, SimProfiler

        program, trace, annotation = _hammock_and_loop()
        events = []
        for _ in range(2):                          # a miss, then a hit
            profiler = SimProfiler()
            VectorizedTimingSimulator(program, annotation=annotation,
                                      profiler=profiler).run(trace)
            run = profiler.runs[0]
            assert sum(run["seconds"].values()) == pytest.approx(
                run["total_seconds"])
            events.append(run["events"])
        assert events[0] == events[1]
        assert [name for name in COMPONENTS if run["seconds"][name]] \
            == ["other"]

    def test_profiled_run_misses_a_run_stored_without_events(self):
        from repro.uarch import SimProfiler

        program, trace = hammock_setup()
        self._run(program, trace)                   # no profiler
        (stored,) = self._entry().runs.values()
        assert stored.events is None
        *_, simulator = self._run(program, trace, profile=True)
        assert simulator._skipped is None
        (stored,) = self._entry().runs.values()
        assert stored.events is not None
        profiler = SimProfiler()
        VectorizedTimingSimulator(program, profiler=profiler).run(trace)
        assert list(profiler.events) == list(stored.events)


class TestEngineSpeed:
    """The vectorized engine's reason to exist: a cold run is at least
    5x the scalar engine's, construction and pre-passes included, with
    bit-identical stats.  crafty at scale 1.0 measures 6.5-7.3x on a
    2-vCPU VM (about 0.3 s per scalar round); at scale 0.2 the ratio
    falls to 5.6-5.9x, too close to the bound for a tier-1 timing."""

    MIN_SPEEDUP = 5.0

    def test_vectorized_at_least_5x_scalar(self):
        workload = load_benchmark("crafty", scale=1.0)
        trace = _trace_of(workload)
        program = workload.program
        scalar_best = vectorized_best = float("inf")
        for _ in range(3):  # best of 3, rounds interleaved
            started = time.perf_counter()
            scalar = TimingSimulator(program).run(trace)
            scalar_best = min(scalar_best, time.perf_counter() - started)
            vectorized.clear_prepass_memo()  # the runs go with it
            vectorized.clear_run_memo()
            started = time.perf_counter()
            cold = VectorizedTimingSimulator(program).run(trace)
            vectorized_best = min(vectorized_best,
                                  time.perf_counter() - started)
            assert cold.as_dict() == scalar.as_dict()
        # A pre-pass hit plus replay gives the cold run's stats too.
        vectorized.clear_run_memo()
        warm = VectorizedTimingSimulator(program).run(trace)
        assert warm.as_dict() == cold.as_dict()
        vectorized.clear_prepass_memo()
        speedup = scalar_best / vectorized_best
        assert speedup >= self.MIN_SPEEDUP, (
            f"vectorized engine must be >= {self.MIN_SPEEDUP}x scalar, "
            f"got {speedup:.2f}x ({scalar_best * 1e3:.0f} ms vs "
            f"{vectorized_best * 1e3:.0f} ms)"
        )
