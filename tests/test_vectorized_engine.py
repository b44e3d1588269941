"""Vectorized batch-replay engine: bit-identity and engine selection.

The contract under test (see ``repro.uarch.vectorized``): the
vectorized engine produces *bit-identical* ``SimStats`` — including
per-branch counters, runtime-ledger rows, and the tracer event stream
— to the scalar engine for every supported (program, config,
annotation) triple, at every window size.
"""

import json
import random

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
            vectorized.warm_prepass_memo(program, trace)
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

    def test_campaign_prepare_warms_without_a_run(self, monkeypatch):
        from repro.campaign.spec import prepare_cell
        from repro.experiments import runner

        monkeypatch.delenv(ENV_SIM_ENGINE, raising=False)
        params = {"benchmark": "gzip", "scale": 0.05,
                  "selection": "all-best-heur"}
        prepare_cell(params)
        artifacts = runner.get_artifacts("gzip", scale=0.05)
        key = vectorized._memo_key(
            vectorized._decode_tables(artifacts.program)[-1],
            vectorized.trace_columns(artifacts.trace),
            ProcessorConfig(),
        )
        assert list(vectorized._PREPASS_MEMO) == [key]
