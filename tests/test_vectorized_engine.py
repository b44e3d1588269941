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

from repro.core import SelectionConfig, select_diverge_branches
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
