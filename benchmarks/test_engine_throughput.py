"""Engine throughput benchmarks (not paper figures).

Times the experiment engine introduced with ``repro.exec``: the fused
single-pass artifact build vs the old two-pass build, warm
artifact-cache loads, simulation over the compact trace encoding, and
a small figure-suite run at ``--jobs 1`` vs ``--jobs 2``.  The
measured wall-clock seconds are written to
``benchmarks/results/BENCH_engine.json`` so the performance trajectory
is tracked across PRs.
"""

import json
import os
import pathlib

import pytest

from repro.emulator import execute
from repro.exec import artifact_cache
from repro.experiments import fig6, runner
from repro.profiling import Profiler
from repro.uarch import TimingSimulator, VectorizedTimingSimulator
from repro.uarch.vectorized import clear_prepass_memo, clear_run_memo
from repro.workloads import load_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Small fixed cell grid so suite timings are comparable across runs.
SUITE_BENCHMARKS = ["gzip", "twolf", "crafty"]
SUITE_SCALE = 0.2

#: The single workload the per-stage benchmarks time.
WORKLOAD_SCALE = 0.2

_RESULTS = {}

#: Extra top-level report keys; ``*_per_sec`` entries here are picked
#: up by ``benchmarks/trajectory.py`` as ``engine.<key>`` and gated.
_TOP = {}


def _record(name, benchmark):
    _RESULTS[name] = benchmark.stats.stats.min


@pytest.fixture(scope="module", autouse=True)
def engine_report(tmp_path_factory):
    """Redirect the disk cache for the module, then write the report."""
    previous = os.environ.get(artifact_cache.ENV_CACHE_DIR)
    scratch = tmp_path_factory.mktemp("engine-cache")
    os.environ[artifact_cache.ENV_CACHE_DIR] = str(scratch)
    runner.clear_cache()
    yield
    if previous is None:
        os.environ.pop(artifact_cache.ENV_CACHE_DIR, None)
    else:
        os.environ[artifact_cache.ENV_CACHE_DIR] = previous
    runner.clear_cache()
    if not _RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    report = {
        "schema": 1,
        "cpu_count": os.cpu_count(),
        "suite_benchmarks": SUITE_BENCHMARKS,
        "suite_scale": SUITE_SCALE,
        "seconds": dict(sorted(_RESULTS.items())),
    }
    report.update(sorted(_TOP.items()))
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[bench] engine timings written to {path}")


@pytest.fixture(scope="module")
def workload():
    return load_benchmark("crafty", scale=WORKLOAD_SCALE)


def _single_pass(workload):
    profiler = Profiler()
    collector = profiler.collector()
    trace, result = execute(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
        on_branch=collector.on_branch,
        compact=True,
    )
    return trace, collector.finish(result)


def test_single_pass_build(benchmark, workload):
    """One fused emulation producing both trace and profile."""
    benchmark.pedantic(lambda: _single_pass(workload), rounds=3,
                       iterations=1)
    _record("emulator_single_pass_build", benchmark)


def test_two_pass_build(benchmark, workload):
    """The pre-engine baseline: trace run plus a second profile run."""

    def two_pass():
        trace, _ = execute(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
        )
        profile = Profiler().profile(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
        )
        return trace, profile

    benchmark.pedantic(two_pass, rounds=3, iterations=1)
    _record("emulator_two_pass_build", benchmark)


def test_cache_warm_load(benchmark, workload):
    """Deserializing a cached (trace, profile) pair from disk."""
    profiler = Profiler()
    trace, profile = _single_pass(workload)
    key = artifact_cache.artifact_key(
        workload.name, workload.input_set, WORKLOAD_SCALE,
        profiler.fingerprint(),
    )
    artifact_cache.store(key, trace, profile)
    loaded = benchmark.pedantic(
        lambda: artifact_cache.load(key), rounds=3, iterations=1
    )
    assert loaded is not None
    _record("cache_warm_load", benchmark)


def test_simulator_compact_trace(benchmark, workload):
    """Timing simulation straight off the parallel-array trace.

    Also derives ``sim.insts_per_sec`` — retired instructions over the
    fastest round's simulate time — the headline throughput figure the
    trajectory gate tracks (``engine.sim.insts_per_sec``).
    """
    trace, _ = _single_pass(workload)
    stats = benchmark.pedantic(
        lambda: TimingSimulator(workload.program).run(trace),
        rounds=3,
        iterations=1,
    )
    _record("simulator_compact_trace", benchmark)
    _TOP["sim.insts_per_sec"] = (
        stats.retired_instructions / benchmark.stats.stats.min
    )


def test_simulator_vectorized(benchmark, workload):
    """The numpy batch-replay engine on the same trace, cold.

    Emits ``sim_vectorized.insts_per_sec`` (trajectory-gated as
    ``engine.sim_vectorized.insts_per_sec``) and asserts the
    vectorized/scalar speedup stays at or above 5x — the optimization's
    contract, per-round construction included.  The pre-pass memo is
    dropped before every round, so each round computes the D-cache,
    branch and control pre-passes, as a trace's first run does.  Runs
    after the scalar benchmark so ``sim.insts_per_sec`` is already
    recorded.
    """
    trace, _ = _single_pass(workload)
    scalar_stats = TimingSimulator(workload.program).run(trace)
    stats = benchmark.pedantic(
        lambda: VectorizedTimingSimulator(workload.program).run(trace),
        setup=clear_prepass_memo,
        rounds=3,
        iterations=1,
    )
    assert stats.as_dict() == scalar_stats.as_dict()
    _record("simulator_vectorized", benchmark)
    insts_per_sec = (
        stats.retired_instructions / benchmark.stats.stats.min
    )
    _TOP["sim_vectorized.insts_per_sec"] = insts_per_sec
    scalar_insts_per_sec = _TOP.get("sim.insts_per_sec")
    if scalar_insts_per_sec:
        speedup = insts_per_sec / scalar_insts_per_sec
        _TOP["sim_vectorized_speedup"] = speedup
        assert speedup >= 5.0, (
            f"vectorized engine must be >= 5x scalar, got "
            f"{speedup:.2f}x"
        )


def test_simulator_vectorized_warm(benchmark, workload):
    """The same run with its pre-passes taken from the memo, as every
    run of a trace after its first one does (a figure's baseline plus
    one run per selection algorithm).  The finished runs are dropped
    before every round, so each round replays instead of returning the
    stored run.

    Emits ``sim_vectorized_warm.insts_per_sec``.
    """
    trace, _ = _single_pass(workload)
    clear_prepass_memo()
    cold = VectorizedTimingSimulator(workload.program).run(trace)
    stats = benchmark.pedantic(
        lambda: VectorizedTimingSimulator(workload.program).run(trace),
        setup=clear_run_memo,
        rounds=3,
        iterations=1,
    )
    assert stats.as_dict() == cold.as_dict()
    _record("simulator_vectorized_warm", benchmark)
    _TOP["sim_vectorized_warm.insts_per_sec"] = (
        stats.retired_instructions / benchmark.stats.stats.min
    )


def _suite(jobs):
    runner.clear_cache()
    artifact_cache.set_disabled(True)
    try:
        return fig6.run(scale=SUITE_SCALE, benchmarks=SUITE_BENCHMARKS,
                        jobs=jobs)
    finally:
        artifact_cache.set_disabled(None)
        runner.clear_cache()


def test_suite_serial(benchmark):
    """A three-benchmark fig6 sweep on the serial path."""
    benchmark.pedantic(lambda: _suite(1), rounds=1, iterations=1)
    _record("suite_jobs1", benchmark)


def test_suite_two_workers(benchmark):
    """The same sweep fanned out over two worker processes."""
    benchmark.pedantic(lambda: _suite(2), rounds=1, iterations=1)
    _record("suite_jobs2", benchmark)
