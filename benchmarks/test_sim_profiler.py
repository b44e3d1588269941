"""Simulator cost-profiler benchmarks: the zero-overhead proof.

The per-component cost attribution in :mod:`repro.uarch.profiler` is
opt-in: ``TimingSimulator(..., profiler=None)`` — the default — must
stay on the counter-free hot path.  This suite times both paths on the
same prebuilt trace:

- ``test_run_unprofiled`` is the zero-overhead benchmark: the default
  path with the instrumentation *compiled in but disabled*.  Its
  throughput lands in ``BENCH_simprofiler.json`` as
  ``unprofiled_insts_per_sec`` and is gated by
  ``benchmarks/trajectory.py`` against history, so a PR that sneaks
  per-instruction work onto the default path trips CI.
- ``test_run_profiled`` times the attributing run; the report records
  the measured ``profiling_slowdown`` (the *accepted* cost of asking
  where the time goes) and the attributed component fractions.

The same pair runs against the vectorized batch-replay engine: its
``profiler=None`` path carries no stopwatch checks either (kernels are
charged per window, never per row), and its attributed run must keep
the nine component buckets meaningful (non-empty partition summing to
the run).  Both vectorized benchmarks drop the pre-pass memo before
every round, so each round is a trace's first (cold) run.
"""

import json
import os
import pathlib

import pytest

from repro.emulator import execute
from repro.profiling import Profiler
from repro.uarch import (
    SimProfiler,
    TimingSimulator,
    VectorizedTimingSimulator,
)
from repro.uarch.vectorized import clear_prepass_memo
from repro.workloads import load_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCHMARK = "crafty"
SCALE = 0.2

_RESULTS = {}


@pytest.fixture(scope="module")
def prepared():
    workload = load_benchmark(BENCHMARK, scale=SCALE)
    collector = Profiler().collector()
    trace, result = execute(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
        on_branch=collector.on_branch,
        compact=True,
    )
    return workload, trace


@pytest.fixture(scope="module", autouse=True)
def simprofiler_report():
    yield
    if not _RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    report = {
        "schema": 1,
        "cpu_count": os.cpu_count(),
        "benchmark": BENCHMARK,
        "scale": SCALE,
    }
    report.update(sorted(_RESULTS.items()))
    unprofiled = _RESULTS.get("unprofiled_seconds")
    profiled = _RESULTS.get("profiled_seconds")
    if unprofiled and profiled:
        report["profiling_slowdown"] = profiled / unprofiled
    vec_unprofiled = _RESULTS.get("vectorized_unprofiled_seconds")
    vec_profiled = _RESULTS.get("vectorized_profiled_seconds")
    if vec_unprofiled and vec_profiled:
        report["vectorized_profiling_slowdown"] = (
            vec_profiled / vec_unprofiled
        )
    path = RESULTS_DIR / "BENCH_simprofiler.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[bench] sim-profiler timings written to {path}")


def test_run_unprofiled(benchmark, prepared):
    """The default ``profiler=None`` hot path (the zero-overhead gate)."""
    workload, trace = prepared
    stats = benchmark.pedantic(
        lambda: TimingSimulator(workload.program).run(trace),
        rounds=5,
        iterations=1,
    )
    seconds = benchmark.stats.stats.min
    _RESULTS["unprofiled_seconds"] = seconds
    _RESULTS["unprofiled_insts_per_sec"] = (
        stats.retired_instructions / seconds
    )


def test_run_profiled(benchmark, prepared):
    """The attributing run: per-component stopwatch partition active."""
    workload, trace = prepared

    def run():
        profiler = SimProfiler()
        stats = TimingSimulator(
            workload.program, profiler=profiler
        ).run(trace)
        return stats, profiler

    stats, profiler = benchmark.pedantic(run, rounds=5, iterations=1)
    seconds = benchmark.stats.stats.min
    _RESULTS["profiled_seconds"] = seconds
    _RESULTS["profiled_insts_per_sec"] = (
        stats.retired_instructions / seconds
    )
    _RESULTS["components"] = {
        row["name"]: {
            "fraction": round(row["fraction"], 4),
            "events": row["events"],
        }
        for row in profiler.components()
    }
    # The stopwatch partition must account for (essentially) the whole
    # instrumented run: buckets are charged back-to-back with no gaps.
    assert profiler.total_seconds() > 0
    assert stats.retired_instructions > 0


def test_run_vectorized_unprofiled(benchmark, prepared):
    """The vectorized engine's ``profiler=None`` zero-overhead path."""
    workload, trace = prepared
    stats = benchmark.pedantic(
        lambda: VectorizedTimingSimulator(workload.program).run(trace),
        setup=clear_prepass_memo,
        rounds=5,
        iterations=1,
    )
    seconds = benchmark.stats.stats.min
    _RESULTS["vectorized_unprofiled_seconds"] = seconds
    _RESULTS["vectorized_unprofiled_insts_per_sec"] = (
        stats.retired_instructions / seconds
    )


def test_run_vectorized_profiled(benchmark, prepared):
    """The vectorized engine with per-kernel component attribution."""
    workload, trace = prepared

    def run():
        profiler = SimProfiler()
        stats = VectorizedTimingSimulator(
            workload.program, profiler=profiler
        ).run(trace)
        return stats, profiler

    stats, profiler = benchmark.pedantic(run, setup=clear_prepass_memo,
                                         rounds=5, iterations=1)
    seconds = benchmark.stats.stats.min
    _RESULTS["vectorized_profiled_seconds"] = seconds
    _RESULTS["vectorized_profiled_insts_per_sec"] = (
        stats.retired_instructions / seconds
    )
    _RESULTS["vectorized_components"] = {
        row["name"]: {
            "fraction": round(row["fraction"], 4),
            "events": row["events"],
        }
        for row in profiler.components()
    }
    assert profiler.total_seconds() > 0
    # Identical machine model → identical stats under attribution.
    assert stats.as_dict() == TimingSimulator(
        workload.program
    ).run(trace).as_dict()
