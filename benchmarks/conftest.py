"""Shared configuration for the reproduction benchmarks.

Each ``test_*`` module regenerates one table/figure of the paper:
running ``pytest benchmarks/ --benchmark-only -s`` prints every
reproduced table and writes it under ``benchmarks/results/``.

Environment knobs:

- ``REPRO_BENCH_SCALE`` — trace-length multiplier (default 0.5;
  1.0 ≈ 60k dynamic instructions per benchmark, the scale EXPERIMENTS.md
  records).
- ``REPRO_BENCH_SUITE`` — comma-separated benchmark subset (default:
  all 17).
"""

import os
import pathlib

import pytest

from repro.obs import build_manifest, write_manifest
from repro.obs.context import get_metrics, get_spans
from repro.workloads import BENCHMARK_NAMES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per-test wall-clock, written into the run manifest at session end
#: (same JSON format as ``python -m repro all --manifest``).
_TIMINGS = {}


def bench_scale():
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def bench_suite():
    names = os.environ.get("REPRO_BENCH_SUITE", "")
    if not names:
        return list(BENCHMARK_NAMES)
    return [n.strip() for n in names.split(",") if n.strip()]


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def suite():
    return bench_suite()


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name, text):
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _save


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed:
        name = report.nodeid.rsplit("::", 1)[-1]
        entry = _TIMINGS.setdefault(
            name, {"seconds": 0.0, "events": 0, "calls": 0}
        )
        entry["seconds"] += report.duration
        entry["calls"] += 1


def pytest_sessionfinish(session, exitstatus):
    """Write the suite's timings as a run manifest."""
    if not _TIMINGS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    manifest = build_manifest(
        command="pytest benchmarks/",
        args={
            "scale": bench_scale(),
            "suite": ",".join(bench_suite()),
        },
        benchmarks=bench_suite(),
        scale=bench_scale(),
        phases=dict(_TIMINGS),
        metrics=get_metrics(),
        extra={"pipeline_phases": get_spans().by_name()},
    )
    write_manifest(str(RESULTS_DIR / "manifest.json"), manifest)
