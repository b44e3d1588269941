"""Shared configuration for the reproduction benchmarks.

Each ``test_*`` module regenerates one table/figure of the paper and
asserts its shape: running ``pytest benchmarks/ -s`` prints every
reproduced table.  ``python -m repro <artifact>`` (or
``all``) writes the tables to files.

Environment knobs:

- ``REPRO_BENCH_SCALE`` — trace-length multiplier (default 0.5;
  1.0 ≈ 60k dynamic instructions per benchmark, the scale EXPERIMENTS.md
  records).
- ``REPRO_BENCH_SUITE`` — comma-separated benchmark subset (default:
  all 17).
"""

import os

import pytest

from repro.workloads import BENCHMARK_NAMES


@pytest.fixture(scope="session")
def scale():
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def suite():
    names = os.environ.get("REPRO_BENCH_SUITE", "")
    if not names:
        return list(BENCHMARK_NAMES)
    return [n.strip() for n in names.split(",") if n.strip()]


@pytest.fixture(scope="session")
def save_result():
    def _save(name, text):
        print()
        print(text)

    return _save
