"""Figure-level equivalence with the frozen scalar replay.

``tests/_legacy_simulator.py`` keeps the scalar row-by-row replay the
vectorized engine replaced.  Here the figure drivers run with that
oracle substituted for :func:`repro.uarch.make_simulator`, so every run
goes through the scalar replay and none through the vectorized one:

- fig6, fig8 and table2 at scale 0.1 print ``tests/golden/``;
- fig5 at scale 0.3 prints ``perfbench/golden/fig5.txt``;
- fig5's ``--trace`` event stream and its ``--metrics`` snapshot equal
  the shipped engine's, timings (``seconds`` fields) stripped.

The vectorized engine is checked against the same goldens by
``tests/test_golden_figures.py`` and ``tests/test_golden_fig5.py``;
the unit-level comparisons are in ``tests/test_vectorized_engine.py``.
The golden files are only read here.
"""

import json
import os
import sys

import pytest

from repro import __main__ as repro_main
from repro.exec import artifact_cache
from repro.experiments import runner
from repro.uarch import VectorizedTimingSimulator, make_simulator

from tests._legacy_simulator import LegacyTimingSimulator
from tests.test_golden_fig5 import COMMAND, GOLDEN, ROOT


def _legacy_make_simulator(program, config=None, annotation=None,
                           **kwargs):
    return LegacyTimingSimulator(program, config=config,
                                 annotation=annotation, **kwargs)


def _use_oracle(monkeypatch):
    """Substitute the scalar oracle for every ``make_simulator`` binding
    in ``repro``; a vectorized run after it fails the test.  Returns
    the list the oracle's runs append their labels to."""
    runs = []
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "make_simulator", None) \
                is make_simulator:
            monkeypatch.setattr(module, "make_simulator",
                                _legacy_make_simulator)

    def counted(self, trace, label="", _run=LegacyTimingSimulator.run):
        runs.append(label)
        return _run(self, trace, label=label)

    def refused(self, *args, **kwargs):
        raise AssertionError("the vectorized engine ran under the oracle")

    monkeypatch.setattr(LegacyTimingSimulator, "run", counted)
    monkeypatch.setattr(VectorizedTimingSimulator, "run", refused)
    return runs


@pytest.fixture
def oracle(monkeypatch):
    return _use_oracle(monkeypatch)


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One artifact cache for the golden runs: all but the first
    figure read their traces from it."""
    return tmp_path_factory.mktemp("legacy-cache")


def _stdout(args, capsys, cache_dir, monkeypatch):
    """Run ``python -m repro <args>`` in process with a cold memory."""
    monkeypatch.setenv(artifact_cache.ENV_CACHE_DIR, str(cache_dir))
    runner.clear_cache()
    capsys.readouterr()
    assert repro_main.main(list(args)) == 0
    return capsys.readouterr().out


def _golden(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("figure", ["fig6", "fig8", "table2"])
def test_figure_matches_golden(figure, oracle, capsys, shared_cache,
                               monkeypatch):
    out = _stdout([figure, "--scale", "0.1", "--jobs", "1"], capsys,
                  shared_cache, monkeypatch)
    assert oracle
    assert out == _golden("tests", "golden", f"{figure}.txt")


def test_fig5_matches_golden(oracle, capsys, shared_cache, monkeypatch):
    out = _stdout(COMMAND, capsys, shared_cache, monkeypatch)
    assert oracle
    with open(GOLDEN, encoding="utf-8") as handle:
        assert out == handle.read()


def _without_seconds(record):
    return {key: value for key, value in record.items()
            if "seconds" not in key}


def _fig5_telemetry(flag, benchmarks, directory, capsys, monkeypatch):
    """Run fig5 at scale 0.1 from an empty artifact cache (so artifact
    building spans and events happen) with ``--trace`` or
    ``--metrics``; returns what the flag wrote, timings stripped."""
    out = directory / "telemetry"
    _stdout(["fig5", "--scale", "0.1", "--jobs", "1", "--benchmarks",
             benchmarks, flag, str(out)], capsys, directory / "cache",
            monkeypatch)
    with open(out, encoding="utf-8") as handle:
        if flag == "--trace":
            return [_without_seconds(json.loads(line)) for line in handle]
        return _without_seconds(json.load(handle))


@pytest.mark.parametrize("flag,benchmarks", [
    ("--trace", "gzip"), ("--metrics", "gzip,mcf"),
])
def test_fig5_telemetry_matches_the_engine(flag, benchmarks, tmp_path,
                                           capsys, monkeypatch):
    """Event streams (episodes, flushes, span ends) and metrics equal
    the vectorized engine's.  The metrics run has no tracer, so the
    engine's run memo folds stored metrics in on its hits; the oracle
    records every run directly."""
    engine = _fig5_telemetry(flag, benchmarks, tmp_path / "engine",
                             capsys, monkeypatch)
    runs = _use_oracle(monkeypatch)
    legacy = _fig5_telemetry(flag, benchmarks, tmp_path / "legacy",
                             capsys, monkeypatch)
    assert runs
    assert legacy == engine
    assert len(engine) > (100 if flag == "--trace" else 10)
