"""Shared benchmark running and caching for the experiment harnesses.

The expensive artifacts — functional traces and profiles — are built
in a *single* emulator pass per (benchmark, input set, scale): the
profiler observes the traced run through the emulator's ``on_branch``
hook instead of re-executing the workload.  Artifacts are cached at
two levels: a bounded in-memory LRU (:class:`KeyedCache`) within the
process, and the persistent content-addressed disk cache
(:mod:`repro.exec.artifact_cache`) across processes and invocations.
All hit/miss counters land in the metrics registry, so cache
effectiveness is visible in ``--metrics`` output instead of silently
growing memory.

Every stage runs under a span (:func:`repro.obs.span`): ``trace``
(the fused functional execution + profiling pass), ``profile``
(sealing the collected profiles), ``select`` (diverge-branch
selection, opened by the compiler's ``Pipeline.run``), and
``simulate`` (timing model), each reporting
wall-clock seconds and events/sec through the active telemetry
context and nesting under whatever span encloses it (a ``cell``, a
``serve.*`` request).
"""

import math
from collections import OrderedDict
from dataclasses import dataclass

from repro.core import DivergeSelector
from repro.emulator import execute
from repro.exec import artifact_cache
from repro.obs.context import get_metrics
from repro.obs.spans import span
from repro.profiling import Profiler
from repro.uarch import make_simulator
from repro.workloads import BENCHMARK_NAMES, load_benchmark

#: Default benchmark list: the paper's 12 SPEC2000 + 5 SPEC95 programs.
DEFAULT_BENCHMARKS = BENCHMARK_NAMES


@dataclass
class Artifacts:
    """Everything one (benchmark, input set) needs for experiments."""

    workload: object
    trace: list
    profile: object

    @property
    def program(self):
        return self.workload.program


class KeyedCache:
    """A small bounded LRU cache with hit/miss/eviction metrics.

    Counter names are ``cache_<name>_{hits,misses,evictions}_total`` in
    the *active* metrics registry (looked up per operation, so a CLI
    run with a fresh registry sees its own numbers).  ``max_entries``
    bounds memory: the artifact caches used to be module-global dicts
    that grew without limit across a long suite run.
    """

    def __init__(self, name, max_entries=32):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.name = name
        self.max_entries = max_entries
        self._data = OrderedDict()

    def get(self, key):
        """The cached value (marking it most-recent) or ``None``."""
        try:
            value = self._data[key]
        except KeyError:
            get_metrics().counter(
                f"cache_{self.name}_misses_total"
            ).inc()
            return None
        self._data.move_to_end(key)
        get_metrics().counter(f"cache_{self.name}_hits_total").inc()
        return value

    def put(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            get_metrics().counter(
                f"cache_{self.name}_evictions_total"
            ).inc()

    def clear(self):
        self._data.clear()

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data


#: (name, input_set, scale) -> :class:`Artifacts`.  17 benchmarks × a
#: couple of input sets fit comfortably; real suites at several scales
#: recycle the oldest entries instead of accumulating them.
_artifact_cache = KeyedCache("artifacts", max_entries=64)


def clear_cache():
    """Drop all cached traces/profiles/analyses and the simulator's
    pre-pass and run memo (frees memory)."""
    from repro.compiler.analysis_manager import reset_shared_manager
    from repro.experiments import meldcompare
    from repro.uarch.vectorized import clear_prepass_memo

    _artifact_cache.clear()
    meldcompare.clear_meld_caches()
    reset_shared_manager()
    clear_prepass_memo()


def get_artifacts(name, input_set="reduced", scale=1.0):
    """Load, execute, and profile one benchmark (cached, single pass).

    The functional trace and the profile come out of *one* emulator
    run: the profiler's :class:`~repro.profiling.ProfileCollector`
    rides along on the ``on_branch`` hook of the traced execution.  On
    a disk-cache hit no emulation happens at all: the workload is
    still loaded (the simulator needs the program), but its input
    memory is never generated.  The returned trace is sealed (see
    :meth:`~repro.emulator.trace.Trace.seal`): read-only, its digest
    computed once.
    """
    key = (name, input_set, scale)
    cached = _artifact_cache.get(key)
    if cached is not None:
        return cached
    workload = load_benchmark(name, input_set=input_set, scale=scale)
    profiler = Profiler()
    disk_key = artifact_cache.artifact_key(
        name, input_set, scale, profiler.fingerprint()
    )
    entry = artifact_cache.load(disk_key)
    if entry is not None:
        trace, profile = entry
        artifacts = Artifacts(
            workload=workload, trace=trace.seal(), profile=profile
        )
        _artifact_cache.put(key, artifacts)
        return artifacts
    collector = profiler.collector()
    with span("trace") as sp:
        trace, result = execute(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
            on_branch=collector.on_branch,
            compact=True,
        )
        sp.events = result.instruction_count
    if not result.halted:
        raise RuntimeError(
            f"benchmark {name!r} did not halt within its budget"
        )
    with span("profile") as sp:
        profile = collector.finish(result)
        sp.events = result.instruction_count
    artifact_cache.store(disk_key, trace, profile)
    artifacts = Artifacts(workload=workload, trace=trace.seal(),
                          profile=profile)
    _artifact_cache.put(key, artifacts)
    return artifacts


def run_baseline(name, input_set="reduced", scale=1.0, config=None):
    """Simulate the baseline (no DMP) processor on one benchmark.

    A repeat is a hit in the simulator's run memo (see
    :mod:`repro.uarch.vectorized`): it returns equal stats without a
    replay.
    """
    artifacts = get_artifacts(name, input_set, scale)
    simulator = make_simulator(artifacts.program, config=config)
    with span("simulate") as sp:
        stats = simulator.run(artifacts.trace, label=f"{name}/baseline")
        sp.events = stats.retired_instructions
    return stats


def run_annotated(name, annotation, input_set="reduced", scale=1.0,
                  config=None, label="", ledger=None, profiler=None):
    """Simulate DMP with a prepared annotation on one benchmark.

    ``ledger`` is an optional
    :class:`~repro.obs.ledger.RuntimeLedger` receiving the run's
    per-branch episode outcome counters; ``profiler`` an optional
    :class:`~repro.uarch.SimProfiler` receiving per-component
    simulator cost buckets.
    """
    artifacts = get_artifacts(name, input_set, scale)
    simulator = make_simulator(
        artifacts.program, config=config, annotation=annotation,
        ledger=ledger, profiler=profiler,
    )
    with span("simulate") as sp:
        stats = simulator.run(
            artifacts.trace, label=label or f"{name}/dmp"
        )
        sp.events = stats.retired_instructions
    return stats


def run_selection(name, selection_config, input_set="reduced",
                  profile_input_set=None, scale=1.0, config=None,
                  selection_ledger=None, runtime_ledger=None,
                  profiler=None):
    """Profile → select → simulate for one benchmark.

    ``profile_input_set`` lets the §7.3 experiments profile on one input
    set while running on another; it defaults to the run input set.
    ``selection_ledger`` / ``runtime_ledger`` are the optional decision
    ledgers (:mod:`repro.obs.ledger`) recording compile-time verdicts
    and runtime outcomes for ``explain``.  Returns
    ``(stats, annotation)``.
    """
    if getattr(selection_config, "meld", None) is not None:
        raise ValueError(
            f"config {selection_config.name!r} rewrites the program "
            f"(meld={selection_config.meld!r}); its annotation does "
            f"not apply to the original trace — use "
            f"repro.experiments.meldcompare instead"
        )
    profile_set = profile_input_set or input_set
    run_artifacts = get_artifacts(name, input_set, scale)
    profile_artifacts = get_artifacts(name, profile_set, scale)
    selector = DivergeSelector(
        run_artifacts.program, profile_artifacts.profile,
        selection_config, ledger=selection_ledger,
    )
    annotation = selector.select()
    stats = run_annotated(
        name,
        annotation,
        input_set=input_set,
        scale=scale,
        config=config,
        label=f"{name}/{selection_config.name}",
        ledger=runtime_ledger,
        profiler=profiler,
    )
    return stats, annotation


def mean_speedup(speedups):
    """Arithmetic mean of per-benchmark speedups (paper-style average)."""
    values = list(speedups)
    if not values:
        return 0.0
    return sum(values) / len(values)


def geometric_mean_speedup(speedups):
    """Geometric mean over speedup *factors* (reported for reference)."""
    values = list(speedups)
    if not values:
        return 0.0
    log_sum = sum(math.log(1.0 + s) for s in values)
    return math.exp(log_sum / len(values)) - 1.0
