"""Outside-in layer spans for the benchmark's traced run.

:func:`install` wraps public functions of each ``repro`` layer — the
workload builder, the artifact cache, the emulator, the profiler, the
compiler pipeline, the timing simulator, the experiment engine,
reporting, campaign cells and the serve request path — with wrappers
that live here, in the benchmark's own files; the program itself is
unchanged.  A wrapper records a span (start, end, enclosing span) and
the counts the layer exposes at its boundary: instructions emulated and
simulated, cache hits and misses, baseline simulations.

Spans are kept in memory and written out as one JSON file per process
when the process's work ends: at exit for the figure, campaign and
serve processes, and at the end of each forked campaign cell (the
wrappers are inherited across ``fork``; a cell first drops the records
it inherited from its parent).

A *layer* span nests: its self time is its duration minus the layer
spans inside it, so the self times of all layer spans add up to the
time covered by the outermost ones, and ``wall - sum(self)`` is the
unattributed time.  A *marker* span (the engine's ``execute``/job
boundaries, a campaign cell's function) is timed but does not nest, so
it neither hides the layers below it nor counts toward attribution.
"""

import functools
import json
import os
import sys
import threading
import time


class Recorder:
    """In-memory span and count aggregation for one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        """Drop everything (a forked cell discards its parent's data)."""
        from repro.uarch import SimProfiler

        self._local = threading.local()
        self.spans = {}      # name -> [calls, total_s, self_s]
        self.markers = {}    # name -> [calls, total_s]
        self.counts = {}     # name -> int
        self.baselines = {}  # baseline identity -> simulations
        self.profiler = SimProfiler()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def baseline(self, identity):
        with self._lock:
            self.baselines[identity] = self.baselines.get(identity, 0) + 1

    def marker(self, name, seconds):
        with self._lock:
            slot = self.markers.setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += seconds

    def layer_span(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a nested layer span named ``name``."""
        stack = self._stack()
        frame = [0.0]  # time covered by child layer spans
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                slot = self.spans.setdefault(name, [0, 0.0, 0.0])
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[0]

    def snapshot(self):
        from repro.uarch import COMPONENTS

        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": {k: list(v) for k, v in self.spans.items()},
                "markers": {k: list(v) for k, v in self.markers.items()},
                "counts": dict(self.counts),
                "baselines": dict(self.baselines),
                "sim_buckets": {
                    name: [self.profiler.seconds[i],
                           self.profiler.events[i]]
                    for i, name in enumerate(COMPONENTS)
                },
            }

    def dump(self, path):
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _rebind(original, replacement):
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement`` (callers that did ``from x import f`` included)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(rec, original, span_name, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = rec.layer_span(span_name, original, *args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    _rebind(original, wrapper)
    return wrapper


def _wrap_method(rec, cls, method, span_name, after=None):
    original = getattr(cls, method)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        result = rec.layer_span(span_name, original, self, *args, **kwargs)
        if after is not None:
            after(self, result, args, kwargs)
        return result

    setattr(cls, method, wrapper)


def _marker(rec, original, name):
    """Time ``original`` as a marker span (see the module docstring)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            rec.marker(name, time.perf_counter() - started)

    return wrapper


def _import_layers():
    """Import every module whose names the wrappers must rebind."""
    import repro.__main__  # noqa: F401 — figure drivers
    import repro.campaign.backends  # noqa: F401
    import repro.campaign.cli  # noqa: F401
    import repro.campaign.report  # noqa: F401
    import repro.campaign.spec  # noqa: F401
    import repro.compiler.pipeline  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.obs.explain  # noqa: F401
    import repro.serve.app  # noqa: F401
    import repro.serve.daemon  # noqa: F401


def install(spans_path):
    """Wrap every layer's public entry points; returns the recorder.

    ``spans_path`` is where this process's spans go when its work ends;
    forked campaign cells write ``<spans_path>.<pid>``.
    """
    _import_layers()
    from repro import emulator, workloads
    from repro.campaign import backends
    from repro.campaign import report as campaign_report
    from repro.compiler import pipeline
    from repro.compiler.analysis_manager import AnalysisManager
    from repro.exec import artifact_cache, engine
    from repro.experiments import report as experiments_report
    from repro.profiling.profiler import ProfileCollector
    from repro.serve.app import ServeApp
    from repro.uarch import (
        TimingSimulator,
        VectorizedTimingSimulator,
        make_simulator,
    )

    rec = Recorder()

    _wrap_function(rec, workloads.load_benchmark, "workloads.load")
    _wrap_function(rec, artifact_cache.artifact_key, "artifact_cache.key")
    _wrap_function(
        rec, artifact_cache.load, "artifact_cache.load",
        after=lambda result, a, k: rec.count(
            "artifact_cache.misses" if result is None
            else "artifact_cache.hits"),
    )
    _wrap_function(rec, artifact_cache.store, "artifact_cache.store")

    def after_execute(result, args, kwargs):
        rec.count("emulator.insts", result[1].instruction_count)

    _wrap_function(rec, emulator.execute, "emulator.execute",
                   after=after_execute)
    _wrap_method(rec, ProfileCollector, "finish", "profiling.finish")
    _wrap_function(rec, pipeline.run_selection_pipeline,
                   "compiler.select")

    analysis = AnalysisManager.analysis

    @functools.wraps(analysis)
    def traced_analysis(self, program, profile):
        hit = self.key_for(program, profile) in self
        rec.count("compiler.analysis_hits" if hit
                  else "compiler.analysis_misses")
        return rec.layer_span("compiler.analysis", analysis, self,
                              program, profile)

    AnalysisManager.analysis = traced_analysis

    @functools.wraps(make_simulator)
    def traced_make_simulator(*args, **kwargs):
        if kwargs.get("profiler") is None:
            kwargs["profiler"] = rec.profiler
        return rec.layer_span("uarch.make", make_simulator, *args,
                              **kwargs)

    _rebind(make_simulator, traced_make_simulator)

    def after_run(sim, stats, args, kwargs):
        rec.count("uarch.sim_insts", stats.retired_instructions)
        if sim.annotation is None:
            label = kwargs.get("label", args[1] if len(args) > 1 else "")
            identity = f"{label}|{len(args[0])}"
            rec.count("uarch.baseline_runs")
            rec.baseline(identity)

    for cls in (TimingSimulator, VectorizedTimingSimulator):
        _wrap_method(rec, cls, "run", "uarch.run", after=after_run)

    _rebind(engine.execute, _marker(rec, engine.execute, "exec.execute"))
    engine.Job.run = _marker(rec, engine.Job.run, "exec.job")

    _wrap_function(rec, experiments_report.render_table,
                   "experiments.report")
    _wrap_function(rec, campaign_report.render_report, "campaign.report")
    _wrap_method(rec, ServeApp, "handle_request", "serve.request")

    cell_worker = backends.cell_worker

    @functools.wraps(cell_worker)
    def traced_cell_worker(conn, fn, params, *args, **kwargs):
        rec.reset()
        timed = _marker(rec, fn, "campaign.cell")

        def cell(cell_params):
            try:
                return timed(cell_params)
            finally:
                rec.dump(f"{spans_path}.{os.getpid()}")

        return cell_worker(conn, cell, params, *args, **kwargs)

    _rebind(cell_worker, traced_cell_worker)
    return rec
