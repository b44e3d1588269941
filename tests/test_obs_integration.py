"""End-to-end telemetry: trace events reconcile with SimStats, CLI flags,
trace-report, the runner's keyed caches, and SimStats helpers."""

import json

import pytest

from repro.__main__ import main
from repro.core import SelectionConfig, select_diverge_branches
from repro.emulator import execute
from repro.experiments import runner
from repro.obs import ListSink, MetricsRegistry, Tracer, telemetry
from repro.obs.manifest import read_manifest
from repro.obs.trace_report import format_trace_report, summarize_trace
from repro.profiling import Profiler
from repro.uarch import SimStats, make_simulator
from repro.workloads import load_benchmark


def _dmp_run(tracer, metrics, name="gzip", scale=0.1):
    """Profile → select → simulate one benchmark under telemetry."""
    workload = load_benchmark(name, scale=scale)
    trace, result = execute(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
    )
    assert result.halted
    profile = Profiler().profile(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
    )
    with telemetry(tracer=tracer, metrics=metrics):
        annotation = select_diverge_branches(
            workload.program, profile, SelectionConfig.all_best_heur()
        )
        simulator = make_simulator(
            workload.program, annotation=annotation
        )
        stats = simulator.run(trace, label=f"{name}/dmp")
    return stats, annotation


class TestTraceReconciliation:
    """Acceptance criterion: aggregate event counts equal SimStats."""

    @pytest.fixture(scope="class")
    def run(self):
        sink = ListSink()
        stats, annotation = _dmp_run(Tracer(sink), MetricsRegistry())
        return sink, stats, annotation

    def _count(self, sink, type_name):
        return sum(1 for r in sink.records if r["type"] == type_name)

    def test_episode_starts_equal_dpred_episodes(self, run):
        sink, stats, _ = run
        assert stats.dpred_episodes > 0
        assert self._count(sink, "dpred.episode.start") \
            == stats.dpred_episodes

    def test_episode_merges_equal_dpred_episodes_merged(self, run):
        sink, stats, _ = run
        assert stats.dpred_episodes_merged > 0
        assert self._count(sink, "dpred.episode.merge") \
            == stats.dpred_episodes_merged

    def test_flush_events_equal_pipeline_flushes(self, run):
        sink, stats, _ = run
        assert self._count(sink, "uarch.pipeline.flush") \
            == stats.pipeline_flushes

    def test_flushes_avoided_match_mispredicted_episode_starts(self, run):
        sink, stats, _ = run
        avoided_starts = sum(
            1 for r in sink.records
            if r["type"] == "dpred.episode.start" and r["mispredicted"]
        )
        # Loop episodes can cover *additional* late-exit mispredictions
        # after the start, so the start events are a lower bound.
        assert avoided_starts <= stats.dpred_flushes_avoided

    def test_every_episode_start_names_an_annotated_branch(self, run):
        sink, _, annotation = run
        for record in sink.records:
            if record["type"] == "dpred.episode.start":
                assert annotation.is_diverge(record["branch_pc"])

    def test_selection_events_match_annotation_size(self, run):
        sink, _, annotation = run
        assert self._count(sink, "select.branch.selected") \
            == len(annotation)

    def test_icache_miss_events_match_stats(self, run):
        sink, stats, _ = run
        assert self._count(sink, "uarch.cache.miss") \
            == stats.icache_misses

    def test_run_end_totals_match(self, run):
        sink, stats, _ = run
        (end,) = [r for r in sink.records if r["type"] == "sim.run.end"]
        assert end["retired_instructions"] == stats.retired_instructions
        assert end["cycles"] == stats.cycles
        assert end["dpred_episodes"] == stats.dpred_episodes


class TestRunMetrics:
    def test_registry_totals_match_stats(self):
        registry = MetricsRegistry()
        sink = ListSink()
        stats, _ = _dmp_run(Tracer(sink), registry)
        assert registry.counter("sim_runs_total").value == 1
        assert registry.counter("sim_instructions_total").value \
            == stats.retired_instructions
        assert registry.counter("sim_dpred_episodes_total").value \
            == stats.dpred_episodes
        assert registry.counter("sim_pipeline_flushes_total").value \
            == stats.pipeline_flushes
        hist = registry.get("dpred_episode_cycles")
        assert hist is not None
        # Squashed episodes may not be observed at end-of-trace, but
        # merged + unmerged ones all are.
        assert hist.total >= stats.dpred_episodes_merged
        assert registry.counter("wrongpath_walks_total").value > 0
        assert registry.gauge("confidence_pvn").value \
            == pytest.approx(stats.measured_acc_conf)


class TestCli:
    def test_trace_metrics_manifest_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        manifest_path = tmp_path / "mf.json"
        status = main([
            "fig5", "--scale", "0.05", "--benchmarks", "gzip",
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
            "--manifest", str(manifest_path),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "phase timings" in out

        # The trace is parseable JSONL with the core event families.
        types = {
            json.loads(line)["type"]
            for line in trace_path.read_text().splitlines()
        }
        assert "dpred.episode.start" in types
        assert "sim.run.end" in types
        assert "select.branch.selected" in types

        metrics = json.loads(metrics_path.read_text())
        assert metrics["sim_runs_total"]["value"] > 0
        assert "cache_artifacts_hits_total" in metrics

        manifest = read_manifest(str(manifest_path))
        assert manifest["schema"].startswith("dmp-repro/")
        assert "simulate" in manifest["phases"]
        assert manifest["scale"] == 0.05

        # And trace-report summarizes it without error.
        status = main(["trace-report", str(trace_path)])
        assert status == 0
        report = capsys.readouterr().out
        assert "reconciliation vs sim.run.end totals: OK" in report
        assert "selection decisions" in report

    def test_manifest_phases_agree_serial_and_parallel(self, tmp_path,
                                                       capsys):
        """``--jobs 1`` and ``--jobs 2``: same phase names, calls, events."""
        from repro.exec import artifact_cache

        def phases(jobs):
            path = tmp_path / f"jobs{jobs}.json"
            runner.clear_cache()
            assert main([
                "fig5", "--scale", "0.05", "--benchmarks", "gzip,twolf",
                "--jobs", str(jobs), "--no-disk-cache",
                "--manifest", str(path),
            ]) == 0
            runner.clear_cache()
            return read_manifest(str(path))["phases"]

        try:
            serial, parallel = phases(1), phases(2)
        finally:
            artifact_cache.set_disabled(None)
        capsys.readouterr()
        assert sorted(serial) == sorted(parallel)
        for name in ("cell", "trace", "profile", "select", "simulate"):
            assert name in serial, sorted(serial)
        for name, entry in serial.items():
            assert (entry["calls"], entry["events"]) == (
                parallel[name]["calls"], parallel[name]["events"]), name

    def test_trace_report_requires_path(self):
        with pytest.raises(SystemExit):
            main(["trace-report"])

    def test_stray_path_rejected_for_other_artifacts(self):
        with pytest.raises(SystemExit):
            main(["fig5", "extra.jsonl"])


class TestTraceReportSummary:
    def test_summarize_counts_and_formats(self, tmp_path):
        from repro.obs import jsonl_tracer

        path = str(tmp_path / "t.jsonl")
        tracer = jsonl_tracer(path)
        stats, _ = _dmp_run(tracer, MetricsRegistry(), scale=0.05)
        tracer.close()
        summary = summarize_trace(path)
        assert summary["reconciliation"]["consistent"]
        assert summary["reconciliation"]["episode_starts"] \
            == stats.dpred_episodes
        assert sum(
            entry["episodes"] for entry in summary["branches"].values()
        ) == stats.dpred_episodes
        text = format_trace_report(summary)
        assert "per-branch dpred episode outcomes" in text


class TestKeyedCache:
    def test_hit_miss_eviction_counters(self):
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            cache = runner.KeyedCache("probe", max_entries=2)
            assert cache.get("a") is None
            cache.put("a", 1)
            cache.put("b", 2)
            assert cache.get("a") == 1
            cache.put("c", 3)          # evicts "b" (LRU)
            assert "b" not in cache
            assert "a" in cache
            assert len(cache) == 2
        assert registry.counter("cache_probe_misses_total").value == 1
        assert registry.counter("cache_probe_hits_total").value == 1
        assert registry.counter("cache_probe_evictions_total").value == 1

    def test_bounded_growth(self):
        cache = runner.KeyedCache("bound", max_entries=4)
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 4

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            runner.KeyedCache("bad", max_entries=0)

    def test_runner_caches_record_hits(self):
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            runner.clear_cache()
            first = runner.get_artifacts("gzip", scale=0.05)
            second = runner.get_artifacts("gzip", scale=0.05)
        assert first is second
        assert registry.counter("cache_artifacts_hits_total").value == 1
        assert registry.counter("cache_artifacts_misses_total").value == 1
        runner.clear_cache()


class TestSimStatsHelpers:
    def test_as_dict_has_counters_and_derived(self):
        stats = SimStats(label="x", cycles=100, retired_instructions=200,
                         mispredictions=4)
        snapshot = stats.as_dict()
        assert snapshot["label"] == "x"
        assert snapshot["cycles"] == 100
        assert snapshot["ipc"] == pytest.approx(2.0)
        assert snapshot["mpki"] == pytest.approx(20.0)
        assert "per_branch" not in snapshot
        assert "ipc" not in stats.as_dict(derived=False)

    def test_as_dict_per_branch(self):
        stats = SimStats(per_branch={3: {"executions": 5}})
        snapshot = stats.as_dict(per_branch=True)
        assert snapshot["per_branch"] == {"3": {"executions": 5}}

    def test_derived_safe_at_zero_instructions(self):
        stats = SimStats(cycles=10)
        assert stats.ipc == 0.0
        assert stats.mpki == 0.0
        assert stats.flushes_per_kilo_inst == 0.0
        assert stats.measured_acc_conf == 0.0
        assert stats.merge_rate == 0.0
        # All derived values survive the json snapshot too.
        json.dumps(stats.as_dict())

    def test_merge_sums_counters(self):
        a = SimStats(label="a", cycles=10, retired_instructions=100,
                     dpred_episodes=2,
                     per_branch={1: {"executions": 3}})
        b = SimStats(label="b", cycles=20, retired_instructions=50,
                     dpred_episodes=1,
                     per_branch={1: {"executions": 2},
                                 2: {"executions": 7}})
        merged = a.merge(b, label="a+b")
        assert merged.label == "a+b"
        assert merged.cycles == 30
        assert merged.retired_instructions == 150
        assert merged.dpred_episodes == 3
        assert merged.ipc == pytest.approx(5.0)
        assert merged.per_branch == {
            1: {"executions": 5},
            2: {"executions": 7},
        }

    def test_merge_keeps_first_label_by_default(self):
        assert SimStats(label="a").merge(SimStats(label="b")).label == "a"


class TestForkedWorkerTrace:
    """Pool workers write their events through their own flushed
    handle: a ``--jobs 2`` trace holds every event, one per line."""

    @staticmethod
    def _event_counts(tmp_path, jobs):
        import collections
        import os
        import subprocess
        import sys

        root = os.path.join(os.path.dirname(__file__), "..")
        path = tmp_path / f"jobs{jobs}.jsonl"
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src"),
                   REPRO_CACHE_DIR=str(tmp_path / f"cache{jobs}"))
        subprocess.run(
            [sys.executable, "-m", "repro", "fig5", "--scale", "0.1",
             "--jobs", str(jobs), "--benchmarks", "gzip,twolf,mcf",
             "--trace", str(path)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        counts = collections.Counter()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)       # no torn line
                counts[(record["type"], record.get("path"))] += 1
        return counts, str(path)

    def test_parallel_trace_equals_serial(self, tmp_path):
        serial, _ = self._event_counts(tmp_path, 1)
        parallel, path = self._event_counts(tmp_path, 2)
        assert serial[("sim.run.end", None)] == 33
        assert parallel == serial
        summary = summarize_trace(path)
        assert summary["reconciliation"]["run_starts"] == 33
        assert summary["reconciliation"]["consistent"]

    def test_sink_reopens_per_process(self, tmp_path):
        import os

        from repro.obs import JsonlSink

        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path))
        sink.write({"type": "parent", "n": 0})
        pid = os.fork()
        if pid == 0:                              # pragma: no cover
            sink.write({"type": "child", "n": 1})
            os._exit(0)                           # no close, no flush
        os.waitpid(pid, 0)
        sink.write({"type": "parent", "n": 2})
        sink.close()
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert sorted(r["n"] for r in records) == [0, 1, 2]


def test_trace_report_flags_a_run_without_end(tmp_path):
    from repro.obs import events as obs_events
    from repro.obs import jsonl_tracer

    path = str(tmp_path / "t.jsonl")
    tracer = jsonl_tracer(path)
    for label in ("a", "b"):
        tracer.emit(obs_events.SimRunStart(
            label=label, trace_length=10, dmp_enabled=False))
    tracer.emit(obs_events.SimRunEnd(
        label="a", cycles=5, retired_instructions=10,
        pipeline_flushes=0, dpred_episodes=0, dpred_episodes_merged=0,
        mispredictions=0, dpred_flushes_avoided=0,
        dpred_wrong_path_insts=0, dpred_select_uops=0,
    ))
    tracer.close()
    summary = summarize_trace(path)
    recon = summary["reconciliation"]
    assert (recon["run_starts"], recon["run_ends"],
            recon["unmatched_run_starts"]) == (2, 1, 1)
    assert not recon["consistent"]
    text = format_trace_report(summary)
    assert "reconciliation vs sim.run.end totals: MISMATCH" in text
    assert "1 of 2 sim.run.start events have no sim.run.end" in text
