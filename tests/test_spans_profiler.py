"""Hierarchical spans, the simulator cost profiler, and the profile CLI.

Covers span nesting/unwinding semantics, per-thread stacks on a shared
tree, the by-name ``phases`` view and self-time accounting of a real
cell, deterministic simulator
cost attribution (``profiler=None`` changes nothing), structural
bit-identity of span trees under parallel execution, the ``repro
profile`` CLI with its schema, torn-tail-tolerant profile logs, and
the campaign ``--resources`` annotation path.
"""

import json
import threading
import time

import pytest

from repro.core import SelectionConfig, select_diverge_branches
from repro.exec import Job, artifact_cache, execute
from repro.experiments import fig6, runner
from repro.obs import MetricsRegistry, SpanTree, span
from repro.obs.context import telemetry
from repro.obs.explain import load_schema, validate_explain
from repro.obs.spans import PATH_SEP, open_spans
from repro.uarch import (
    SimProfiler,
    VectorizedTimingSimulator,
    make_simulator,
    vectorized,
)
from repro.uarch.profiler import COMPONENTS, NUM_COMPONENTS

from tests._legacy_simulator import LegacyTimingSimulator


class TestSpanTree:
    def test_nested_spans_record_paths_and_self_time(self):
        tree = SpanTree()
        registry = MetricsRegistry()
        with telemetry(metrics=registry, spans=tree):
            with span("outer"):
                time.sleep(0.01)
                with span("inner"):
                    time.sleep(0.01)
        snapshot = tree.as_dict()
        assert list(snapshot) == ["outer", "outer/inner"]
        outer = snapshot["outer"]
        inner = snapshot["outer/inner"]
        # Cumulative covers the child; self-time excludes it exactly.
        assert outer["seconds"] >= inner["seconds"]
        assert outer["self_seconds"] == pytest.approx(
            outer["seconds"] - inner["seconds"]
        )
        assert inner["self_seconds"] == pytest.approx(inner["seconds"])
        assert outer["calls"] == inner["calls"] == 1
        # Metrics mirror with dotted path names.
        assert registry.counter(
            "span_outer.inner_seconds_total").value > 0

    def test_span_stack_unwinds_on_exception(self):
        tree = SpanTree()
        bundle = telemetry(metrics=MetricsRegistry(), spans=tree)
        with bundle:
            with pytest.raises(RuntimeError):
                with span("outer"):
                    with span("inner"):
                        raise RuntimeError("boom")
            # Both spans recorded despite the raise; stack is empty.
            assert open_spans() == []
            assert tree.as_dict()["outer"]["calls"] == 1
            assert tree.as_dict()["outer/inner"]["calls"] == 1
            # A subsequent span is a root again, not a child of outer.
            with span("after"):
                pass
            assert "after" in tree.as_dict()

    def test_snapshot_merge_is_per_path_addition(self):
        a, b = SpanTree(), SpanTree()
        a.add({"path": "x", "seconds": 1.0, "self_seconds": 0.5,
               "events": 2})
        a.add({"path": "x/y", "seconds": 0.5, "self_seconds": 0.5,
               "events": 1})
        b.add({"path": "x", "seconds": 2.0, "self_seconds": 1.0,
               "events": 3})
        b.add({"path": "z", "seconds": 1.0})
        a.merge_snapshot(b.as_dict())
        merged = a.as_dict()
        assert merged["x"]["seconds"] == pytest.approx(3.0)
        assert merged["x"]["self_seconds"] == pytest.approx(1.5)
        assert merged["x"]["events"] == 5
        assert merged["z"]["seconds"] == pytest.approx(1.0)
        assert merged["x/y"]["seconds"] == pytest.approx(0.5)

    def test_by_name_view_folds_paths_by_last_component(self):
        tree = SpanTree()
        with telemetry(metrics=MetricsRegistry(), spans=tree):
            with span("cell"):
                with span("simulate") as sp:
                    sp.events = 100
            with span("simulate"):
                pass
        paths = tree.as_dict()
        assert paths["cell/simulate"]["calls"] == 1
        assert paths["simulate"]["calls"] == 1
        table = tree.by_name()
        assert list(table) == ["cell", "simulate"]
        snapshot = table["simulate"]
        # The manifest's ``phases`` entry shape: no self_seconds key.
        assert sorted(snapshot) == [
            "calls", "events", "events_per_sec", "seconds"
        ]
        assert snapshot["calls"] == 2
        assert snapshot["events"] == 100
        assert snapshot["seconds"] == pytest.approx(
            paths["cell/simulate"]["seconds"] + paths["simulate"]["seconds"]
        )

    def test_threads_nest_on_their_own_stacks(self):
        """Two threads nesting spans on one shared tree stay apart."""
        tree = SpanTree()
        both_open = threading.Barrier(2, timeout=10)
        inner_done = threading.Barrier(2, timeout=10)

        def work(outer):
            with span(outer):
                both_open.wait()
                with span("inner"):
                    pass
                inner_done.wait()

        with telemetry(metrics=MetricsRegistry(), spans=tree):
            threads = [threading.Thread(target=work, args=(name,))
                       for name in ("outer_a", "outer_b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert list(tree.as_dict()) == [
            "outer_a", "outer_a/inner", "outer_b", "outer_b/inner",
        ]
        assert open_spans() == []

    def test_span_end_event_in_trace(self, tmp_path):
        from repro.obs import jsonl_tracer

        path = tmp_path / "t.jsonl"
        tracer = jsonl_tracer(str(path))
        with telemetry(tracer=tracer, metrics=MetricsRegistry(),
                       spans=SpanTree()):
            with span("a"):
                with span("b", events=7):
                    pass
        tracer.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span.end"]
        # Children close first.
        assert [r["path"] for r in spans] == ["a" + PATH_SEP + "b", "a"]
        assert spans[0]["depth"] == 2
        assert spans[0]["events"] == 7
        assert spans[1]["self_seconds"] <= spans[1]["seconds"]


class TestTraceReportSpans:
    def test_top_spans_section(self, tmp_path):
        from repro.obs import jsonl_tracer
        from repro.obs.trace_report import (
            format_trace_report,
            summarize_trace,
        )

        path = tmp_path / "t.jsonl"
        tracer = jsonl_tracer(str(path))
        with telemetry(tracer=tracer, metrics=MetricsRegistry(),
                       spans=SpanTree()):
            for _ in range(2):
                with span("outer"):
                    with span("inner"):
                        time.sleep(0.002)
        tracer.close()
        summary = summarize_trace(str(path))
        assert summary["spans"]["outer/inner"]["calls"] == 2
        report = format_trace_report(summary)
        assert "top 10 spans by self-time" in report
        assert "outer/inner" in report

    def test_torn_tail_tolerated(self, tmp_path):
        from repro.obs.trace_report import summarize_trace

        path = tmp_path / "t.jsonl"
        record = {"type": "span.end", "name": "a", "path": "a",
                  "depth": 1, "seconds": 0.5, "self_seconds": 0.5,
                  "events": 0}
        path.write_text(json.dumps(record) + "\n"
                        + '{"type": "span.e')
        summary = summarize_trace(str(path))
        assert summary["corrupt_lines"] == 1
        assert summary["spans"]["a"]["seconds"] == pytest.approx(0.5)


SCALE = 0.1
BENCH = ["gzip", "twolf"]


class TestParallelSpanMerge:
    def test_span_tree_structure_identical_serial_vs_parallel(self):
        """jobs=1 vs jobs=4: same results, same span-tree structure.

        Wall-clock seconds differ between runs by nature; the merged
        tree's *structure* — paths, call counts, event counts — must be
        bit-identical, as must the driver's result.
        """
        def run(jobs):
            tree = SpanTree()
            with telemetry(metrics=MetricsRegistry(), spans=tree):
                runner.clear_cache()
                result = fig6.run(scale=SCALE, benchmarks=BENCH,
                                  jobs=jobs)
            runner.clear_cache()
            return result, tree.as_dict()

        # Disable the disk cache so both runs do the same cold work
        # (a warm load skips the trace/profile phases entirely).
        artifact_cache.set_disabled(True)
        try:
            serial_result, serial_spans = run(1)
            parallel_result, parallel_spans = run(4)
        finally:
            artifact_cache.set_disabled(None)
        assert serial_result == parallel_result
        assert sorted(serial_spans) == sorted(parallel_spans)
        for key in serial_spans:
            assert serial_spans[key]["calls"] \
                == parallel_spans[key]["calls"], key
            assert serial_spans[key]["events"] \
                == parallel_spans[key]["events"], key
        # The engine wraps every job in a "cell" span on both paths.
        assert serial_spans["cell"]["calls"] == len(BENCH)


class TestCellSelfTime:
    def test_cell_stages_nest_and_self_times_add_up(self):
        """A cold baseline cell: stages nest under ``cell``, no double count.

        Self-times partition the wall clock, so over the whole tree
        they sum to the root span's ``seconds``.
        """
        tree = SpanTree()
        artifact_cache.set_disabled(True)
        try:
            runner.clear_cache()
            with telemetry(metrics=MetricsRegistry(), spans=tree):
                execute([Job(runner.run_baseline, "gzip", "reduced", 0.1)],
                        jobs=1)
        finally:
            runner.clear_cache()
            artifact_cache.set_disabled(None)
        snapshot = tree.as_dict()
        for stage in ("trace", "profile", "simulate"):
            assert f"cell{PATH_SEP}{stage}" in snapshot, sorted(snapshot)
        assert [key for key in snapshot if PATH_SEP not in key] == ["cell"]
        total_self = sum(e["self_seconds"] for e in snapshot.values())
        assert total_self == pytest.approx(
            snapshot["cell"]["seconds"], abs=1e-9)


class TestSimProfiler:
    def _artifacts(self):
        art = runner.get_artifacts("gzip", scale=0.2)
        return art.program, art.trace

    def test_profiler_does_not_change_results(self):
        program, trace = self._artifacts()
        baseline = make_simulator(program).run(trace, label="x")
        profiled = make_simulator(
            program, profiler=SimProfiler()
        ).run(trace, label="x")
        assert baseline == profiled

    def test_event_counts_deterministic_and_buckets_partition(self):
        program, trace = self._artifacts()
        p1, p2 = SimProfiler(), SimProfiler()
        make_simulator(program, profiler=p1).run(trace, label="x")
        make_simulator(program, profiler=p2).run(trace, label="x")
        assert p1.events == p2.events
        assert sum(p1.events) > 0
        # The stopwatch partition sums to the recorded run total.
        run = p1.runs[0]
        assert sum(run["seconds"].values()) == pytest.approx(
            run["total_seconds"]
        )
        assert p1.total_seconds() == pytest.approx(
            sum(p1.seconds)
        )

    def test_components_rows_are_self_time_ordered(self):
        program, trace = self._artifacts()
        profiler = SimProfiler()
        make_simulator(program, profiler=profiler).run(trace)
        rows = profiler.components()
        assert [r["name"] for r in rows] != []
        seconds = [r["seconds"] for r in rows]
        assert seconds == sorted(seconds, reverse=True)
        assert sum(r["fraction"] for r in rows) == pytest.approx(1.0)
        assert {r["name"] for r in rows} == set(COMPONENTS)
        assert len(COMPONENTS) == NUM_COMPONENTS

    def test_folded_output_shape(self):
        program, trace = self._artifacts()
        profiler = SimProfiler()
        make_simulator(program, profiler=profiler).run(trace)
        lines = profiler.folded()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack.startswith("repro;simulate;")
            assert int(weight) > 0

    @pytest.mark.parametrize(
        "engine", [LegacyTimingSimulator, VectorizedTimingSimulator])
    def test_unprofiled_run_reads_no_clock(self, engine, monkeypatch):
        """``profiler=None`` stays free: no run of the engine or of the
        scalar oracle reads the clock (a cold replay, a memo hit, a
        second run).  A profiled run reads it, and both give the scalar
        oracle's stats."""
        art = runner.get_artifacts("gzip", scale=0.2)
        program, trace = art.program, art.trace
        annotation = select_diverge_branches(
            program, art.profile, SelectionConfig.all_best_heur()
        )
        reference = LegacyTimingSimulator(
            program, annotation=annotation).run(trace, label="x")
        assert reference.retired_instructions > 0
        reads = []
        here = threading.get_ident()

        def clock():  # counts this thread's reads only
            if threading.get_ident() == here:
                reads.append(None)
            return float(len(reads))

        monkeypatch.setattr(time, "perf_counter", clock)
        monkeypatch.setattr(vectorized, "perf_counter", clock)
        vectorized.clear_prepass_memo()
        unprofiled = engine(program, annotation=annotation).run(
            trace, label="x")
        assert unprofiled == reference
        again = engine(program, annotation=annotation)
        assert again.run(trace, label="x") == reference
        again.run(trace, label="y")
        assert reads == []

        vectorized.clear_prepass_memo()
        profiler = SimProfiler()
        profiled = engine(program, annotation=annotation,
                          profiler=profiler).run(trace, label="x")
        assert reads
        assert profiler.total_seconds() > 0
        assert profiled == reference
        vectorized.clear_prepass_memo()

    def test_metrics_mirroring(self):
        program, trace = self._artifacts()
        registry = MetricsRegistry()
        profiler = SimProfiler()
        simulator = make_simulator(
            program, profiler=profiler, metrics=registry
        )
        simulator.run(trace)
        assert registry.counter(
            "simprof_fetch_seconds_total").value > 0
        assert registry.counter(
            "simprof_fetch_events_total").value \
            == profiler.events[COMPONENTS.index("fetch")]


class TestProfileCli:
    def _build(self):
        from repro.compiler import registry as preset_registry
        from repro.obs.profile_cli import build_profile

        config = preset_registry.resolve("all-best-cost")
        return build_profile("gzip", config, scale=0.2)

    def test_buckets_cover_simulate_self_time(self):
        data = self._build()
        sim = data["simulate"]
        # Acceptance: component buckets sum (within rounding/boundary
        # noise) to the simulate span's self-time.
        assert sim["self_seconds"] > 0
        assert 0.90 <= sim["coverage"] <= 1.001
        assert sim["attributed_seconds"] == pytest.approx(
            data["profiler"]["total_seconds"]
        )
        assert sim["insts_per_sec"] > 0
        assert data["run"]["retired_instructions"] == pytest.approx(
            sim["insts_per_sec"] * sim["self_seconds"]
        )

    def test_json_validates_against_schema(self):
        schema = load_schema("profile")
        data = self._build()
        assert validate_explain(data, schema) == []
        # Round-trips through JSON unchanged (no non-serializable
        # values sneak in).
        assert validate_explain(json.loads(json.dumps(data)), schema) == []

    def test_schema_rejects_malformed(self):
        data = self._build()
        data["profiler"]["components"][0]["name"] = "warp_drive"
        del data["simulate"]["coverage"]
        errors = validate_explain(data, load_schema("profile"))
        assert any("warp_drive" in e for e in errors)
        assert any("coverage" in e for e in errors)

    def test_cli_text_and_folded_and_json(self, tmp_path, capsys):
        from repro.obs.jsonl import iter_records
        from repro.obs.profile_cli import main

        assert main(["gzip", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "simulator hotspots" in out
        assert "span timings" in out
        assert "insts/sec" in out

        out_path = tmp_path / "deep" / "nested" / "p.folded"
        assert main(["gzip", "--scale", "0.2", "--folded",
                     "-o", str(out_path)]) == 0
        folded = out_path.read_text().splitlines()
        assert any(line.startswith("repro;simulate;")
                   for line in folded)

        json_path = tmp_path / "deep" / "p.json"
        log_path = tmp_path / "logs" / "history.jsonl"
        assert main(["gzip", "--scale", "0.2", "--json",
                     "-o", str(json_path), "--log", str(log_path)]) == 0
        data = json.loads(json_path.read_text())
        assert data["workload"] == "gzip"
        assert list(iter_records(str(log_path))) == [data]

    def test_profile_log_torn_tail(self, tmp_path):
        from repro.obs.jsonl import JsonlSink, iter_records

        path = tmp_path / "deep" / "history.jsonl"
        for n in (1, 2):  # one sink per ``profile --log`` run
            sink = JsonlSink(str(path), append=True)
            sink.write({"workload": "gzip", "n": n})
            sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"workload": "torn')
        corrupt = []
        records = list(iter_records(str(path), strict=False,
                                    corrupt=corrupt))
        assert [r["n"] for r in records] == [1, 2]
        assert len(corrupt) == 1

    def test_unknown_workload_fails_cleanly(self, capsys):
        from repro.obs.profile_cli import main

        assert main(["no-such-benchmark"]) == 1
        assert "error" in capsys.readouterr().err


class TestCampaignResources:
    def test_cell_usage_shape(self):
        from repro.campaign.backends import cell_usage

        usage = cell_usage()
        assert usage is not None
        assert set(usage) == {
            "user_seconds", "system_seconds", "max_rss_kb"
        }
        assert usage["max_rss_kb"] > 0

    def test_journal_resources_round_trip(self, tmp_path):
        from repro.campaign.journal import Journal, replay

        path = tmp_path / "journal.jsonl"
        usage = {"user_seconds": 1.5, "system_seconds": 0.25,
                 "max_rss_kb": 51200}
        with Journal(str(path)) as journal:
            journal.campaign_start("c", "hash", 1)
            journal.cell_finish("cell-1", 1, 0.5, {"speedup": 0.1},
                                resources=usage)
            journal.cell_finish("cell-2", 1, 0.5, {"speedup": 0.2})
        state = replay(str(path))
        assert state.resources == {"cell-1": usage}

    def test_report_resources_is_an_annotation(self):
        """Base report stays byte-identical; --resources appends."""
        from repro.campaign.report import render_report
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="c", benchmarks=("gzip",), axes=(),
            selection="all-best-cost", scale=0.1,
        )
        cells = spec.cells()
        results = {
            cells[0].cell_id: {
                "speedup": 0.1,
                "baseline": {"ipc": 1.0},
                "stats": {"ipc": 1.1},
            }
        }
        base = render_report(spec, results)
        with_none = render_report(spec, results, resources=None)
        assert base == with_none
        usage = {"user_seconds": 1.0, "system_seconds": 0.5,
                 "max_rss_kb": 2048}
        annotated = render_report(
            spec, results,
            resources={cells[0].cell_id: usage},
        )
        assert annotated.startswith(base)
        assert "Worker resources" in annotated
        assert "2.0" in annotated  # 2048 kB -> 2.0 MB
        # Cells without journaled usage render as gaps, not errors.
        gap_report = render_report(spec, results, resources={})
        assert "0/1 cells journaled usage" in gap_report
