"""Tracer, sinks, event round-trips, span timings, context, manifests."""

import dataclasses
import json
import os
import sys
import threading

import pytest

from repro.obs import (
    JsonlSink,
    ListSink,
    MetricsRegistry,
    NULL_TRACER,
    SpanSpool,
    SpanTree,
    Tracer,
    format_by_name,
    get_metrics,
    get_tracer,
    iter_records,
    jsonl_tracer,
    read_events,
    span,
    telemetry,
)
from repro.obs import events
from repro.obs.manifest import build_manifest, read_manifest, write_manifest

SAMPLE_EVENTS = [
    events.DpredEpisodeStart(branch_pc=7, kind="hammock", cycle=100,
                             mispredicted=True, wrong_path_insts=12),
    events.DpredEpisodeMerge(branch_pc=7, cycle=130, duration_cycles=30,
                             select_uops=3),
    events.DpredEpisodeEnd(branch_pc=9, cycle=10, duration_cycles=4,
                           reason="resolved-unmerged"),
    events.DpredEpisodeFlush(branch_pc=9, cycle=50, duration_cycles=2,
                             flushed_by_pc=11,
                             source="branch-mispredict"),
    events.BranchSelected(branch_pc=3, kind="simple", source="exact",
                          always_predicate=False, num_cfm_points=1,
                          num_select_uops=2, dpred_cost=-1.5,
                          dpred_overhead=2.5, merge_prob_total=1.0),
    events.BranchRejected(branch_pc=4, reason="cost-model",
                          dpred_cost=0.7),
    events.PipelineFlush(pc=5, cycle=60, source="return-mispredict"),
    events.CacheMiss(level="icache", pc=6, cycle=70, stall_cycles=9),
    events.SimRunStart(label="gzip/dmp", trace_length=1000,
                       dmp_enabled=True),
    events.SimRunEnd(label="gzip/dmp", cycles=500,
                     retired_instructions=1000, pipeline_flushes=2,
                     dpred_episodes=3, dpred_episodes_merged=2),
]


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(SAMPLE_EVENTS[0])  # no-op, no error
        NULL_TRACER.close()

    def test_null_tracer_adds_zero_events_in_a_run(self,
                                                   simple_hammock_program,
                                                   alternating_memory):
        from repro.emulator import execute
        from repro.uarch import make_simulator

        trace, _ = execute(simple_hammock_program,
                           memory=dict(alternating_memory))
        sink = ListSink()
        with telemetry(tracer=NULL_TRACER):
            simulator = make_simulator(simple_hammock_program)
            simulator.run(trace, label="null")
        assert sink.records == []


class TestRoundTrip:
    def test_every_event_survives_jsonl(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = jsonl_tracer(path)
        for event in SAMPLE_EVENTS:
            tracer.emit(event)
        tracer.close()
        assert read_events(path) == SAMPLE_EVENTS

    def test_records_carry_type_and_seq(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = jsonl_tracer(path)
        for event in SAMPLE_EVENTS:
            tracer.emit(event)
        tracer.close()
        records = list(iter_records(path))
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert records[0]["type"] == "dpred.episode.start"

    def test_list_sink_round_trip(self):
        sink = ListSink()
        tracer = Tracer(sink)
        for event in SAMPLE_EVENTS:
            tracer.emit(event)
        assert sink.events() == SAMPLE_EVENTS
        tracer.close()
        assert sink.closed

    def test_unknown_event_type_reads_as_generic(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(
            {"type": "future.event", "seq": 0, "detail": 42}) + "\n")
        (event,) = read_events(str(path))
        assert event.type == "future.event"
        assert event.payload == {"detail": 42}

    def test_bad_json_raises_with_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_events(str(path))

    def test_all_registered_events_are_dataclasses(self):
        for cls in events.EVENT_TYPES.values():
            assert dataclasses.is_dataclass(cls)
            assert cls.type in events.EVENT_TYPES


class TestJsonlSink:
    def test_accepts_open_file_object(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as handle:
            sink = JsonlSink(handle)
            sink.write({"type": "x"})
            sink.close()  # does not close a borrowed handle
            assert not handle.closed
        assert json.loads(path.read_text()) == {"type": "x"}

    def test_forked_child_reopens_its_own_handle(self, tmp_path):
        log = tmp_path / "t.jsonl"
        sink = JsonlSink(str(log))
        spool = SpanSpool(str(tmp_path / "spool"))
        sink.write({"who": "parent", "n": 0})
        spool.write({"who": "parent"})
        pid = os.fork()
        if pid == 0:  # pragma: no cover — runs in the child
            code = 0
            try:
                sink.write({"who": "child"})
                spool.write({"who": "child"})
            except BaseException:
                code = 1
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        sink.write({"who": "parent", "n": 1})
        spool.close()
        sink.close()
        # The child appended through its own handle; nothing tore or
        # overwrote the parent's lines before and after it.
        assert [r["who"] for r in iter_records(str(log))] == \
            ["parent", "child", "parent"]
        spools = sorted(os.listdir(tmp_path / "spool"))
        assert spools == sorted(
            f"spans-{p}.jsonl" for p in (os.getpid(), pid))
        child_spool = tmp_path / "spool" / f"spans-{pid}.jsonl"
        assert [r["who"] for r in iter_records(str(child_spool))] == \
            ["child"]

    def test_torn_tail_is_skipped_by_the_reader(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path))
        sink.write({"n": 1})
        sink.write({"n": 2})
        sink.close()
        with open(path, "a") as handle:
            handle.write('{"n": 3, "tor')  # crash mid-write
        corrupt = []
        records = list(iter_records(str(path), strict=False,
                                    corrupt=corrupt))
        assert records == [{"n": 1}, {"n": 2}]
        assert [line for line, _ in corrupt] == [3]
        with pytest.raises(ValueError, match=":3:"):
            list(iter_records(str(path)))

    def test_threads_never_interleave_within_a_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path))
        tags = [f"t{n}" for n in range(min((os.cpu_count() or 1) + 2, 34))]
        # Lines longer than the write buffer take several writes each.
        payload = {tag: tag * 5000 for tag in tags}

        def writer(tag):
            for n in range(50):
                sink.write({"tag": tag, "n": n, "pad": payload[tag]})

        threads = [threading.Thread(target=writer, args=(tag,))
                   for tag in tags]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        sink.close()
        records = list(iter_records(str(path)))  # strict: every line whole
        for tag in tags:
            mine = [r for r in records if r["tag"] == tag]
            assert [r["n"] for r in mine] == list(range(50))
            assert all(r["pad"] == payload[tag] for r in mine)

    def test_trace_log_truncates_spool_and_access_log_append(
            self, tmp_path):
        from repro.serve.accesslog import AccessLog

        old = json.dumps({"old": True}) + "\n"
        trace_log = tmp_path / "t.jsonl"
        access = tmp_path / "access.jsonl"
        spool_dir = tmp_path / "spool"
        spool_dir.mkdir()
        spool_path = spool_dir / f"spans-{os.getpid()}.jsonl"
        for path in (trace_log, access, spool_path):
            path.write_text(old)
        tracer = jsonl_tracer(str(trace_log))
        assert trace_log.read_text() == ""  # emptied when built
        tracer.emit(SAMPLE_EVENTS[0])
        tracer.close()
        log = AccessLog(str(access))
        log.log("GET", "/healthz", 200, 0.1)
        log.close()
        spool = SpanSpool(str(spool_dir))
        spool.write({"new": True})
        spool.close()
        assert len(read_events(str(trace_log))) == 1
        for path in (access, spool_path):
            lines = path.read_text().splitlines(keepends=True)
            assert lines[0] == old and len(lines) == 2

    def test_write_after_close_raises_and_access_log_ignores_it(
            self, tmp_path):
        from repro.serve.accesslog import AccessLog

        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError):
            sink.write({"late": True})
        log = AccessLog(str(tmp_path / "access.jsonl"))
        log.close()
        assert log.log("GET", "/healthz", 200, 0.1)["status"] == 200
        assert (tmp_path / "access.jsonl").read_text() == ""


class TestPhaseTimers:
    """The per-name view of the span tree (manifest ``phases``)."""

    def test_phase_records_profile_metrics_and_event(self, tmp_path):
        from repro.obs.jsonl import iter_records
        from repro.obs.tracectx import TraceContext, activate
        from repro.obs.traceview import spool_paths

        tree = SpanTree()
        registry = MetricsRegistry()
        sink = ListSink()
        tracer = Tracer(sink)
        ctx = TraceContext.root(service="t", trace_dir=str(tmp_path))
        with telemetry(tracer=tracer, metrics=registry, spans=tree):
            with activate(ctx):
                with span("simulate") as handle:
                    handle.events = 500
        assert tree.as_dict()["simulate"]["seconds"] > 0
        snapshot = tree.by_name()["simulate"]
        assert snapshot["events"] == 500
        assert snapshot["calls"] == 1
        assert snapshot["events_per_sec"] > 0
        assert registry.counter("span_simulate_calls_total").value == 1
        assert registry.counter("span_simulate_seconds_total").value > 0
        # The span.end record goes to the trace directory's spool, not
        # to the event log.
        assert sink.records == []
        (spool,) = spool_paths(str(tmp_path))
        (event,) = iter_records(spool)
        assert event["type"] == "span.end"
        assert event["name"] == "simulate"
        assert event["events"] == 500

    def test_phase_records_even_on_exception(self):
        tree = SpanTree()
        with telemetry(metrics=MetricsRegistry(), tracer=NULL_TRACER,
                       spans=tree):
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("boom")
        assert tree.by_name()["boom"]["calls"] == 1

    def test_report_mentions_phases(self):
        tree = SpanTree()
        tree.add({"path": "cell/trace", "seconds": 0.5, "events": 1000})
        tree.add({"path": "trace", "seconds": 0.5, "events": 1000})
        text = format_by_name(tree.by_name())
        assert "trace" in text
        assert "x2" in text
        assert "2000 events" in text
        assert format_by_name(SpanTree().by_name()) == "no spans recorded"


class TestTelemetryContext:
    def test_defaults_are_null_tracer_and_shared_registry(self):
        assert get_tracer().enabled is False
        assert get_metrics() is get_metrics()

    def test_nested_contexts_restore(self):
        outer_metrics = get_metrics()
        sink = ListSink()
        tracer = Tracer(sink)
        with telemetry(tracer=tracer) as bundle:
            assert get_tracer() is tracer
            # Unspecified pieces inherit from the surrounding context.
            assert bundle.metrics is outer_metrics
            fresh = MetricsRegistry()
            with telemetry(metrics=fresh):
                assert get_metrics() is fresh
                assert get_tracer() is tracer
            assert get_metrics() is outer_metrics
        assert get_tracer().enabled is False


class TestManifest:
    def test_build_and_round_trip(self, tmp_path):
        tree = SpanTree()
        tree.add({"path": "cell/simulate", "seconds": 1.0, "events": 100})
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        manifest = build_manifest(
            "python -m repro fig5",
            args={"scale": 0.5},
            benchmarks=["gzip"],
            scale=0.5,
            phases=tree,
            metrics=registry,
        )
        assert manifest["schema"].startswith("dmp-repro/")
        assert manifest["args"] == {"scale": 0.5}
        assert manifest["phases"] == tree.by_name()
        assert manifest["phases"]["simulate"]["events"] == 100
        assert manifest["metrics"] == registry.as_dict()
        assert manifest["metrics"]["runs"]["value"] == 1
        path = str(tmp_path / "sub" / "manifest.json")
        write_manifest(path, manifest)
        assert read_manifest(path) == manifest
