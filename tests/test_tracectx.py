"""Distributed tracing: context propagation, span spools, and the
cross-process timeline aggregator (``python -m repro trace``)."""

import json
import os
import subprocess
import sys

import pytest

from repro import __main__ as repro_main
from repro.campaign import (
    Axis,
    CampaignSpec,
    Journal,
    LocalPoolBackend,
    Scheduler,
    ShardedBackend,
    replay,
)
from repro.exec import Job, execute
from repro.obs import (
    MetricsRegistry,
    SpanTree,
    jsonl_tracer,
    span,
    telemetry,
)
from repro.obs import traceview
from repro.obs.explain import load_schema, validate_explain
from repro.obs.jsonl import JsonlSink, iter_records
from repro.obs.trace_report import summarize_trace
from repro.obs.tracectx import (
    SpanSpool,
    TraceContext,
    activate,
    current,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)

SCALE = 0.1
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


# -- identifiers and the traceparent wire format -----------------------


class TestTraceparent:
    def test_ids_are_hex_of_the_right_width(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)
        int(new_span_id(), 16)

    def test_round_trip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        text = format_traceparent(trace_id, span_id)
        assert parse_traceparent(text) == (trace_id, span_id)

    def test_zero_parent_span_joins_at_the_root(self):
        trace_id = new_trace_id()
        text = format_traceparent(trace_id, "0" * 16)
        assert parse_traceparent(text) == (trace_id, None)

    @pytest.mark.parametrize("bad", [
        "", "nonsense", "00-abc-def-01",
        "00-" + "g" * 32 + "-" + "1" * 16 + "-01",
        "00-" + "a" * 31 + "-" + "1" * 16 + "-01",
        "00-" + "a" * 32 + "-" + "1" * 15 + "-01",
        "00-" + "a" * 32 + "-" + "1" * 16,
    ])
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            parse_traceparent(bad)

    def test_from_env_round_trip(self, tmp_path):
        ctx = TraceContext.root(service="a", trace_dir=str(tmp_path))
        env = ctx.to_env({})
        rebuilt = TraceContext.from_env(env, service="b")
        assert rebuilt.trace_id == ctx.trace_id
        assert rebuilt.service == "b"
        assert rebuilt.spool.directory == str(tmp_path)

    def test_from_env_without_traceparent_is_none(self):
        assert TraceContext.from_env({}, service="x") is None

    def test_from_propagation_none_payload(self):
        assert TraceContext.from_propagation(None) is None
        assert TraceContext.from_propagation({}) is None


# -- the active-context stack and span hooks ---------------------------


class TestActiveContext:
    def test_activate_restores_previous(self):
        outer = TraceContext.root(service="outer")
        inner = TraceContext.root(service="inner")
        assert current() is None
        with activate(outer):
            assert current() is outer
            with activate(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_activate_none_is_a_noop(self):
        with activate(None):
            assert current() is None

    def test_span_hook_parents_nested_spans(self, tmp_path):
        ctx = TraceContext.root(service="t", trace_dir=str(tmp_path))
        with telemetry(metrics=MetricsRegistry(), spans=SpanTree()):
            with activate(ctx):
                with span("outer"):
                    with span("inner"):
                        pass
        records, files, corrupt = traceview.read_spools(str(tmp_path))
        assert files == 1 and not corrupt
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["trace_id"] == ctx.trace_id

    def test_tracer_events_stamped_with_trace_and_span(self, tmp_path):
        out = tmp_path / "events.jsonl"
        ctx = TraceContext.root(service="t", trace_dir=str(tmp_path))
        tracer = jsonl_tracer(str(out))
        with telemetry(tracer=tracer, metrics=MetricsRegistry(),
                       spans=SpanTree()):
            with activate(ctx):
                with span("work"):
                    pass
        tracer.close()
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        ends = [r for r in records if r["type"] == "span.end"]
        assert ends and all(r["trace_id"] == ctx.trace_id for r in ends)
        spooled = traceview.read_spools(str(tmp_path))[0]
        assert ends[0]["span_id"] == spooled[0]["span_id"]

    def test_no_context_means_no_spool(self, tmp_path):
        with telemetry(metrics=MetricsRegistry(), spans=SpanTree()):
            with span("untraced"):
                pass
        assert traceview.spool_paths(str(tmp_path)) == []


# -- the per-process spool ---------------------------------------------


class TestSpanSpool:
    def test_path_embeds_the_pid(self, tmp_path):
        spool = SpanSpool(str(tmp_path))
        assert isinstance(spool, JsonlSink)  # the one appender
        assert f"spans-{os.getpid()}.jsonl" in spool.path

    def test_write_appends_json_lines(self, tmp_path):
        spool = SpanSpool(str(tmp_path))
        spool.write({"trace_id": "t", "span_id": "s"})
        spool.write({"trace_id": "t", "span_id": "s2"})
        spool.close()
        lines = open(spool.path).read().splitlines()
        assert [json.loads(l)["span_id"] for l in lines] == ["s", "s2"]

    def test_torn_tail_is_skipped_by_the_reader(self, tmp_path):
        spool = SpanSpool(str(tmp_path))
        record = {"trace_id": "t" * 32, "span_id": "s" * 16,
                  "name": "x", "start_ts": 1.0, "seconds": 0.1}
        spool.write(record)
        spool.close()
        with open(spool.path, "a") as handle:
            handle.write('{"trace_id": "tr')  # crash mid-write
        records, _files, corrupt = traceview.read_spools(str(tmp_path))
        assert len(records) == 1
        assert corrupt == 1


# -- the aggregator ----------------------------------------------------


def _spool_record(trace_id, span_id, parent_id, name, start, seconds,
                  service="svc", pid=1, **extra):
    record = {
        "trace_id": trace_id, "span_id": span_id,
        "parent_id": parent_id, "name": name, "path": name,
        "service": service, "pid": pid, "start_ts": start,
        "seconds": seconds, "self_seconds": seconds, "events": 0,
    }
    record.update(extra)
    return record


def _write_spool(directory, pid, records):
    path = os.path.join(str(directory), f"spans-{pid}.jsonl")
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


class TestBuildTimeline:
    def test_merges_processes_and_derives_self_time(self, tmp_path):
        tid = "a" * 32
        _write_spool(tmp_path, 1, [
            _spool_record(tid, "r" * 16, None, "root", 0.0, 1.0, pid=1),
        ])
        _write_spool(tmp_path, 2, [
            _spool_record(tid, "c" * 16, "r" * 16, "child", 0.2, 0.6,
                          service="worker", pid=2),
        ])
        data = traceview.build_timeline(str(tmp_path), tid)
        assert data["span_count"] == 2
        assert data["orphans"] == []
        assert len(data["processes"]) == 2
        root = next(s for s in data["spans"] if s["name"] == "root")
        # self time is re-derived from the merged tree: the child ran
        # in another process, so the root's own work is 1.0 - 0.6.
        assert root["derived_self_seconds"] == pytest.approx(0.4)
        assert data["wall_seconds"] == pytest.approx(1.0)

    def test_orphans_are_flagged_not_dropped(self, tmp_path):
        tid = "b" * 32
        _write_spool(tmp_path, 1, [
            _spool_record(tid, "r" * 16, None, "root", 0.0, 1.0),
            _spool_record(tid, "o" * 16, "f" * 16, "lost", 0.1, 0.2),
        ])
        data = traceview.build_timeline(str(tmp_path), tid)
        assert data["orphans"] == ["o" * 16]
        flagged = next(s for s in data["spans"] if s["orphan"])
        assert flagged["span_id"] == "o" * 16
        assert "ORPHAN" in traceview.format_timeline(data)

    def test_unknown_trace_raises(self, tmp_path):
        _write_spool(tmp_path, 1, [])
        with pytest.raises(ValueError):
            traceview.build_timeline(str(tmp_path), "f" * 32)

    def test_timeline_validates_against_pinned_schema(self, tmp_path):
        tid = "c" * 32
        _write_spool(tmp_path, 1, [
            _spool_record(tid, "r" * 16, None, "root", 0.0, 1.0,
                          attrs={"k": "v"}),
        ])
        data = traceview.build_timeline(str(tmp_path), tid)
        assert validate_explain(data, load_schema("trace")) == []

    def test_folded_output_weights_by_self_time(self, tmp_path):
        tid = "d" * 32
        _write_spool(tmp_path, 1, [
            _spool_record(tid, "r" * 16, None, "root", 0.0, 1.0),
            _spool_record(tid, "c" * 16, "r" * 16, "child", 0.2, 0.25),
        ])
        data = traceview.build_timeline(str(tmp_path), tid)
        folded = traceview.folded_timeline(data)
        assert "svc;root 750000" in folded
        assert "svc;root;child 250000" in folded

    def test_list_traces_newest_first(self, tmp_path):
        _write_spool(tmp_path, 1, [
            _spool_record("a" * 32, "1" * 16, None, "old", 0.0, 1.0),
            _spool_record("b" * 32, "2" * 16, None, "new", 5.0, 1.0),
        ])
        entries = traceview.list_traces(str(tmp_path))
        assert [e["trace_id"] for e in entries] == ["b" * 32, "a" * 32]
        assert entries[0]["services"] == ["svc"]


class TestTraceCLI:
    def test_show_and_list(self, tmp_path, capsys):
        tid = "e" * 32
        _write_spool(tmp_path, 1, [
            _spool_record(tid, "r" * 16, None, "root", 0.0, 1.0),
        ])
        assert repro_main.main(
            ["trace", "list", "--dir", str(tmp_path)]) == 0
        assert tid in capsys.readouterr().out
        assert repro_main.main(
            ["trace", "show", tid, "--dir", str(tmp_path)]) == 0
        assert "root" in capsys.readouterr().out

    def test_show_json_is_schema_valid(self, tmp_path, capsys):
        tid = "f" * 32
        _write_spool(tmp_path, 1, [
            _spool_record(tid, "r" * 16, None, "root", 0.0, 1.0),
        ])
        assert repro_main.main(
            ["trace", "show", tid, "--dir", str(tmp_path),
             "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert validate_explain(data, load_schema("trace")) == []

    def test_show_missing_trace_fails(self, tmp_path, capsys):
        _write_spool(tmp_path, 1, [])
        assert repro_main.main(
            ["trace", "show", "9" * 32, "--dir", str(tmp_path)]) == 1
        capsys.readouterr()


# -- propagation into worker processes ---------------------------------


def _traced_cell(value):
    """Pool workers import this by module path — keep it top-level."""
    with span("inner"):
        return value * 2


class TestExecPropagation:
    def test_pool_workers_join_the_trace(self, tmp_path):
        ctx = TraceContext.root(service="driver",
                                trace_dir=str(tmp_path))
        jobs = [Job(_traced_cell, n, label=f"job{n}")
                for n in range(2)]
        with telemetry(metrics=MetricsRegistry(),
                       spans=SpanTree()):
            with activate(ctx):
                with span("driver.run"):
                    results = execute(jobs, jobs=2)
        assert results == [0, 2]
        data = traceview.build_timeline(str(tmp_path), ctx.trace_id)
        assert data["orphans"] == []
        services = {p["service"] for p in data["processes"]}
        assert services == {"driver", "exec-worker"}
        cells = [s for s in data["spans"] if s["name"] == "cell"]
        assert {s["attrs"]["job"] for s in cells} == {"job0", "job1"}
        # nested spans inside the worker parent to the worker's cell
        inners = [s for s in data["spans"] if s["name"] == "inner"]
        cell_ids = {s["span_id"] for s in cells}
        assert inners and all(
            s["parent_id"] in cell_ids for s in inners)

    def test_serial_execute_spans_stay_in_process(self, tmp_path):
        ctx = TraceContext.root(service="driver",
                                trace_dir=str(tmp_path))
        with telemetry(metrics=MetricsRegistry(),
                       spans=SpanTree()):
            with activate(ctx):
                results = execute(
                    [Job(_traced_cell, 3, label="one")], jobs=1)
        assert results == [6]
        data = traceview.build_timeline(str(tmp_path), ctx.trace_id)
        assert data["orphans"] == []
        assert {p["service"] for p in data["processes"]} == {"driver"}


class TestCampaignPropagation:
    def test_sharded_run_merges_into_one_trace(self, tmp_path):
        spec = CampaignSpec(
            name="traced", benchmarks=("gzip", "twolf"), scale=SCALE,
            selection="exact-freq", axes=(Axis("max_instr", (10, 30)),),
            cell="tests.test_campaign_backends:fake_cell",
        )
        trace_dir = tmp_path / "trace"
        trace_id = new_trace_id()
        for index in range(2):
            ctx = TraceContext.from_traceparent(
                format_traceparent(trace_id, "0" * 16),
                service=f"campaign-shard{index}",
                trace_dir=str(trace_dir),
            )
            journal_path = str(
                tmp_path / f"journal.shard-{index}-of-2.jsonl")
            backend = ShardedBackend(2, index)
            with telemetry(metrics=MetricsRegistry(),
                           spans=SpanTree()):
                with activate(ctx):
                    with span("campaign.run"):
                        with Journal(journal_path) as journal:
                            journal.campaign_start(
                                spec.name, spec.spec_hash, 1)
                            Scheduler(spec, journal, backoff=0.0,
                                      backend=backend).run(
                                          replay(journal_path))
        data = traceview.build_timeline(str(trace_dir), trace_id)
        assert data["orphans"] == []
        services = {p["service"] for p in data["processes"]}
        assert "campaign-shard0" in services
        assert "campaign-shard1" in services
        assert "campaign-worker" in services
        cells = [s for s in data["spans"] if s["name"] == "cell"]
        assert len(cells) == len(spec.cells())
        assert validate_explain(data, load_schema("trace")) == []

    def test_untraced_run_writes_no_spools(self, tmp_path):
        spec = CampaignSpec(
            name="plain", benchmarks=("gzip",), scale=SCALE,
            selection="exact-freq", axes=(Axis("max_instr", (10,)),),
            cell="tests.test_campaign_backends:fake_cell",
        )
        journal_path = str(tmp_path / "journal.jsonl")
        with telemetry(metrics=MetricsRegistry(),
                       spans=SpanTree()):
            with Journal(journal_path) as journal:
                journal.campaign_start(spec.name, spec.spec_hash, 1)
                Scheduler(spec, journal, backoff=0.0,
                          backend=LocalPoolBackend()).run(
                              replay(journal_path))
        assert traceview.spool_paths(str(tmp_path)) == []
        for record in replay(journal_path).results.values():
            assert "trace_id" not in record


# -- one record, every reader -------------------------------------------


class TestCrossReader:
    """The spool, the event log and the manifest describe the same spans."""

    def test_spool_event_log_and_manifest_agree(self, tmp_path, capsys):
        trace, spool_dir = tmp_path / "t.jsonl", tmp_path / "spool"
        manifest_path = tmp_path / "m.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        subprocess.run(
            [sys.executable, "-m", "repro", "fig5", "--scale", str(SCALE),
             "--benchmarks", "gzip", "--jobs", "2",
             "--trace", str(trace), "--trace-dir", str(spool_dir),
             "--manifest", str(manifest_path)],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )

        # Every spool record is, field for field, the span.end record
        # of the event log with the same span id (less its seq).
        logged = {
            r["span_id"]: {k: v for k, v in r.items() if k != "seq"}
            for r in iter_records(str(trace)) if r["type"] == "span.end"
        }
        spooled = [r for path in traceview.spool_paths(str(spool_dir))
                   for r in iter_records(path)]
        assert spooled and len(spooled) == len(logged)
        for record in spooled:
            assert record == logged[record["span_id"]]

        # Per name, trace-report's span table counts the manifest's
        # phase calls.
        calls = {}
        for path, entry in summarize_trace(str(trace))["spans"].items():
            name = path.rsplit("/", 1)[-1]
            calls[name] = calls.get(name, 0) + entry["calls"]
        with open(manifest_path, encoding="utf-8") as handle:
            phases = json.load(handle)["phases"]
        assert calls == {name: row["calls"]
                         for name, row in phases.items()}

        # trace show --json is schema-valid and has no orphans.
        (trace_id,) = {r["trace_id"] for r in spooled}
        capsys.readouterr()
        assert traceview.main(
            ["show", trace_id, "--dir", str(spool_dir), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert validate_explain(data, load_schema("trace")) == []
        assert data["orphans"] == []
        assert data["span_count"] == len(spooled)


# -- trace-report --trace-id -------------------------------------------


class TestTraceReportFilter:
    def test_filters_to_one_trace(self, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        with open(out, "w") as handle:
            for tid in ("1" * 32, "2" * 32):
                handle.write(json.dumps({
                    "type": "span.end", "name": "work", "path": "work",
                    "seconds": 0.5, "self_seconds": 0.5, "events": 0,
                    "trace_id": tid, "span_id": "a" * 16,
                }) + "\n")
        assert repro_main.main(
            ["trace-report", str(out), "--trace-id", "1" * 32]) == 0
        text = capsys.readouterr().out
        assert "filtered to trace " + "1" * 32 in text
        assert "events: 1" in text
        assert "span-id" in text
        assert "a" * 16 in text

    def test_unfiltered_lists_trace_ids(self, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        with open(out, "w") as handle:
            handle.write(json.dumps({
                "type": "span.end", "name": "w", "path": "w",
                "seconds": 0.1, "trace_id": "3" * 32,
                "span_id": "b" * 16,
            }) + "\n")
        assert repro_main.main(["trace-report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "distributed trace ids: 1" in text
        assert "3" * 32 in text
