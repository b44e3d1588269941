"""Event-schema properties: every event round-trips; readers accept all.

The trace log is only trustworthy if what goes in comes back out: each
registered event class must survive ``to_record`` → JSON → ``from_record``
unchanged (hypothesis generates the field values from the dataclass
annotations, so adding a field to an event automatically extends the
property), and the offline readers (``summarize_trace``) must accept a
stream containing *every* registered event type without raising.  Also
covers the OpenMetrics exposition round-trip and output-path parent
creation.
"""

import dataclasses
import json
import os
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.ioutil import ensure_parent
from repro.obs import events
from repro.obs.metrics import MetricsRegistry, parse_openmetrics
from repro.obs.trace_report import format_trace_report, summarize_trace
from repro.obs.tracer import JsonlSink, Tracer

# -- to_record/from_record round-trip ----------------------------------------

_SCALARS = {
    int: st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    str: st.text(max_size=40),
    bool: st.booleans(),
    float: st.floats(allow_nan=False, allow_infinity=False),
}


def _field_strategy(annotation):
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    if typing.get_origin(annotation) is typing.Union:
        members = [
            _field_strategy(arg)
            for arg in typing.get_args(annotation)
            if arg is not type(None)
        ]
        return st.one_of(st.none(), *members)
    raise AssertionError(
        f"no strategy for event field annotation {annotation!r}; "
        f"extend _SCALARS alongside the new event field type"
    )


def _event_strategy(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        field.name: _field_strategy(hints[field.name])
        for field in dataclasses.fields(cls)
    })


@pytest.mark.parametrize(
    "cls", sorted(events.EVENT_TYPES.values(), key=lambda c: c.type),
    ids=lambda c: c.type,
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_event_round_trips_through_json(cls, data):
    original = data.draw(_event_strategy(cls))
    record = events.to_record(original)
    assert record["type"] == cls.type
    wire = json.loads(json.dumps(record))
    assert events.from_record(wire) == original


def test_from_record_tolerates_unknown_type_and_extra_fields():
    generic = events.from_record({"type": "future.event", "x": 1})
    assert isinstance(generic, events.GenericEvent)
    assert generic.payload == {"x": 1}
    # Extra fields on a *known* type (written by a newer build) drop.
    evt = events.from_record({
        "type": "sim.run.start", "label": "sim", "trace_length": 3,
        "dmp_enabled": True, "added_in_v9": True,
    })
    assert evt == events.SimRunStart(label="sim", trace_length=3,
                                     dmp_enabled=True)


# -- every event type through the offline readers ----------------------------


def _one_of_each():
    """A plausible instance of every registered event type."""
    return [
        events.SimRunStart(label="dmp", trace_length=100, dmp_enabled=True),
        events.DpredEpisodeStart(
            branch_pc=40, kind="hammock", cycle=10,
            mispredicted=True, wrong_path_insts=4,
        ),
        events.DpredEpisodeMerge(
            branch_pc=40, cycle=15, duration_cycles=5, select_uops=2,
        ),
        events.DpredEpisodeStart(
            branch_pc=60, kind="loop", cycle=20,
            mispredicted=False, wrong_path_insts=0, select_uops=3,
        ),
        events.DpredEpisodeExtend(branch_pc=60, cycle=24, extra_insts=6),
        events.DpredEpisodeEnd(
            branch_pc=60, cycle=30, duration_cycles=10,
            reason="resolved-unmerged",
        ),
        events.DpredEpisodeStart(
            branch_pc=80, kind="hammock", cycle=35,
            mispredicted=False, wrong_path_insts=2,
        ),
        events.DpredEpisodeFlush(
            branch_pc=80, cycle=40, duration_cycles=5,
            flushed_by_pc=82, source="branch-mispredict",
        ),
        events.PipelineFlush(pc=82, cycle=40, source="branch-mispredict"),
        events.CacheMiss(level="icache", pc=82, cycle=41, stall_cycles=12),
        events.BranchSelected(
            branch_pc=40, kind="hammock", source="cost-model",
            always_predicate=False, num_cfm_points=1, num_select_uops=2,
            dpred_cost=-3.5, dpred_overhead=1.0, merge_prob_total=0.9,
        ),
        events.BranchRejected(
            branch_pc=90, reason="cost-model", dpred_cost=4.0,
            dpred_overhead=2.0, merge_prob_total=0.4,
        ),
        events.CompilePassStart(pipeline="p", pass_name="cost", index=0),
        events.CompilePassEnd(
            pipeline="p", pass_name="cost", index=0, seconds=0.01,
            candidates=3, selected=1,
        ),
        events.SimRunEnd(
            label="dmp", cycles=100, retired_instructions=90,
            pipeline_flushes=1, dpred_episodes=3,
            dpred_episodes_merged=1, mispredictions=2,
            dpred_flushes_avoided=2, dpred_wrong_path_insts=12,
            dpred_select_uops=5,
        ),
        events.CampaignCellStart(
            campaign="c", cell_id="abc", label="gzip", attempt=1,
        ),
        events.CampaignCellEnd(
            campaign="c", cell_id="abc", attempt=1, seconds=0.2,
        ),
        events.CampaignCellFail(
            campaign="c", cell_id="def", attempt=1,
            kind="timeout", error="budget",
        ),
        events.CampaignCellQuarantined(
            campaign="c", cell_id="def", attempts=3,
        ),
    ]


def test_one_of_each_covers_the_registry():
    emitted = {evt.type for evt in _one_of_each()}
    assert emitted == set(events.EVENT_TYPES)


def test_summarize_trace_accepts_every_event_type(tmp_path):
    path = str(tmp_path / "all_events.jsonl")
    tracer = Tracer(JsonlSink(path))
    for evt in _one_of_each():
        tracer.emit(evt)
    tracer.close()

    summary = summarize_trace(path)
    assert summary["total_events"] == len(_one_of_each())
    assert set(summary["by_type"]) == set(events.EVENT_TYPES)
    assert summary["corrupt_lines"] == 0
    # Episode accounting fed from the stream above: 3 starts (one per
    # branch), 1 merge, 2 covered mispredictions (start + extend).
    assert summary["reconciliation"]["episode_starts"] == 3
    assert summary["reconciliation"]["episode_merges"] == 1
    assert summary["reconciliation"]["consistent"]
    assert summary["branches"][60]["flushes_avoided"] == 1
    assert summary["branches"][60]["wrong_path_insts"] == 6
    # And the renderer accepts the whole summary.
    assert "trace report" in format_trace_report(summary)


# -- OpenMetrics exposition ---------------------------------------------------


def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("sim_cycles_total").inc(1234)
    registry.counter("sim_flushes_total").inc(7)
    registry.gauge("campaign_cells_pending").set(42)
    hist = registry.histogram(
        "phase_seconds", buckets=(0.1, 1.0, 10.0)
    )
    for value in (0.05, 0.5, 2.0, 20.0):
        hist.observe(value)
    return registry


def test_openmetrics_round_trips_into_equal_snapshot():
    registry = _populated_registry()
    text = registry.render_openmetrics()
    assert text.endswith("# EOF\n")
    snapshot = parse_openmetrics(text)

    merged = MetricsRegistry()
    merged.merge_snapshot(snapshot)
    assert merged.as_dict() == registry.as_dict()


def test_openmetrics_counter_names_use_total_suffix():
    text = _populated_registry().render_openmetrics()
    assert "# TYPE sim_cycles counter" in text
    assert "sim_cycles_total 1234" in text
    # Histogram exposition: cumulative buckets, +Inf, count and sum.
    assert 'phase_seconds_bucket{le="+Inf"} 4' in text
    assert "phase_seconds_count 4" in text


# -- output paths create their parent directories ----------------------------


def test_ensure_parent_creates_missing_directories(tmp_path):
    target = tmp_path / "a" / "b" / "c.json"
    assert ensure_parent(str(target)) == str(target)
    assert os.path.isdir(tmp_path / "a" / "b")
    # Bare filenames (no directory component) are a no-op.
    assert ensure_parent("plain.json") == "plain.json"


def test_jsonl_sink_creates_parent_directories(tmp_path):
    path = str(tmp_path / "deep" / "traces" / "out.jsonl")
    tracer = Tracer(JsonlSink(path))
    tracer.emit(events.SimRunStart(label="x", trace_length=0,
                                   dmp_enabled=False))
    tracer.close()
    assert os.path.getsize(path) > 0


def test_metrics_writers_create_parent_directories(tmp_path):
    registry = _populated_registry()
    json_path = str(tmp_path / "m" / "metrics.json")
    registry.write_json(json_path)
    assert json.load(open(json_path, encoding="utf-8"))
    om_path = str(tmp_path / "om" / "metrics.txt")
    registry.write_openmetrics(om_path)
    assert open(om_path, encoding="utf-8").read().endswith("# EOF\n")
