"""The campaign subsystem: spec/cell identity, journal replay, the
fault-tolerant scheduler (exceptions, hard crashes, timeouts, retry,
quarantine), crash/resume equivalence, the CLI, and Figure 7 expressed
as a campaign."""

import json
import os

import pytest

from repro import __main__ as repro_main
from repro.campaign import (
    Axis,
    CampaignSpec,
    Journal,
    Scheduler,
    aggregate_means,
    render_report,
    render_status,
    replay,
)
from repro.campaign.spec import content_hash, resolve_cell_fn, run_cell
from repro.obs import MetricsRegistry, SpanTree, telemetry

SCALE = 0.1
BENCH = ["gzip", "twolf"]

#: Attempt-marker directory for cells that fail a set number of times
#: (inherited by forked workers through the environment).
_MARKER_ENV = "REPRO_CAMPAIGN_TEST_DIR"


# -- cell functions (must be module-level: workers import by path) ----


def fake_cell(params):
    """Deterministic synthetic result derived from the parameters."""
    from repro.obs.context import get_metrics

    get_metrics().counter("fake_cells_total").inc()
    value = int(content_hash(params), 16) % 1000 / 1000.0
    return {
        "speedup": value,
        "baseline": {"ipc": 1.0},
        "stats": {"ipc": 1.0 + value},
    }


def crashy_cell(params):
    """Raises for one benchmark, succeeds for the rest."""
    if params["benchmark"] == "twolf":
        raise RuntimeError("synthetic cell failure")
    return fake_cell(params)


def hard_crash_cell(params):
    """Kills the worker outright (no exception, no payload)."""
    if params["benchmark"] == "twolf":
        os._exit(9)
    return fake_cell(params)


def sleepy_cell(params):
    """Exceeds any reasonable per-cell budget for one benchmark."""
    import time

    if params["benchmark"] == "twolf":
        time.sleep(60)
    return fake_cell(params)


def flaky_cell(params):
    """Fails the first attempt per cell, then succeeds (tests retry)."""
    marker_dir = os.environ[_MARKER_ENV]
    marker = os.path.join(marker_dir, content_hash(params))
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise RuntimeError("first attempt always fails")
    return fake_cell(params)


def _spec(cell="tests.test_campaign:fake_cell", name="probe",
          benchmarks=("gzip", "twolf"), axes=None):
    return CampaignSpec(
        name=name,
        benchmarks=benchmarks,
        scale=SCALE,
        selection="exact-freq",
        axes=axes if axes is not None
        else (Axis("max_instr", (10, 50)),),
        cell=cell,
    )


def _run(spec, tmp_path, jobs=1, state=None, max_cells=None, **kwargs):
    journal_path = tmp_path / "journal.jsonl"
    if state is None:
        state = replay(journal_path)
    with Journal(journal_path) as journal:
        journal.campaign_start(spec.name, spec.spec_hash, jobs)
        scheduler = Scheduler(spec, journal, jobs=jobs,
                              backoff=kwargs.pop("backoff", 0.0),
                              **kwargs)
        return scheduler.run(state, max_cells=max_cells)


class TestSpec:
    def test_cell_ids_are_stable_content_hashes(self):
        first = [c.cell_id for c in _spec().cells()]
        second = [c.cell_id for c in _spec().cells()]
        assert first == second
        assert len(set(first)) == len(first)

    def test_cell_ids_track_parameters(self):
        base = {c.cell_id for c in _spec().cells()}
        rescaled = CampaignSpec.from_dict(
            {**_spec().as_dict(), "scale": 0.2}
        )
        assert base.isdisjoint(c.cell_id for c in rescaled.cells())

    def test_cells_are_benchmark_major(self):
        cells = _spec().cells()
        assert [c.benchmark for c in cells] \
            == ["gzip", "gzip", "twolf", "twolf"]
        assert [dict(c.point)["max_instr"] for c in cells] \
            == [10, 50, 10, 50]

    def test_axis_routing(self):
        spec = _spec(axes=(
            Axis("max_instr", (10,)),
            Axis("proc.confidence_threshold", (6, 14)),
            Axis("selection", ("exact-freq", "all-best-heur")),
        ))
        params = spec.cells()[0].params
        assert params["thresholds"] == {"max_instr": 10}
        assert params["processor"] == {"confidence_threshold": 6}
        assert params["selection"] == "exact-freq"

    @pytest.mark.parametrize("axis", [
        Axis("not_a_threshold", (1,)),
        Axis("proc.not_a_field", (1,)),
        Axis("selection", ("not-a-preset",)),
        # The engine is not cell identity: sweeping it would only split
        # bit-identical cells under distinct IDs.
        Axis("proc.sim_engine", ("scalar", "vectorized")),
    ])
    def test_bad_axes_rejected(self, axis):
        with pytest.raises(ValueError):
            _spec(axes=(axis,))

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis"):
            _spec(axes=(Axis("max_instr", (1,)),
                        Axis("max_instr", (2,))))

    def test_json_round_trip(self, tmp_path):
        spec = _spec()
        path = tmp_path / "spec.json"
        spec.dump(path)
        loaded = CampaignSpec.load(path)
        assert loaded == spec
        assert loaded.spec_hash == spec.spec_hash

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec"):
            CampaignSpec.from_dict({**_spec().as_dict(), "bogus": 1})

    def test_resolve_cell_fn(self):
        assert resolve_cell_fn("tests.test_campaign:fake_cell") \
            is fake_cell
        assert resolve_cell_fn("tests.test_campaign.fake_cell") \
            is fake_cell
        with pytest.raises(ValueError):
            resolve_cell_fn("tests.test_campaign:no_such_cell")


class TestJournal:
    def test_missing_journal_is_empty_state(self, tmp_path):
        state = replay(tmp_path / "journal.jsonl")
        assert state.results == {} and state.records == 0

    def test_replay_folds_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.campaign_start("probe", "abc", 1)
            journal.cell_start("c1", 1)
            journal.cell_finish("c1", 1, 0.5, {"speedup": 0.1})
            journal.cell_start("c2", 1)
            journal.cell_fail("c2", 1, "exception", "boom", 0.1)
            journal.cell_start("c2", 2)
            journal.cell_fail("c2", 2, "timeout", "late", 0.2)
            journal.cell_quarantine("c2", 2)
            journal.cell_start("c3", 1)
        state = replay(path)
        assert state.spec_hash == "abc"
        assert state.results == {"c1": {"speedup": 0.1}}
        assert state.failures == {"c2": 2}
        assert state.last_failure["c2"]["kind"] == "timeout"
        assert state.quarantined == {"c2"}
        assert state.in_flight == {"c3"}
        assert state.sessions == 1

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.cell_start("c1", 1)
            journal.cell_finish("c1", 1, 0.5, {"speedup": 0.1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"cell.finish","cell_id":"c2"')
        state = replay(path)
        assert state.results == {"c1": {"speedup": 0.1}}
        assert state.corrupt_lines == 1

    def test_mixed_spec_hashes_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.campaign_start("probe", "aaa", 1)
            journal.campaign_start("probe", "bbb", 1)
        with pytest.raises(ValueError, match="mixes spec hashes"):
            replay(path)


class TestScheduler:
    def test_happy_path_completes_every_cell(self, tmp_path):
        registry = MetricsRegistry()
        with telemetry(metrics=registry, spans=SpanTree()):
            out = _run(_spec(), tmp_path, jobs=2)
        assert not out["interrupted"]
        assert len(out["results"]) == 4
        assert out["quarantined"] == set()
        assert registry.counter(
            "campaign_cells_completed_total").value == 4
        # Worker-side telemetry snapshots folded into the parent.
        assert registry.counter("fake_cells_total").value == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_drained_journal_leaves_nothing_pending(self, tmp_path, jobs):
        spec = _spec(axes=(Axis("max_instr", (10, 50, 100)),))
        out = _run(spec, tmp_path, jobs=jobs)
        assert len(out["results"]) == len(spec.cells()) == 6
        state = replay(tmp_path / "journal.jsonl")
        assert not state.pending_cells(spec)
        assert len(state.results) == len(spec.cells())

    def test_exception_cells_retry_then_quarantine(self, tmp_path):
        spec = _spec(cell="tests.test_campaign:crashy_cell")
        registry = MetricsRegistry()
        with telemetry(metrics=registry, spans=SpanTree()):
            out = _run(spec, tmp_path, max_attempts=2)
        assert len(out["results"]) == 2          # gzip cells
        assert len(out["quarantined"]) == 2      # twolf cells
        assert registry.counter(
            "campaign_cells_retried_total").value == 2
        assert registry.counter(
            "campaign_cells_quarantined_total").value == 2
        state = replay(tmp_path / "journal.jsonl")
        assert state.quarantined == out["quarantined"]
        for cell_id in out["quarantined"]:
            assert state.failures[cell_id] == 2
            assert state.last_failure[cell_id]["kind"] == "exception"
            assert "synthetic cell failure" \
                in state.last_failure[cell_id]["error"]

    def test_flaky_cells_succeed_on_retry(self, tmp_path, monkeypatch):
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv(_MARKER_ENV, str(markers))
        spec = _spec(cell="tests.test_campaign:flaky_cell")
        out = _run(spec, tmp_path, max_attempts=3)
        assert len(out["results"]) == 4
        assert out["quarantined"] == set()
        state = replay(tmp_path / "journal.jsonl")
        assert all(count == 1 for count in state.failures.values())

    def test_worker_hard_crash_is_isolated(self, tmp_path):
        spec = _spec(cell="tests.test_campaign:hard_crash_cell")
        out = _run(spec, tmp_path, jobs=2, max_attempts=1)
        assert len(out["results"]) == 2
        assert len(out["quarantined"]) == 2
        state = replay(tmp_path / "journal.jsonl")
        for cell_id in out["quarantined"]:
            assert state.last_failure[cell_id]["kind"] == "crash"
            assert "exit code" in state.last_failure[cell_id]["error"]

    def test_timeout_terminates_the_worker(self, tmp_path):
        spec = _spec(cell="tests.test_campaign:sleepy_cell")
        out = _run(spec, tmp_path, jobs=2, max_attempts=1,
                   cell_timeout=0.5)
        assert len(out["results"]) == 2
        assert len(out["quarantined"]) == 2
        state = replay(tmp_path / "journal.jsonl")
        for cell_id in out["quarantined"]:
            assert state.last_failure[cell_id]["kind"] == "timeout"

    def test_interrupted_run_resumes_identically(self, tmp_path):
        spec = _spec()
        first = _run(spec, tmp_path, max_cells=1)
        assert first["interrupted"]
        assert first["session_completed"] == 1
        resumed = _run(spec, tmp_path)
        assert not resumed["interrupted"]

        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        clean = _run(spec, clean_dir)

        assert resumed["results"] == clean["results"]
        assert render_report(spec, resumed["results"]) \
            == render_report(spec, clean["results"])
        # The resumed journal shows two sessions and no re-runs.
        state = replay(tmp_path / "journal.jsonl")
        assert state.sessions == 2
        assert state.records == 2 + 2 * len(spec.cells())

    def test_quarantined_cells_render_as_gaps(self, tmp_path):
        spec = _spec(cell="tests.test_campaign:crashy_cell")
        out = _run(spec, tmp_path, max_attempts=1)
        report = render_report(spec, out["results"],
                               quarantined=out["quarantined"])
        assert "quarantined" in report
        assert "gap" in report
        means, gaps = aggregate_means(spec, out["results"])
        assert means == {}          # every point misses twolf
        assert len(gaps) == 2

    def test_status_names_failing_cells(self, tmp_path):
        spec = _spec(cell="tests.test_campaign:crashy_cell")
        _run(spec, tmp_path, max_attempts=1)
        state = replay(tmp_path / "journal.jsonl")
        status = render_status(spec, state)
        assert "2/4 cells complete" in status
        assert "2 quarantined" in status
        assert "synthetic cell failure" in status


class TestCacheJournaling:
    """Per-cell analysis-cache counters in the journal (status-only)."""

    def test_finish_records_carry_cache_counters(self, tmp_path):
        spec = _spec()          # fake_cell: no analyses, zero counters
        _run(spec, tmp_path)
        state = replay(tmp_path / "journal.jsonl")
        assert set(state.cache) == set(state.results)
        assert all(
            cell == {"analysis_hits": 0, "analysis_misses": 0}
            for cell in state.cache.values()
        )

    def test_status_omits_cache_line_without_lookups(self, tmp_path):
        spec = _spec()
        _run(spec, tmp_path)
        state = replay(tmp_path / "journal.jsonl")
        assert "analysis cache:" not in render_status(spec, state)

    def test_status_summarizes_journaled_counters(self):
        spec = _spec()
        state = replay("/nonexistent")
        for cell in spec.cells():
            state.results[cell.cell_id] = {"speedup": 0.1}
            state.cache[cell.cell_id] = {
                "analysis_hits": 3, "analysis_misses": 1,
            }
        status = render_status(spec, state)
        assert "analysis cache: 12/16 hits (75%) across 4 journaled " \
            "cells" in status

    def test_report_ignores_cache_records(self, tmp_path):
        """``report`` stays deterministic: cache annotations are an
        operational detail and must not leak into it."""
        spec = _spec()
        out = _run(spec, tmp_path)
        report = render_report(spec, out["results"])
        assert "analysis cache" not in report

    def test_cell_finish_without_cache_is_unchanged(self, tmp_path):
        """Direct journal writers (benchmarks, older tools) that pass
        no cache argument produce records without the key."""
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.cell_finish("cell0", 1, 0.5, {"speedup": 0.1})
        record = json.loads(path.read_text())
        assert "cache" not in record
        assert not replay(path).cache


class TestCampaignCLI:
    def _spec_file(self, tmp_path):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(_spec().as_dict()) + "\n")
        return str(path)

    def test_run_status_report_round_trip(self, tmp_path, capsys):
        results = str(tmp_path / "campaigns")
        spec_file = self._spec_file(tmp_path)
        assert repro_main.main(
            ["campaign", "run", spec_file, "--results-dir", results]
        ) == 0
        assert repro_main.main(
            ["campaign", "status", "probe", "--results-dir", results]
        ) == 0
        assert "4/4 cells complete" in capsys.readouterr().out
        assert repro_main.main(
            ["campaign", "report", "probe", "--results-dir", results]
        ) == 0
        assert "Per-cell results" in capsys.readouterr().out

    def test_rerun_requires_resume(self, tmp_path):
        results = str(tmp_path / "campaigns")
        spec_file = self._spec_file(tmp_path)
        repro_main.main(
            ["campaign", "run", spec_file, "--results-dir", results]
        )
        with pytest.raises(SystemExit):
            repro_main.main(
                ["campaign", "run", spec_file, "--results-dir", results]
            )
        # --fresh discards and re-runs.
        assert repro_main.main(
            ["campaign", "run", spec_file, "--results-dir", results,
             "--fresh"]
        ) == 0

    def test_interrupt_resume_reports_identically(self, tmp_path,
                                                  capsys):
        interrupted = str(tmp_path / "interrupted")
        clean = str(tmp_path / "clean")
        spec_file = self._spec_file(tmp_path)
        assert repro_main.main(
            ["campaign", "run", spec_file, "--results-dir", interrupted,
             "--max-cells", "2", "--jobs", "2"]
        ) == 3
        assert repro_main.main(
            ["campaign", "resume", "probe", "--results-dir", interrupted]
        ) == 0
        assert repro_main.main(
            ["campaign", "run", spec_file, "--results-dir", clean]
        ) == 0
        capsys.readouterr()
        repro_main.main(
            ["campaign", "report", "probe", "--results-dir", interrupted]
        )
        resumed_report = capsys.readouterr().out
        repro_main.main(
            ["campaign", "report", "probe", "--results-dir", clean]
        )
        clean_report = capsys.readouterr().out
        assert resumed_report == clean_report

    def test_resume_refuses_spec_mismatch(self, tmp_path):
        results = str(tmp_path / "campaigns")
        spec_file = self._spec_file(tmp_path)
        repro_main.main(
            ["campaign", "run", spec_file, "--results-dir", results]
        )
        spec_path = os.path.join(results, "probe", "spec.json")
        mutated = json.loads(open(spec_path).read())
        mutated["scale"] = 0.5
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(mutated, handle)
        with pytest.raises(SystemExit):
            repro_main.main(
                ["campaign", "resume", "probe", "--results-dir", results]
            )

    def test_unknown_spec_is_an_error(self, tmp_path, capsys):
        assert repro_main.main(
            ["campaign", "run", "no-such-spec",
             "--results-dir", str(tmp_path)]
        ) == 1
        assert "neither a builtin spec" in capsys.readouterr().err


class TestFig7AsCampaign:
    """Fig. 7's sweep expressed as a campaign reproduces its numbers."""

    MI = (10, 50)
    MM = (0.05, 0.60)

    def test_grid_matches_monolithic_driver_exactly(self, tmp_path):
        from repro.experiments import fig7, runner

        spec = fig7.campaign_spec(
            scale=SCALE, benchmarks=BENCH,
            max_instr_values=self.MI, min_merge_prob_values=self.MM,
        )
        out = _run(spec, tmp_path, jobs=2)
        assert len(out["results"]) == len(spec.cells())
        means, gaps = aggregate_means(spec, out["results"])
        assert not gaps

        # The parent-side warm hook builds each benchmark's analysis
        # once; every forked worker then hits the inherited cache, and
        # the journal records the per-cell counters.
        state = replay(tmp_path / "journal.jsonl")
        assert set(state.cache) == set(state.results)
        assert all(cell["analysis_hits"] >= 1
                   for cell in state.cache.values())
        status = render_status(spec, state)
        assert "analysis cache:" in status

        runner.clear_cache()
        reference = fig7.run(
            scale=SCALE, benchmarks=BENCH, max_instr_values=self.MI,
            min_merge_prob_values=self.MM, jobs=1,
        )
        runner.clear_cache()
        campaign_grid = {
            (mi, mm): means[(("max_instr", mi), ("min_merge_prob", mm))]
            for mi in self.MI for mm in self.MM
        }
        assert campaign_grid == reference["grid"]

    def test_report_renders_the_sensitivity_grid(self, tmp_path):
        from repro.experiments import fig7

        spec = fig7.campaign_spec(
            scale=SCALE, benchmarks=BENCH,
            max_instr_values=self.MI, min_merge_prob_values=self.MM,
        )
        out = _run(spec, tmp_path, jobs=2)
        report = render_report(spec, out["results"])
        assert "Sensitivity: mean speedup vs max_instr" \
            " × min_merge_prob" in report
        assert "Best point:" in report


# -- finished simulator runs handed back to the scheduler -------------


def _cell_then(params, finish):
    """Simulate the default cell, then end the attempt via ``finish``."""
    run_cell(params)
    finish()


def crash_after_cell(params):
    _cell_then(params, lambda: os._exit(9))


def sleep_after_cell(params):
    import time

    _cell_then(params, lambda: time.sleep(60))


def raise_after_cell(params):
    def fail():
        raise RuntimeError("synthetic failure after the simulation")

    _cell_then(params, fail)


for _fn in (crash_after_cell, sleep_after_cell, raise_after_cell):
    _fn.prepare = run_cell.prepare
    _fn.adopt = run_cell.adopt


class TestRunSharing:
    """A finished fig7 cell hands its simulator runs back to the
    scheduler, whose run memo then serves later forks: the journal and
    the report are those of a campaign without the hand-off, a failed
    attempt hands over nothing, and the memo stays bounded."""

    @staticmethod
    def _memo_annotations(names=BENCH):
        """benchmark -> the annotation keys of the runs the scheduler's
        memo holds for its trace at the default config."""
        from repro.experiments import runner
        from repro.uarch import ProcessorConfig, vectorized

        held = {}
        for name in names:
            artifacts = runner.get_artifacts(name, scale=SCALE)
            key = vectorized._memo_key(
                vectorized._decode_tables(artifacts.program)[-1],
                vectorized.trace_columns(artifacts.trace),
                ProcessorConfig(),
            )
            entry = vectorized._PREPASS_MEMO.get(key)
            held[name] = (set() if entry is None
                          else {run_key[1] for run_key in entry.runs})
        return held

    @staticmethod
    def _campaign(tmp_path, capsys, jobs):
        """``campaign run fig7`` and its report: ``(journal state,
        report text)``."""
        results = str(tmp_path / f"fig7-jobs{jobs}")
        common = ["--results-dir", results]
        assert repro_main.main(
            ["campaign", "run", "fig7", "--scale", str(SCALE),
             "--benchmarks", ",".join(BENCH), "--jobs", str(jobs)]
            + common) == 0
        capsys.readouterr()
        assert repro_main.main(["campaign", "report", "fig7"] + common) \
            == 0
        report = capsys.readouterr().out
        state = replay(os.path.join(results, "fig7", "journal.jsonl"))
        return state, report

    @staticmethod
    def _distinct_annotations(spec):
        """benchmark -> the run-memo keys of its cells' annotations."""
        from repro.campaign.spec import build_selection
        from repro.core import DivergeSelector
        from repro.experiments import runner
        from repro.uarch.vectorized import _annotation_key

        keys = {name: {None} for name in BENCH}
        for cell in spec.cells():
            artifacts = runner.get_artifacts(cell.benchmark, scale=SCALE)
            selection = build_selection(
                cell.params["selection"], cell.params["thresholds"])
            annotation = DivergeSelector(
                artifacts.program, artifacts.profile, selection).select()
            keys[cell.benchmark].add(_annotation_key(annotation))
        return keys

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig7_journal_and_report_equal_a_run_without_adoption(
            self, tmp_path, capsys, monkeypatch, jobs):
        from repro.experiments import fig7, runner
        from repro.uarch import vectorized

        with monkeypatch.context() as patched:
            patched.delattr(run_cell, "adopt")
            reference = self._campaign(tmp_path / "reference", capsys, 1)
        assert all(held == {None}
                   for held in self._memo_annotations().values())

        runner.clear_cache()
        # A bound below the distinct runs per benchmark (the baseline
        # and four annotations at this scale) evicts while adopting.
        bound = 3 if jobs == 2 else vectorized.RUN_MEMO_RUNS
        monkeypatch.setattr(vectorized, "RUN_MEMO_RUNS", bound)
        state, report = self._campaign(tmp_path, capsys, jobs)
        assert len(state.results) == 40
        assert state.results == reference[0].results
        assert state.ledger == reference[0].ledger
        assert report == reference[1]

        held = self._memo_annotations()
        distinct = self._distinct_annotations(
            fig7.campaign_spec(scale=SCALE, benchmarks=BENCH))
        for name in BENCH:
            assert len(distinct[name]) > 3
            assert held[name] <= distinct[name]
            assert len(held[name]) == min(len(distinct[name]), bound)
        # No run reached the journal.
        journal = (tmp_path / f"fig7-jobs{jobs}" / "fig7"
                   / "journal.jsonl").read_text()
        assert "finished_runs" not in journal

    @pytest.mark.parametrize("cell, kind", [
        ("crash_after_cell", "crash"),
        ("sleep_after_cell", "timeout"),
        ("raise_after_cell", "exception"),
    ])
    def test_failed_attempt_adopts_nothing(self, tmp_path, cell, kind):
        spec = CampaignSpec(
            name="fail-after-run", benchmarks=("gzip",), scale=SCALE,
            selection="exact-freq",
            axes=(Axis("max_instr", (50,)),),
            cell=f"tests.test_campaign:{cell}",
        )
        out = _run(spec, tmp_path, max_attempts=1, cell_timeout=2.0)
        assert len(out["quarantined"]) == 1
        state = replay(tmp_path / "journal.jsonl")
        (failure,) = state.last_failure.values()
        assert failure["kind"] == kind
        # The parent warmed gzip's entry (its baseline run) and adopted
        # no DMP run.
        assert self._memo_annotations(["gzip"]) == {"gzip": {None}}
