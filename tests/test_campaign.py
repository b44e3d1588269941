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


# -- cells run in reused forked workers -------------------------------


def pid_cell(params):
    """``fake_cell`` plus the pid of the worker that ran it."""
    return {**fake_cell(params), "pid": os.getpid()}


def slow_pid_cell(params):
    import time

    time.sleep(0.2)
    return pid_cell(params)


def _fail_first_attempt(params, fail):
    """``pid_cell``, but twolf's first attempt notes its pid in the
    marker directory and then ends through ``fail``."""
    marker = os.path.join(os.environ[_MARKER_ENV], content_hash(params))
    if params["benchmark"] == "twolf" and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        fail()
    return pid_cell(params)


def crash_once_cell(params):
    return _fail_first_attempt(params, lambda: os._exit(9))


def sleep_once_cell(params):
    import time

    return _fail_first_attempt(params, lambda: time.sleep(60))


def raise_once_cell(params):
    def fail():
        raise RuntimeError("synthetic first-attempt failure")

    return _fail_first_attempt(params, fail)


def heavy_then_light_cell(params):
    """Burns ~0.3 s of CPU at max_instr 10, none at max_instr 50."""
    import time

    if params["thresholds"]["max_instr"] == 10:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
    return pid_cell(params)


class TestWorkerReuse:
    """Workers live across cells: ``--jobs N`` forks at most N of them
    while nothing fails, a failed attempt's retry runs in a fresh
    process, no worker outlives :meth:`Scheduler.run`, and each cell
    still simulates its baseline and its DMP run."""

    @staticmethod
    def _pids(out):
        return [result["pid"] for result in out["results"].values()]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_jobs_bound_the_workers(self, tmp_path, jobs):
        spec = _spec(cell="tests.test_campaign:pid_cell",
                     axes=(Axis("max_instr", (10, 20, 50)),))
        out = _run(spec, tmp_path, jobs=jobs)
        pids = self._pids(out)
        assert len(pids) == 6
        assert os.getpid() not in pids
        if jobs == 1:
            assert len(set(pids)) == 1
        else:
            assert len(set(pids)) <= 2

    @pytest.mark.parametrize("cell, kind", [
        ("crash_once_cell", "crash"),
        ("sleep_once_cell", "timeout"),
        ("raise_once_cell", "exception"),
    ])
    def test_retry_runs_in_a_new_worker(self, tmp_path, monkeypatch,
                                        cell, kind):
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv(_MARKER_ENV, str(markers))
        spec = _spec(cell=f"tests.test_campaign:{cell}",
                     benchmarks=("gzip", "twolf", "vpr"),
                     axes=(Axis("max_instr", (10,)),))
        out = _run(spec, tmp_path, cell_timeout=2.0)
        assert len(out["results"]) == 3
        assert not out["quarantined"]
        state = replay(tmp_path / "journal.jsonl")
        (failure,) = state.last_failure.values()
        assert failure["kind"] == kind
        by_benchmark = {cell.benchmark: out["results"][cell.cell_id]
                        for cell in spec.cells()}
        (marker,) = markers.iterdir()
        failed_pid = int(marker.read_text())
        # gzip's worker took twolf's first attempt and was retired.
        assert by_benchmark["gzip"]["pid"] == failed_pid
        assert by_benchmark["twolf"]["pid"] != failed_pid
        assert by_benchmark["vpr"]["pid"] != failed_pid

    @pytest.mark.parametrize("stop", ["drained", "max_cells",
                                      "interrupt"])
    def test_no_worker_outlives_the_run(self, tmp_path, monkeypatch,
                                        stop):
        import multiprocessing

        before = set(multiprocessing.active_children())
        spec = _spec(cell="tests.test_campaign:slow_pid_cell",
                     axes=(Axis("max_instr", (10, 20, 50)),))
        if stop == "interrupt":
            def interrupt(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(Journal, "cell_finish", interrupt)
            with pytest.raises(KeyboardInterrupt):
                _run(spec, tmp_path, jobs=2)
        else:
            max_cells = 3 if stop == "max_cells" else None
            out = _run(spec, tmp_path, jobs=2, max_cells=max_cells)
            assert out["interrupted"] == (stop == "max_cells")
        assert set(multiprocessing.active_children()) <= before

    def test_resources_are_per_attempt(self, tmp_path):
        spec = _spec(cell="tests.test_campaign:heavy_then_light_cell",
                     benchmarks=("gzip",))
        out = _run(spec, tmp_path)
        heavy, light = spec.cells()
        assert out["results"][heavy.cell_id]["pid"] \
            == out["results"][light.cell_id]["pid"]
        usage = replay(tmp_path / "journal.jsonl").resources
        cpu = {cell_id: entry["user_seconds"] + entry["system_seconds"]
               for cell_id, entry in usage.items()}
        assert cpu[heavy.cell_id] >= 0.25
        assert cpu[light.cell_id] < 0.1
        # RSS is the worker's high-water mark: it never drops.
        assert usage[light.cell_id]["max_rss_kb"] \
            >= usage[heavy.cell_id]["max_rss_kb"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig7_cells_equal_in_process_runs(self, tmp_path, capsys,
                                              monkeypatch, jobs):
        """Each journalled result, ledger and the report equal those of
        the cells run in this process, and every cell calls the
        simulator twice: a warm worker still runs each cell's baseline
        (a run-memo hit), so counts do not depend on the worker."""
        from repro.experiments import fig7, runner
        from repro.obs.context import get_metrics
        from repro.uarch import TimingSimulator, VectorizedTimingSimulator

        for cls in (TimingSimulator, VectorizedTimingSimulator):
            def counted(self, *args, _run=cls.run, **kwargs):
                get_metrics().counter("test_sim_run_calls_total").inc()
                return _run(self, *args, **kwargs)

            monkeypatch.setattr(cls, "run", counted)
        runner.clear_cache()    # workers fork from a cold parent
        registry = MetricsRegistry()
        results = str(tmp_path / "results")
        common = ["--results-dir", results]
        with telemetry(metrics=registry, spans=SpanTree()):
            assert repro_main.main(
                ["campaign", "run", "fig7", "--scale", str(SCALE),
                 "--benchmarks", ",".join(BENCH), "--jobs", str(jobs)]
                + common) == 0
        capsys.readouterr()
        assert registry.counter("test_sim_run_calls_total").value \
            == 2 * 40
        state = replay(os.path.join(results, "fig7", "journal.jsonl"))
        assert len(state.results) == 40
        assert repro_main.main(["campaign", "report", "fig7"] + common) \
            == 0
        report = capsys.readouterr().out

        spec = fig7.campaign_spec(scale=SCALE, benchmarks=BENCH)
        expected, ledgers = {}, {}
        for cell in spec.cells():
            result = run_cell(cell.params)
            ledgers[cell.cell_id] = result.pop("ledger")
            expected[cell.cell_id] = json.loads(json.dumps(result))
        assert state.results == expected
        assert state.ledger == ledgers
        assert report == render_report(spec, expected) + "\n"
