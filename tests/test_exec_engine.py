"""The parallel experiment engine: plan-order gathering, telemetry
merging, and bit-identical serial-vs-parallel experiment outputs."""

import pytest

from repro.exec import Job, JobError, default_jobs, execute, \
    execute_starmap, resolve_jobs
from repro.experiments import (
    ablations,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    priorwork,
    runner,
    table2,
)
from repro.experiments.coverage import run_many as coverage_run_many
from repro.obs import MetricsRegistry, SpanTree, telemetry
from repro.uarch import ProcessorConfig

SCALE = 0.1
BENCH = ["gzip", "twolf"]


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"job {x} failed")


def _count_one(tag):
    from repro.obs.context import get_metrics, get_spans

    get_metrics().counter("probe_cells_total").inc()
    get_metrics().gauge("probe_last_tag").set(tag)
    get_spans().add({"path": "probe", "seconds": 0.25, "events": 10})
    return tag


class TestEngineBasics:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_results_in_plan_order(self):
        jobs = [Job(_square, i) for i in range(8)]
        assert execute(jobs, jobs=1) == [i * i for i in range(8)]
        assert execute(jobs, jobs=4) == [i * i for i in range(8)]

    def test_starmap_matches_execute(self):
        args = [(i,) for i in range(5)]
        assert execute_starmap(_square, args, jobs=3) \
            == execute_starmap(_square, args, jobs=1)

    def test_single_job_runs_inline(self):
        # One job never pays pool overhead, whatever ``jobs`` says.
        assert execute([Job(_square, 7)], jobs=8) == [49]

    def test_failing_job_raises_in_parent(self):
        with pytest.raises(RuntimeError, match="job 3 failed"):
            execute([Job(_square, 1), Job(_boom, 3)], jobs=2)
        with pytest.raises(RuntimeError, match="job 3 failed"):
            execute([Job(_square, 1), Job(_boom, 3)], jobs=1)

    def test_pool_failure_carries_the_job_label(self):
        with pytest.raises(JobError) as excinfo:
            execute(
                [Job(_square, 1), Job(_boom, 3, label="cell:gzip")],
                jobs=2,
            )
        assert excinfo.value.label == "cell:gzip"
        assert "cell:gzip" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_job_label(self):
        assert Job(_square, 1).label == "_square"
        assert Job(_square, 1, label="cell").label == "cell"


class TestTelemetryMerging:
    def test_worker_counters_fold_into_parent(self):
        registry = MetricsRegistry()
        tree = SpanTree()
        with telemetry(metrics=registry, spans=tree):
            execute([Job(_count_one, i) for i in range(5)], jobs=3)
        assert registry.counter("probe_cells_total").value == 5
        assert tree.as_dict()["probe"]["seconds"] == pytest.approx(5 * 0.25)
        snapshot = tree.by_name()["probe"]
        assert snapshot["calls"] == 5
        assert snapshot["events"] == 50

    def test_gauges_take_last_job_value(self):
        # Same last-write-wins outcome as the serial path.
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            execute([Job(_count_one, i) for i in range(5)], jobs=3)
        assert registry.gauge("probe_last_tag").value == 4

    def test_failed_plan_merges_no_worker_telemetry(self):
        # All-or-nothing: a mid-plan failure must not leave the parent
        # registry with a half-gathered snapshot set.
        registry = MetricsRegistry()
        tree = SpanTree()
        with telemetry(metrics=registry, spans=tree):
            with pytest.raises(JobError):
                execute(
                    [Job(_count_one, 0), Job(_count_one, 1),
                     Job(_boom, 2), Job(_count_one, 3)],
                    jobs=2,
                )
        assert registry.get("probe_cells_total") is None
        assert "probe" not in tree.as_dict()

    def test_parallel_metrics_match_serial(self):
        from repro.exec import artifact_cache

        # Disable the disk layer so both runs do the same cold work.
        artifact_cache.set_disabled(True)
        try:
            serial = MetricsRegistry()
            with telemetry(metrics=serial, spans=SpanTree()):
                runner.clear_cache()
                fig6.run(scale=SCALE, benchmarks=BENCH, jobs=1)
            parallel = MetricsRegistry()
            with telemetry(metrics=parallel, spans=SpanTree()):
                runner.clear_cache()
                fig6.run(scale=SCALE, benchmarks=BENCH, jobs=2)
            runner.clear_cache()
        finally:
            artifact_cache.set_disabled(None)
        for name in ("sim_runs_total", "sim_instructions_total",
                     "sim_pipeline_flushes_total", "emulator_runs_total"):
            assert serial.counter(name).value \
                == parallel.counter(name).value, name


class TestDriverDeterminism:
    """Every driver is bit-identical at jobs=1 vs jobs=4."""

    def _compare(self, module, **kwargs):
        runner.clear_cache()
        serial = module.run(scale=SCALE, benchmarks=BENCH, jobs=1,
                            **kwargs)
        runner.clear_cache()
        parallel = module.run(scale=SCALE, benchmarks=BENCH, jobs=4,
                              **kwargs)
        runner.clear_cache()
        assert serial == parallel
        assert module.format_result(serial) \
            == module.format_result(parallel)

    def test_fig5(self):
        self._compare(fig5)

    def test_fig6(self):
        self._compare(fig6)

    def test_fig7(self):
        self._compare(fig7, max_instr_values=(10, 50),
                      min_merge_prob_values=(0.05, 0.60))

    def test_fig8(self):
        self._compare(fig8)

    def test_fig9(self):
        self._compare(fig9)

    def test_fig10(self):
        self._compare(fig10)

    def test_table2(self):
        self._compare(table2)

    def test_priorwork(self):
        self._compare(priorwork)

    def test_ablation_sweep(self):
        runner.clear_cache()
        serial = ablations.run_max_cfm(
            scale=SCALE, benchmarks=BENCH, values=(1, 3), jobs=1
        )
        runner.clear_cache()
        parallel = ablations.run_max_cfm(
            scale=SCALE, benchmarks=BENCH, values=(1, 3), jobs=4
        )
        runner.clear_cache()
        assert serial == parallel

    def test_coverage(self):
        runner.clear_cache()
        serial = coverage_run_many(BENCH, scale=SCALE, jobs=1)
        runner.clear_cache()
        parallel = coverage_run_many(BENCH, scale=SCALE, jobs=2)
        runner.clear_cache()
        assert [r["rows"] for r in serial] == [r["rows"] for r in parallel]
        assert [r["coverage"] for r in serial] \
            == [r["coverage"] for r in parallel]


class TestBaselineConfigKey:
    def test_equal_configs_share_a_cache_entry(self, monkeypatch):
        """Equal configs built apart share one run-memo entry: the
        second baseline is a hit, with equal stats."""
        from repro.uarch import VectorizedTimingSimulator

        runner.clear_cache()
        first = runner.run_baseline(
            "gzip", scale=SCALE, config=ProcessorConfig(rob_size=128)
        )

        def no_replay(*args, **kwargs):
            raise AssertionError("an equal config replayed")

        monkeypatch.setattr(VectorizedTimingSimulator, "_replay",
                            no_replay)
        second = runner.run_baseline(
            "gzip", scale=SCALE, config=ProcessorConfig(rob_size=128)
        )
        assert first == second
        runner.clear_cache()

    def test_different_configs_do_not_alias(self):
        runner.clear_cache()
        small = runner.run_baseline(
            "gzip", scale=SCALE, config=ProcessorConfig(rob_size=128)
        )
        large = runner.run_baseline(
            "gzip", scale=SCALE, config=ProcessorConfig(rob_size=512)
        )
        assert small is not large
        assert small.cycles != large.cycles
        runner.clear_cache()
