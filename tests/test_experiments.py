"""Tests for the experiment harnesses (tiny scales, few benchmarks)."""

import pytest

from repro.experiments import (
    clear_cache,
    geometric_mean_speedup,
    get_artifacts,
    mean_speedup,
    named_config,
    run_baseline,
    run_selection,
)
from repro.experiments import (
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table1,
    table2,
)

SCALE = 0.15
BENCH = ["gzip", "twolf"]


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    # keep memory bounded across this module
    yield
    clear_cache()


class TestRunner:
    def test_artifacts_cached(self):
        a = get_artifacts("gzip", scale=SCALE)
        b = get_artifacts("gzip", scale=SCALE)
        assert a is b
        assert a.trace and a.profile.total_instructions > 0

    def test_baseline_cached(self, monkeypatch):
        """A repeat baseline is a run-memo hit with equal stats."""
        from repro.uarch import VectorizedTimingSimulator
        from repro.uarch.engine import ENV_SIM_ENGINE

        monkeypatch.delenv(ENV_SIM_ENGINE, raising=False)
        a = run_baseline("gzip", scale=SCALE)

        def no_replay(*args, **kwargs):
            raise AssertionError("a repeat baseline replayed")

        monkeypatch.setattr(VectorizedTimingSimulator, "_replay",
                            no_replay)
        b = run_baseline("gzip", scale=SCALE)
        assert a is not b
        assert a == b

    def test_run_selection_returns_stats_and_annotation(self):
        stats, annotation = run_selection(
            "gzip", named_config("exact+freq"), scale=SCALE
        )
        assert stats.retired_instructions > 0
        assert len(annotation) >= 0

    def test_profile_input_set_can_differ(self):
        same, _ = run_selection(
            "gzip", named_config("all-best-heur"), scale=SCALE
        )
        diff, _ = run_selection(
            "gzip",
            named_config("all-best-heur"),
            scale=SCALE,
            profile_input_set="train",
        )
        # same run input → identical baseline trace length
        assert same.retired_instructions == diff.retired_instructions

    def test_means(self):
        assert mean_speedup([0.1, 0.3]) == pytest.approx(0.2)
        assert geometric_mean_speedup([0.1, 0.1]) == pytest.approx(0.1)
        assert mean_speedup([]) == 0.0

    def test_named_config_errors(self):
        with pytest.raises(KeyError):
            named_config("alg-psychic")


class TestTables:
    def test_table1_rows(self):
        result = table1.run()
        text = table1.format_result(result)
        assert "perceptron" in text
        assert "512-entry reorder buffer" in text

    def test_table2_columns(self):
        result = table2.run(scale=SCALE, benchmarks=BENCH)
        assert len(result["rows"]) == 2
        row = result["rows"][0]
        assert set(row) >= {
            "benchmark",
            "base_ipc",
            "mpki",
            "insts",
            "static_branches",
            "diverge_branches",
            "avg_cfm",
        }
        text = table2.format_result(result)
        assert "gzip" in text


class TestFigures:
    def test_fig5_speedups_and_means(self):
        result = fig5.run(scale=SCALE, benchmarks=BENCH, side="left")
        assert result["series"][0] == "exact"
        assert "all-best-heur" in result["series"]
        for series in result["series"]:
            assert set(result["speedups"][series]) == set(BENCH)
        assert "MEAN" in fig5.format_result(result)

    def test_fig5_cost_side(self):
        result = fig5.run(scale=SCALE, benchmarks=["twolf"], side="right")
        assert "cost-edge" in result["series"]

    def test_fig6_flushes_decrease(self):
        result = fig6.run(scale=SCALE, benchmarks=BENCH)
        means = result["means"]
        assert means["all-best-heur"] <= means["baseline"]

    def test_fig7_grid(self):
        result = fig7.run(
            scale=SCALE,
            benchmarks=["twolf"],
            max_instr_values=(10, 50),
            min_merge_prob_values=(0.01,),
        )
        assert set(result["grid"]) == {(10, 0.01), (50, 0.01)}
        assert "Best point" in fig7.format_result(result)

    def test_fig8_all_algorithms_present(self):
        result = fig8.run(scale=SCALE, benchmarks=["twolf"])
        assert set(result["series"]) == {
            "every-br",
            "random-50",
            "high-bp-5",
            "immediate",
            "if-else",
            "all-best-heur",
        }

    def test_fig9_same_vs_diff(self):
        result = fig9.run(scale=SCALE, benchmarks=["twolf"])
        assert "all-best-heur-same" in result["means"]
        assert "all-best-heur-diff" in result["means"]

    def test_fig10_fractions_sum_to_one(self):
        result = fig10.run(scale=SCALE, benchmarks=BENCH)
        for row in result["rows"]:
            total = row["only_run"] + row["only_train"] + row["either"]
            assert total == pytest.approx(1.0)
