"""Tests for extensions beyond the paper's core: the §8.3 easy-branch
filter, the CLI entry point, and the ablation harness."""

import pytest

from repro.core import SelectionConfig, select_diverge_branches
from repro.experiments import ablations
from repro.profiling import Profiler
from repro.workloads import load_benchmark
from repro import __main__ as cli


@pytest.fixture(scope="module")
def artifacts():
    workload = load_benchmark("gap", scale=0.2)
    profile = Profiler().profile(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
    )
    return workload.program, profile


class TestEasyBranchFilter:
    def test_floor_shrinks_selection(self, artifacts):
        program, profile = artifacts
        loose = select_diverge_branches(
            program, profile, SelectionConfig()
        )
        strict = select_diverge_branches(
            program, profile, SelectionConfig(min_misp_rate=0.05)
        )
        assert len(strict) <= len(loose)

    def test_survivors_exceed_floor(self, artifacts):
        program, profile = artifacts
        floor = 0.05
        annotation = select_diverge_branches(
            program,
            profile,
            SelectionConfig(min_misp_rate=floor),
        )
        for branch in annotation:
            rate = profile.branch_profile.misprediction_rate(
                branch.branch_pc
            )
            assert rate >= floor

    def test_zero_floor_is_identity(self, artifacts):
        program, profile = artifacts
        a = select_diverge_branches(
            program, profile, SelectionConfig(min_misp_rate=0.0)
        )
        b = select_diverge_branches(program, profile, SelectionConfig())
        assert {x.branch_pc for x in a} == {x.branch_pc for x in b}


class TestAblationHarness:
    def test_acc_conf_sweep(self):
        result = ablations.run_acc_conf(
            scale=0.15, benchmarks=["twolf"], values=(0.2, 0.4)
        )
        assert set(result["means"]) == {"acc=0.20", "acc=0.40"}
        assert "Ablation" in ablations.format_result(result)

    def test_max_cfm_sweep(self):
        result = ablations.run_max_cfm(
            scale=0.15, benchmarks=["twolf"], values=(1, 3)
        )
        assert len(result["means"]) == 2

    def test_easy_filter_sweep(self):
        result = ablations.run_easy_branch_filter(
            scale=0.15, benchmarks=["twolf"], floors=(0.0, 0.05)
        )
        assert len(result["means"]) == 2


class TestCLI:
    def test_table1(self, capsys):
        assert cli.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_figure_with_subset(self, capsys):
        assert cli.main(
            ["fig10", "--scale", "0.15", "--benchmarks", "twolf"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "twolf" in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    @pytest.mark.parametrize("jobs,prefix", [
        ("1", ""), ("2", "job 'fig5:gzip' failed: "),
    ], ids=["jobs1", "jobs2"])
    def test_repro_error_fails_with_one_line(self, capfd, jobs, prefix):
        """A :class:`~repro.errors.ReproError` out of a figure driver
        (a bad ``--scale``, raised in a cell, inline or in a worker
        process) is one error line and exit 2, never a traceback."""
        assert cli.main(["fig5", "--scale", "-1", "--benchmarks",
                         "gzip,mcf", "--jobs", jobs]) == 2
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [
            f"python -m repro: error: {prefix}scale must be a finite "
            "number above zero, got -1.0"
        ]
        assert "Traceback" not in captured.out


class TestCLICoverage:
    def test_coverage_artifact(self, capsys):
        assert cli.main(
            ["coverage", "--scale", "0.15", "--benchmarks", "li"]
        ) == 0
        out = capsys.readouterr().out
        assert "Misprediction coverage" in out

    def test_chart_flag(self, capsys):
        assert cli.main(
            ["fig10", "--scale", "0.15", "--benchmarks", "li", "--chart"]
        ) == 0


class TestPerAppAccConf:
    def test_measured_acc_conf_changes_selection_params(self, artifacts):
        from dataclasses import replace

        from repro.core import DivergeSelector

        program, profile = artifacts
        fixed = SelectionConfig.all_best_cost()
        per_app = replace(fixed, per_app_acc_conf=True)
        a = DivergeSelector(program, profile, fixed).select()
        b = DivergeSelector(program, profile, per_app).select()
        # both produce valid annotations; with gap's low measured
        # Acc_Conf the per-app model is more conservative
        assert len(b) <= len(a)

    def test_zero_measured_accuracy_falls_back(self, artifacts):
        from dataclasses import replace

        from repro.core import DivergeSelector

        program, profile = artifacts
        profile_copy = profile
        saved = profile_copy.measured_acc_conf
        try:
            profile_copy.measured_acc_conf = 0.0
            per_app = replace(
                SelectionConfig.all_best_cost(), per_app_acc_conf=True
            )
            annotation = DivergeSelector(
                program, profile_copy, per_app
            ).select()
            assert annotation is not None
        finally:
            profile_copy.measured_acc_conf = saved
