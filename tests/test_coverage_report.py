"""Tests for per-branch stats collection and the coverage report."""

import pytest

from repro.core import SelectionConfig
from repro.experiments import coverage
from repro.experiments.runner import get_artifacts
from repro.uarch import make_simulator


class TestPerBranchStats:
    def test_disabled_by_default(self):
        artifacts = get_artifacts("li", scale=0.15)
        stats = make_simulator(artifacts.program).run(artifacts.trace)
        assert stats.per_branch == {}

    def test_counters_consistent_with_aggregates(self):
        artifacts = get_artifacts("li", scale=0.15)
        simulator = make_simulator(
            artifacts.program, collect_per_branch=True
        )
        stats = simulator.run(artifacts.trace)
        per = stats.per_branch
        assert sum(c["executions"] for c in per.values()) == \
            stats.conditional_branches
        assert sum(c["mispredictions"] for c in per.values()) == \
            stats.mispredictions
        assert sum(c["flushes"] for c in per.values()) == \
            stats.pipeline_flushes

    def test_dmp_counters(self):
        from repro.core import select_diverge_branches

        artifacts = get_artifacts("li", scale=0.15)
        annotation = select_diverge_branches(
            artifacts.program,
            artifacts.profile,
            SelectionConfig.all_best_heur(),
        )
        simulator = make_simulator(
            artifacts.program,
            annotation=annotation,
            collect_per_branch=True,
        )
        stats = simulator.run(artifacts.trace)
        per = stats.per_branch
        assert sum(c["episodes"] for c in per.values()) == \
            stats.dpred_episodes
        assert sum(c["flushes_avoided"] for c in per.values()) == \
            stats.dpred_flushes_avoided
        # avoided + taken flushes cannot exceed mispredictions
        for counters in per.values():
            assert (
                counters["flushes_avoided"] + counters["flushes"]
                <= counters["mispredictions"] + 1
            )


class TestCoverageReport:
    def test_report_structure(self):
        result = coverage.run("li", scale=0.15, top=5)
        assert result["benchmark"] == "li"
        assert len(result["rows"]) <= 5
        assert 0.0 <= result["coverage"] <= 1.0
        for row in result["rows"]:
            assert 0.0 <= row["coverage"] <= 1.0

    def test_report_renders(self):
        result = coverage.run("li", scale=0.15, top=5)
        text = coverage.format_result(result)
        assert "Misprediction coverage" in text
        assert "Total:" in text

    def test_marked_branches_have_coverage(self):
        result = coverage.run("twolf", scale=0.2, top=20)
        marked = [r for r in result["rows"]
                  if r["marked"] != "-" and r["mispredictions"] > 3]
        unmarked = [r for r in result["rows"] if r["marked"] == "-"]
        # some marked branch covers most of its mispredictions...
        assert marked and max(r["coverage"] for r in marked) > 0.5
        # ...and unmarked branches cover none
        assert all(r["coverage"] == 0.0 for r in unmarked)
