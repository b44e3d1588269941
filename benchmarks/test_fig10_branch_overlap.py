"""Figure 10: diverge-branch selection overlap across profiling inputs.

Shape check (paper §7.3): weighted by dynamic executions, the large
majority of diverge branches are selected with either profiling input
(paper: more than 74% in every benchmark).
"""

from repro.experiments import fig10


def test_fig10_selection_overlap(save_result, scale, suite):
    result = fig10.run(scale=scale, benchmarks=suite)
    save_result("fig10", fig10.format_result(result))

    eithers = [row["either"] for row in result["rows"]]
    # strong overlap everywhere...
    assert min(eithers) > 0.6
    # ...and overwhelming overlap on average.
    assert sum(eithers) / len(eithers) > 0.8
    for row in result["rows"]:
        assert row["num_run"] > 0 and row["num_train"] > 0
