"""Figure 8: simple selection baselines vs the proposed algorithms.

Shape checks (paper §7.2): All-best-heur beats every simple baseline
on average; Random-50 trails the informed simple baselines; If-else
(simple hammocks only) captures only part of the simple-baseline
benefit on non-hammock-dominated codes.
"""

from repro.experiments import fig8


def test_fig8_simple_algorithms(save_result, scale, suite):
    result = fig8.run(scale=scale, benchmarks=suite)
    save_result("fig8", fig8.format_result(result))
    means = result["means"]

    # The proposed algorithms beat every simple baseline on average.
    for label in ("every-br", "random-50", "high-bp-5", "immediate",
                  "if-else"):
        assert means["all-best-heur"] >= means[label] - 0.01, label

    # Random halves of the branch set trail informed selection.
    assert means["random-50"] <= means["every-br"] + 0.01
    assert means["random-50"] <= means["all-best-heur"]

    # The simple-hammock-dominated benchmarks are where If-else does
    # comparatively well (paper: eon/perlbmk/li).
    per = result["speedups"]
    if "li" in result["benchmarks"]:
        assert per["if-else"]["li"] > 0.5 * per["all-best-heur"]["li"]
