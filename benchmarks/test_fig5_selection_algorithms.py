"""Figure 5: DMP improvement with different selection algorithms.

The headline result.  Shape checks (paper §7.1):

- each cumulative heuristic adds performance (monotone means);
- Alg-exact alone is a small fraction of the full benefit;
- Alg-freq is the single largest contributor;
- the cost-benefit model matches the tuned heuristics closely
  (paper: 20.2% vs 20.4%) without requiring threshold tuning;
- cost-edge is at least as good as cost-long.
"""

from repro.experiments import fig5


def test_fig5_selection_algorithms(save_result, scale, suite):
    result = fig5.run(scale=scale, benchmarks=suite)
    save_result("fig5", fig5.format_result(result))
    means = result["means"]

    # Monotone cumulative improvement across the heuristic series.
    heuristic_series = [
        "exact",
        "exact+freq",
        "exact+freq+short",
        "exact+freq+short+ret",
        "all-best-heur",
    ]
    values = [means[s] for s in heuristic_series]
    for earlier, later in zip(values, values[1:]):
        assert later >= earlier - 0.01

    # All techniques together deliver a large gain...
    assert means["all-best-heur"] > 0.10
    # ...and Alg-exact alone only a small fraction of it (paper:
    # 4.5% of 20.4%).
    assert means["exact"] < 0.6 * means["all-best-heur"]
    # Alg-freq is the largest single contributor.
    freq_gain = means["exact+freq"] - means["exact"]
    assert freq_gain > 0.02

    # The cost model needs no threshold tuning yet performs on par
    # with the best heuristics (within a few points).
    assert means["all-best-cost"] > 0.7 * means["all-best-heur"]
    assert means["cost-edge"] >= means["cost-long"] - 0.02
