"""Figure 6: pipeline flushes in the baseline and DMP.

Shape checks: each added selection technique removes more flushes, and
the full configuration removes a substantial fraction of the
baseline's.
"""

from repro.experiments import fig6


def test_fig6_pipeline_flushes(save_result, scale, suite):
    result = fig6.run(scale=scale, benchmarks=suite)
    save_result("fig6", fig6.format_result(result))
    means = result["means"]

    series = [
        "baseline",
        "exact",
        "exact+freq",
        "exact+freq+short",
        "exact+freq+short+ret",
        "all-best-heur",
    ]
    values = [means[s] for s in series]
    # flushes decrease (weakly) as techniques are added
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 0.15
    # the full configuration removes a sizable share of baseline flushes
    assert means["all-best-heur"] < 0.85 * means["baseline"]
    # DMP never removes *all* flushes (uncoverable mispredictions remain)
    assert means["all-best-heur"] > 0.0
