"""Figure 9: DMP improvement with a different profiling input set.

Shape checks (paper §7.3): profiling on the train input instead of the
run input loses only a small amount of the improvement (paper: 0.5
points of 20.4), for both the heuristic and the cost-model compilers.
"""

from repro.experiments import fig9


def test_fig9_input_set_sensitivity(save_result, scale, suite):
    result = fig9.run(scale=scale, benchmarks=suite)
    save_result("fig9", fig9.format_result(result))
    means = result["means"]

    same = means["all-best-heur-same"]
    diff = means["all-best-heur-diff"]
    assert same > 0.05                      # DMP still clearly wins
    assert diff > 0.05
    # The gap is small in absolute terms and relative to the benefit.
    assert abs(same - diff) < 0.05
    assert diff > 0.6 * same

    cost_same = means["all-best-cost-same"]
    cost_diff = means["all-best-cost-diff"]
    assert abs(cost_same - cost_diff) < 0.05
