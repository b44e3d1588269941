"""Figure 7: MAX_INSTR × MIN_MERGE_PROB threshold sweep.

Shape checks (paper §7.1.1): a too-small MAX_INSTR (10) forfeits most
of the benefit; MAX_INSTR=50 with a small MIN_MERGE_PROB is at or near
the best; very high merge-probability-only selection retains most of
the benefit (the high-merge candidates carry it).
"""

from repro.experiments import fig7


def test_fig7_threshold_sweep(save_result, scale, suite):
    result = fig7.run(
        scale=scale, benchmarks=suite,
        max_instr_values=(10, 50, 100, 200),
        min_merge_prob_values=(0.01, 0.30, 0.90),
    )
    save_result("fig7", fig7.format_result(result))
    grid = result["grid"]

    best = max(grid.values())
    # MAX_INSTR=10 is far from the best (misses most hammocks).
    assert grid[(10, 0.01)] < best - 0.01
    # MAX_INSTR=50 with small MIN_MERGE_PROB is close to the best.
    assert grid[(50, 0.01)] > 0.7 * best
    # High-merge-probability candidates carry most of the benefit.
    assert grid[(50, 0.90)] > 0.5 * grid[(50, 0.01)]
