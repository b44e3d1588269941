"""Prior-work comparison bench: dual-path < dynamic-hammock < DMP.

Quantifies the paper's positioning (§2, §8.1): DMP generalizes
dynamic hammock predication, which in turn beats raw dual-path
execution.  The gap between dynamic-hammock and DMP is the value of
compiler-identified CFM points on complex control flow.
"""

from repro.experiments import priorwork


def test_priorwork_progression(save_result, scale, suite):
    result = priorwork.run(scale=scale, benchmarks=suite)
    save_result("priorwork", priorwork.format_result(result))
    means = result["means"]
    assert means["dual-path"] < means["dynamic-hammock"]
    assert means["dynamic-hammock"] < means["dmp-all-best"]
    # the DMP-over-hammock gap is the headline of the paper
    assert means["dmp-all-best"] - means["dynamic-hammock"] > 0.03
