"""Ablation benchmarks for DESIGN.md's design choices.

These are not paper figures; they probe the knobs the paper discusses
in footnotes and future work:

- Acc_Conf stability (footnote 5): the cost model should not be very
  sensitive over 20-50%.
- MAX_CFM (§3.3): three CFM points suffice; one already captures most
  of the benefit on these CFGs.
- JRS threshold: a near-saturated threshold (14-15) covers the most
  mispredictions; a low threshold forfeits coverage.
- Easy-branch filter (§8.3 future work): excluding always-easy
  branches should not hurt the suite average.
"""

from repro.experiments import ablations


def test_acc_conf_stability(save_result, scale, suite):
    result = ablations.run_acc_conf(
        scale=scale, benchmarks=suite, values=(0.20, 0.40, 0.50),
    )
    save_result("ablation_acc_conf", ablations.format_result(result))
    means = result["means"]
    spread = max(means.values()) - min(means.values())
    # "not sensitive to reasonable variations in Acc_Conf (20%-50%)"
    assert spread < 0.10


def test_max_cfm(save_result, scale, suite):
    result = ablations.run_max_cfm(
        scale=scale, benchmarks=suite, values=(1, 3),
    )
    save_result("ablation_max_cfm", ablations.format_result(result))
    means = result["means"]
    # three CFM points never hurt, and one already carries most benefit
    assert means["max_cfm=3"] >= means["max_cfm=1"] - 0.02
    assert means["max_cfm=1"] > 0.5 * means["max_cfm=3"]


def test_confidence_threshold(save_result, scale, suite):
    result = ablations.run_confidence_threshold(
        scale=scale, benchmarks=suite, values=(6, 14),
    )
    save_result(
        "ablation_confidence", ablations.format_result(result)
    )
    means = result["means"]
    # the saturated gate (14) covers more mispredictions than a lax one
    assert means["threshold=14"] >= means["threshold=6"] - 0.02


def test_easy_branch_filter(save_result, scale, suite):
    result = ablations.run_easy_branch_filter(
        scale=scale, benchmarks=suite, floors=(0.0, 0.03),
    )
    save_result(
        "ablation_easy_filter", ablations.format_result(result)
    )
    means = result["means"]
    # filtering always-easy branches does not cost the suite average
    assert means["min_misp=0.03"] >= means["min_misp=0.00"] - 0.02


def test_predictor_sensitivity(save_result, scale, suite):
    result = ablations.run_predictor_sensitivity(
        scale=scale, benchmarks=suite, kinds=("bimodal", "perceptron"),
    )
    save_result(
        "ablation_predictor", ablations.format_result(result)
    )
    means = result["means"]
    # DMP keeps a clear benefit under both a weak and a strong predictor
    assert means["predictor=bimodal"] > 0.03
    assert means["predictor=perceptron"] > 0.03
