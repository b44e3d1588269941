"""Table 1: machine configuration (regeneration + fidelity checks)."""

from repro.experiments import table1


def test_table1_configuration(save_result):
    result = table1.run()
    text = table1.format_result(result)
    save_result("table1", text)
    cfg = result["config"]
    # Table 1 headline values
    assert cfg.fetch_width == 8
    assert cfg.rob_size == 512
    assert cfg.min_misprediction_penalty >= 25
    assert cfg.num_cfm_registers == 3
