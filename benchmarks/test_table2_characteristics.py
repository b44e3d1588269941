"""Table 2: benchmark characteristics.

Shape checks against the paper's Table 2: the MPKI *ordering* has go
at the top and vortex/gap near the bottom, baseline IPCs span roughly
0.4-3.5, and every benchmark has diverge branches with ~1 CFM point on
average.
"""

from repro.experiments import table2


def test_table2_characteristics(save_result, scale, suite):
    result = table2.run(scale=scale, benchmarks=suite)
    save_result("table2", table2.format_result(result))
    rows = {r["benchmark"]: r for r in result["rows"]}

    if {"go", "vortex", "gap"} <= set(rows):
        assert rows["go"]["mpki"] > rows["vortex"]["mpki"]
        assert rows["go"]["mpki"] > rows["gap"]["mpki"]
    for row in rows.values():
        assert 0.05 < row["base_ipc"] < 8.0
        assert row["diverge_branches"] > 0
        assert 1.0 <= row["avg_cfm"] <= 3.0
