"""Every tunable the paper's heuristics use, with the paper's values.

§7.1.1: MAX_INSTR = 50, MAX_CBR = MAX_INSTR/10 = 5, MIN_MERGE_PROB = 1%
give the best average performance.  §3.3: MIN_EXEC_PROB = 0.001,
MAX_CFM = 3.  §3.4: short hammocks predicate ≤ 10 instructions per
path, ≥ 95% merge probability, ≥ 5% misprediction rate.  §5.2:
STATIC_LOOP_SIZE = 30, DYNAMIC_LOOP_SIZE = 80, LOOP_ITER = 15.
Footnote 4: the cost model enumerates with MAX_INSTR = 200 and
MAX_CBR = 20 and replaces the MIN_MERGE_PROB filter with the
cost-benefit analysis.  §4.1: Acc_Conf = 40%.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SelectionThresholds:
    """Threshold bundle for the heuristic-based selection algorithms."""

    max_instr: int = 50
    #: Derived from ``max_instr`` by the paper's rule when left None.
    max_cbr: int = None
    min_merge_prob: float = 0.01
    min_exec_prob: float = 0.001
    max_cfm: int = 3

    # Short-hammock heuristic (§3.4).
    short_hammock_max_insts: int = 10
    short_hammock_min_merge_prob: float = 0.95
    short_hammock_min_misp_rate: float = 0.05

    # Return-CFM heuristic (§3.5): minimum probability that both
    # directions end at a return before the bounds.
    return_cfm_min_merge_prob: float = 0.90

    # Diverge-loop heuristics (§5.2).
    static_loop_size: int = 30
    dynamic_loop_size: int = 80
    loop_iter: int = 15

    def __post_init__(self):
        if self.max_cbr is None:
            object.__setattr__(self, "max_cbr", max(1, self.max_instr // 10))

    def with_overrides(self, **kwargs):
        """A copy with some thresholds replaced (used in sweeps)."""
        if "max_instr" in kwargs and "max_cbr" not in kwargs:
            kwargs["max_cbr"] = max(1, kwargs["max_instr"] // 10)
        return replace(self, **kwargs)


#: The three bounds footnote 4 pins in cost-model mode.  Applied as
#: overrides on top of whatever thresholds a config carries, so custom
#: non-bound thresholds (short-hammock, loop, MIN_EXEC_PROB) survive.
COST_MODEL_BOUNDS = {"max_instr": 200, "max_cbr": 20,
                     "min_merge_prob": 0.0}

#: Enumeration bounds the cost model uses (footnote 4).
COST_MODEL = SelectionThresholds(**COST_MODEL_BOUNDS)

#: §4.1: the single confidence-estimator accuracy the compiler assumes.
DEFAULT_ACC_CONF = 0.40
