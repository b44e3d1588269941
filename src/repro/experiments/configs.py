"""Named selection configurations used across the experiments.

The names follow the paper's figure legends: the cumulative heuristic
series of Figure 5 (left) and the cost-model series of Figure 5
(right).  Since the pass-manager refactor the definitions live in
:mod:`repro.compiler.registry`; this module re-exposes them in figure
order.
"""

from repro.compiler import registry

#: Figure 5 (left): each technique added cumulatively.
CUMULATIVE_HEURISTICS = tuple(
    (name, registry.resolve(name))
    for name in (
        "exact",
        "exact+freq",
        "exact+freq+short",
        "exact+freq+short+ret",
        "all-best-heur",
    )
)

#: Figure 5 (right): the cost-benefit model variants.
COST_CONFIGS = tuple(
    (name, registry.resolve(name))
    for name in (
        "cost-long",
        "cost-edge",
        "cost-edge+short",
        "cost-edge+short+ret",
        "all-best-cost",
    )
)


def named_config(name):
    """Look up a selection config by its figure-legend name."""
    return registry.resolve(name)
