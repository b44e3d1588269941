"""The cycle-level timing model: baseline processor and DMP.

A trace-driven out-of-order timing simulator with the Table 1
configuration: 8-wide front end with taken-branch fetch breaks,
perceptron branch prediction, BTB + return address stack, a 512-entry
reorder buffer with 8-wide in-order retire, dataflow-scheduled
execution with cache/memory latencies, and a minimum 25-cycle branch
misprediction penalty.

With a :class:`repro.core.BinaryAnnotation` attached, the simulator
additionally models DMP: confidence-gated dpred-mode on diverge
branches, alternating dual-path fetch, CFG-synthesized wrong-path
instructions, CFM-point reconvergence, select-µop insertion, and
diverge-loop early/late/no-exit behaviour.
"""

from repro.uarch.config import ProcessorConfig
from repro.uarch.profiler import COMPONENTS, SimProfiler
from repro.uarch.stats import SimStats
from repro.uarch.simulator import TimingSimulator
from repro.uarch.vectorized import (
    VectorizedTimingSimulator,
    make_simulator,
    simulate,
)

__all__ = ["COMPONENTS", "ProcessorConfig", "SimProfiler", "SimStats",
           "TimingSimulator", "VectorizedTimingSimulator",
           "make_simulator", "simulate"]
