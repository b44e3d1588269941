"""2D-profiling: detecting input-dependent branches in a single run.

Implements the mechanism of Kim, Suleman, Mutlu & Patt, "2D-profiling:
Detecting input-dependent branches with a single input data set" — the
scheme this paper's §8.3 proposes folding into diverge-branch
selection: *"to select only possibly mispredicted branches as diverge
branches.  Excluding always easy-to-predict branches from selection
... would reduce the static code size and also reduce the potential
for aliasing in the confidence estimator."*

The insight: a branch whose prediction accuracy varies across *phases
of one run* is likely to vary across *input sets* too.  So instead of
one scalar misprediction rate per branch (1D), collect a time series —
the second dimension — by slicing the profiling run into intervals and
recording per-branch accuracy per slice.  A branch is flagged
*input-dependent* when the variability of its per-slice accuracy
exceeds a threshold.

Integration with selection: :meth:`TwoDProfile.keep_branch` implements
the §8.3 rule — drop a branch only when it is easy *and* phase-stable
(an always-easy branch); keep hard branches and easy-but-volatile ones
(they may be hard on other inputs).
"""

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.branchpred import PerceptronPredictor
from repro.emulator import ArchState, Emulator


@dataclass
class BranchPhaseStats:
    """Per-slice accuracy series for one static branch."""

    pc: int
    executions: int
    mispredictions: int
    slice_rates: List[float]

    @property
    def misprediction_rate(self):
        if self.executions == 0:
            return 0.0
        return self.mispredictions / self.executions

    @property
    def phase_stddev(self):
        """Standard deviation of per-slice misprediction rates."""
        rates = self.slice_rates
        if len(rates) < 2:
            return 0.0
        mean = sum(rates) / len(rates)
        variance = sum((r - mean) ** 2 for r in rates) / (len(rates) - 1)
        return math.sqrt(variance)


class TwoDProfile:
    """The collected 2D profile: per-branch phase statistics."""

    def __init__(self, branches, slice_length, min_executions=32,
                 stddev_threshold=0.05, easy_rate=0.03):
        self._branches: Dict[int, BranchPhaseStats] = branches
        self.slice_length = slice_length
        self.min_executions = min_executions
        self.stddev_threshold = stddev_threshold
        self.easy_rate = easy_rate

    def get(self, pc):
        """The :class:`BranchPhaseStats` of ``pc`` or None."""
        return self._branches.get(pc)

    def branch_pcs(self):
        return sorted(self._branches)

    def is_input_dependent(self, pc):
        """High phase variability → likely input-dependent.

        Branches executed fewer than ``min_executions`` times are
        conservatively treated as input-dependent (too little evidence
        to call them always-easy).
        """
        stats = self._branches.get(pc)
        if stats is None or stats.executions < self.min_executions:
            return True
        return stats.phase_stddev >= self.stddev_threshold

    def is_always_easy(self, pc):
        """Low misprediction rate *and* phase-stable."""
        stats = self._branches.get(pc)
        if stats is None:
            return False
        return (
            stats.executions >= self.min_executions
            and stats.misprediction_rate < self.easy_rate
            and not self.is_input_dependent(pc)
        )

    def keep_branch(self, pc):
        """§8.3's selection rule: drop only always-easy branches."""
        return not self.is_always_easy(pc)

    def input_dependent_branches(self):
        return [pc for pc in self._branches if self.is_input_dependent(pc)]

    def always_easy_branches(self):
        return [pc for pc in self._branches if self.is_always_easy(pc)]


class TwoDProfiler:
    """Collects a :class:`TwoDProfile` in one emulator pass."""

    def __init__(self, predictor=None, num_slices=24):
        self.predictor = predictor if predictor is not None \
            else PerceptronPredictor()
        self.num_slices = num_slices

    def profile(self, program, memory=None, max_instructions=1_000_000):
        """Run ``program`` once and return its :class:`TwoDProfile`.

        The run is divided into ``num_slices`` equal dynamic-instruction
        slices; slice boundaries are detected with the emulator's
        branch callback (the instruction count advances monotonically
        with branch events, so per-branch slice attribution is exact to
        within one basic block).
        """
        self.predictor.reset()
        predictor = self.predictor
        # First pass cost avoidance: estimate run length with the
        # budget; slices sized optimistically and trimmed afterwards.
        slice_length = max(1, max_instructions // self.num_slices)

        # accumulating structures
        executions: Dict[int, int] = {}
        mispredictions: Dict[int, int] = {}
        slice_exec: Dict[int, List[int]] = {}
        slice_misp: Dict[int, List[int]] = {}
        branch_events = [0]

        def on_branch(pc, taken):
            branch_events[0] += 1
            predicted = predictor.predict(pc)
            predictor.update(pc, taken)
            missed = predicted != taken
            executions[pc] = executions.get(pc, 0) + 1
            if missed:
                mispredictions[pc] = mispredictions.get(pc, 0) + 1
            index = min(
                self.num_slices - 1,
                branch_events[0] * self._branches_per_slice_inv,
            )
            index = int(index)
            exec_slices = slice_exec.setdefault(
                pc, [0] * self.num_slices
            )
            misp_slices = slice_misp.setdefault(
                pc, [0] * self.num_slices
            )
            exec_slices[index] += 1
            if missed:
                misp_slices[index] += 1

        # Pre-pass: count branches cheaply to size slices by *branch
        # events* (uniform per-branch sampling beats instruction-count
        # slicing when region mixes vary).
        counter = [0]
        Emulator(program).run(
            state=ArchState(memory=memory),
            max_instructions=max_instructions,
            on_branch=lambda pc, taken: counter.__setitem__(
                0, counter[0] + 1
            ),
        )
        total_branches = max(1, counter[0])
        self._branches_per_slice_inv = self.num_slices / (
            total_branches + 1
        )

        Emulator(program).run(
            state=ArchState(memory=memory),
            max_instructions=max_instructions,
            on_branch=on_branch,
        )

        branches = {}
        for pc, execs in executions.items():
            rates = []
            for e, m in zip(slice_exec[pc], slice_misp[pc]):
                if e > 0:
                    rates.append(m / e)
            branches[pc] = BranchPhaseStats(
                pc=pc,
                executions=execs,
                mispredictions=mispredictions.get(pc, 0),
                slice_rates=rates,
            )
        return TwoDProfile(branches, slice_length)
