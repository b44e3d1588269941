"""The profiling pass: one emulator run, all profiles.

The profiler mirrors the paper's methodology (§6): the program runs to
completion on a *profiling input set*, with a branch predictor and a
JRS confidence estimator in the loop so that per-branch misprediction
rates and the estimator's accuracy (Acc_Conf) are measured rather than
assumed.
"""

from dataclasses import dataclass

from repro.branchpred import JRSConfidenceEstimator, PerceptronPredictor
from repro.emulator import ArchState, Emulator
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.edge_profile import EdgeProfile
from repro.profiling.loop_profile import LoopProfile


@dataclass
class ProfileData:
    """Everything the compiler algorithms consume."""

    edge_profile: EdgeProfile
    branch_profile: BranchProfile
    loop_profile: LoopProfile
    total_instructions: int = 0
    total_branches: int = 0
    total_mispredictions: int = 0
    measured_acc_conf: float = 0.0
    halted: bool = True

    @property
    def mpki(self):
        """Mispredictions per kilo-instruction during the profiling run."""
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.total_mispredictions / self.total_instructions

    def edge_prob(self, pc, taken):
        """Convenience passthrough used by the path enumerator."""
        return self.edge_profile.edge_prob(pc, taken)

    def cache_key(self):
        """Stable content key over everything selection reads.

        Covers the edge, branch, and loop profiles plus the run totals:
        any profile change that could alter a selection decision changes
        the key.  Cached after the first call — profiles are sealed by
        the time the compiler sees them.
        """
        key = getattr(self, "_cache_key", None)
        if key is None:
            import zlib

            text = repr((
                self.total_instructions,
                self.total_branches,
                self.total_mispredictions,
                round(self.measured_acc_conf, 9),
                self.halted,
                self.edge_profile.signature(),
                self.branch_profile.signature(),
                self.loop_profile.signature(),
            ))
            key = f"{zlib.crc32(text.encode('utf-8')):08x}"
            self._cache_key = key
        return key

    def remapped(self, pc_map):
        """This profile translated across a program transform.

        ``pc_map`` maps every *surviving* old pc to its new pc;
        branches the transform removed (e.g. melded hammocks) are
        absent and their observations leave the per-pc profiles *and*
        the branch/misprediction run totals — downstream selection sees
        the profile the transformed program would have produced.
        ``total_instructions`` is kept: it is the profiling run's
        dynamic length, used only for execution-frequency ratios.

        Returns a fresh :class:`ProfileData` (so ``cache_key`` re-keys
        naturally); the original is untouched.
        """
        dropped_branches = 0
        dropped_mispredictions = 0
        for pc in self.edge_profile.executed_branch_pcs():
            if pc not in pc_map:
                dropped_branches += self.branch_profile.exec_count(pc)
                dropped_mispredictions += \
                    self.branch_profile.misprediction_count(pc)
        return ProfileData(
            edge_profile=self.edge_profile.remapped(pc_map),
            branch_profile=self.branch_profile.remapped(pc_map),
            loop_profile=self.loop_profile.remapped(pc_map),
            total_instructions=self.total_instructions,
            total_branches=self.total_branches - dropped_branches,
            total_mispredictions=(
                self.total_mispredictions - dropped_mispredictions
            ),
            measured_acc_conf=self.measured_acc_conf,
            halted=self.halted,
        )


class ProfileCollector:
    """Branch-observation half of one profiling pass.

    Separated from :class:`Profiler` so a *single* emulator run can
    collect the functional trace and the profile together: the
    experiment runner passes :attr:`on_branch` to the traced run and
    calls :meth:`finish` afterwards.  The observations are identical to
    a dedicated profiling run — the emulator's architectural behaviour
    does not depend on the hook.
    """

    def __init__(self, predictor, confidence):
        self.predictor = predictor
        self.confidence = confidence
        self.edge_profile = EdgeProfile()
        self.branch_profile = BranchProfile()
        self.loop_profile = LoopProfile()
        self.branches = 0
        self.mispredictions = 0

    def on_branch(self, pc, taken):
        """The emulator ``on_branch`` callback (hot path)."""
        self.branches += 1
        predictor = self.predictor
        predicted = predictor.predict(pc)
        predictor.update(pc, taken)
        mispredicted = predicted != taken
        if mispredicted:
            self.mispredictions += 1
        confidence = self.confidence
        low_conf = confidence.is_low_confidence(pc)
        confidence.update(pc, mispredicted, was_low_confidence=low_conf)
        self.edge_profile.record(pc, taken)
        self.branch_profile.record(pc, mispredicted)
        self.loop_profile.record(pc, taken)

    def finish(self, result):
        """Seal the profiles; returns the :class:`ProfileData`."""
        self.loop_profile.finish()
        return ProfileData(
            edge_profile=self.edge_profile,
            branch_profile=self.branch_profile,
            loop_profile=self.loop_profile,
            total_instructions=result.instruction_count,
            total_branches=self.branches,
            total_mispredictions=self.mispredictions,
            measured_acc_conf=self.confidence.pvn,
            halted=result.halted,
        )


class Profiler:
    """Runs a program once and collects all profiles.

    Parameters
    ----------
    predictor:
        The in-the-loop branch predictor; defaults to the same
        perceptron predictor the Table 1 machine fetches with, so
        profiled misprediction rates match run-time behaviour.
    confidence:
        Confidence estimator used to measure Acc_Conf; defaults to the
        Table 1 enhanced JRS estimator.
    """

    def __init__(self, predictor=None, confidence=None):
        self.predictor = predictor if predictor is not None \
            else PerceptronPredictor()
        self.confidence = confidence if confidence is not None \
            else JRSConfidenceEstimator(history_bits=0)

    def collector(self):
        """A fresh :class:`ProfileCollector` (resets the predictors).

        Hand its ``on_branch`` to any emulator run — typically the same
        run that records the functional trace — then call ``finish``.
        """
        self.predictor.reset()
        self.confidence.reset()
        return ProfileCollector(self.predictor, self.confidence)

    def fingerprint(self):
        """Stable description of the profiling configuration.

        Part of the persistent artifact cache key: a different
        predictor or estimator geometry must produce a cache miss.
        """
        predictor = self.predictor
        confidence = self.confidence
        return (
            f"{type(predictor).__name__}"
            f"({getattr(predictor, 'num_perceptrons', '')},"
            f"{getattr(predictor, 'history_bits', '')})/"
            f"{type(confidence).__name__}"
            f"({getattr(confidence, 'num_entries', '')},"
            f"{getattr(confidence, 'history_bits', '')},"
            f"{getattr(confidence, 'threshold', '')})"
        )

    def profile(self, program, memory=None, max_instructions=1_000_000):
        """Run ``program`` and return its :class:`ProfileData`."""
        collector = self.collector()
        emulator = Emulator(program)
        result = emulator.run(
            state=ArchState(memory=memory),
            max_instructions=max_instructions,
            on_branch=collector.on_branch,
        )
        return collector.finish(result)
