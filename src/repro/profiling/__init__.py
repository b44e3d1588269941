"""Profile collection (paper §3, §6.1).

The compiler algorithms are *profile-driven*: Alg-freq consumes edge
profiles, High-BP-5 and the short-hammock heuristic consume per-branch
misprediction rates, and the diverge-loop heuristics consume loop
iteration counts.  :class:`Profiler` produces all of them in one
emulator pass with a branch predictor in the loop.  The 2D-profiling
comparison baseline lives in :mod:`repro.profiling.two_d`.
"""

from repro.profiling.edge_profile import EdgeProfile
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.loop_profile import LoopProfile
from repro.profiling.profiler import ProfileCollector, ProfileData, Profiler

__all__ = [
    "EdgeProfile",
    "BranchProfile",
    "LoopProfile",
    "ProfileCollector",
    "ProfileData",
    "Profiler",
]
