"""Algorithm 1 (Alg-exact): simple/nested hammocks with exact CFM points.

For each conditional branch executed during profiling, compute its
IPOSDOM and enumerate all paths (working list, bounded by MAX_INSTR
instructions and MAX_CBR conditional branches, following only branch
directions executed with at least MIN_EXEC_PROB).  The branch is a
candidate iff *every* enumerated path reconverges at the IPOSDOM within
the bounds — then the IPOSDOM is its single exact CFM point.

A candidate whose hammock contains no conditional branches or calls is
a *simple* hammock; otherwise it is a *nested* hammock.
"""

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.marks import CFMKind, CFMPoint, DivergeKind


@dataclass
class HammockCandidate:
    """A diverge branch candidate plus the artifacts later passes need.

    ``cfm_points`` are ordered by decreasing merge probability.
    ``path_set`` is the bounded enumeration used to find them, reused
    by the short-hammock pass, the select-µop computation, and the
    cost-benefit model.
    """

    branch_pc: int
    kind: DivergeKind
    cfm_points: Tuple[CFMPoint, ...]
    path_set: object

    @property
    def cfm_pcs(self):
        return frozenset(p.pc for p in self.cfm_points if p.pc is not None)


def find_exact_candidates(analysis, thresholds):
    """All Alg-exact candidates of the program.

    Returns a list of :class:`HammockCandidate` with kind
    SIMPLE_HAMMOCK or NESTED_HAMMOCK and one exact CFM point each.
    """
    candidates = []
    for branch_pc in analysis.hammock_candidate_pcs():
        candidate = _classify_exact(analysis, thresholds, branch_pc)
        if candidate is not None:
            candidates.append(candidate)
    return candidates


def _classify_exact(analysis, thresholds, branch_pc):
    iposdom = analysis.iposdom_pc(branch_pc)
    if iposdom is None:
        return None
    path_set = analysis.paths(
        branch_pc,
        max_instr=thresholds.max_instr,
        max_cbr=thresholds.max_cbr,
        min_exec_prob=thresholds.min_exec_prob,
        stop_at_iposdom=True,
    )
    all_paths = path_set.taken_paths + path_set.nottaken_paths
    if not all_paths:
        return None
    # Every followed path must reconverge at the IPOSDOM within bounds.
    if any(path.reason != "stop" for path in all_paths):
        return None
    kind = (
        DivergeKind.SIMPLE_HAMMOCK
        if _is_simple(analysis, path_set)
        else DivergeKind.NESTED_HAMMOCK
    )
    cfm = CFMPoint(pc=iposdom, kind=CFMKind.EXACT, merge_prob=1.0)
    return HammockCandidate(
        branch_pc=branch_pc,
        kind=kind,
        cfm_points=(cfm,),
        path_set=path_set,
    )


def _is_simple(analysis, path_set):
    """True when the hammock contains no conditional branches or calls.

    Unconditional jumps are permitted — the if-else shape needs one to
    skip the else side.
    """
    calls = analysis.block_calls(path_set.cfg)
    for direction in ("taken", "nottaken"):
        for path in path_set.paths(direction):
            if path.cbrs > 0:
                return False
            if any(calls[block_id] for block_id in path.block_ids):
                return False
    return True
