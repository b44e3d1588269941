"""Natural loop detection.

Diverge *loop* branches (paper §5) are conditional loop-exit branches:
branches whose taken edge is a back edge to the loop header (the common
bottom-of-loop shape) or whose block is otherwise a loop exit.  The CFM
point of a diverge loop branch is the loop's exit target — dynamic
predication of the loop predicates the extra iterations and reconverges
at the code after the loop.
"""

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.cfg.dominators import compute_dominators


@dataclass
class Loop:
    """One natural loop.

    ``header`` is the header block id; ``body`` the set of member block
    ids (header included); ``exit_branches`` lists the diverge-loop
    candidate branches: ``(branch_pc, exit_pc)`` for every conditional
    branch in the loop with exactly one successor outside it.  The
    latch's own exit branch (the do-while shape the paper's Figure 3d
    shows) is also exposed as ``back_edge_branch_pc``/``exit_pc``.
    """

    header: int
    body: FrozenSet[int]
    exit_branches: tuple = ()
    back_edge_branch_pc: Optional[int] = None
    exit_pc: Optional[int] = None
    static_size: int = 0


def find_natural_loops(cfg):
    """All natural loops of ``cfg``, one per back edge.

    Multiple back edges to the same header yield separate ``Loop``
    records (the selection algorithms treat each candidate branch
    independently, so merging them is unnecessary).
    """
    doms = compute_dominators(cfg)
    loops = []
    for block in cfg.blocks:
        for succ_id in block.successors:
            if doms.dominates(succ_id, block.block_id):
                loops.append(_natural_loop(cfg, succ_id, block.block_id))
    return loops


def _natural_loop(cfg, header_id, latch_id):
    """The natural loop of back edge ``latch -> header``."""
    body = {header_id, latch_id}
    worklist = [latch_id]
    while worklist:
        node = worklist.pop()
        if node == header_id:
            continue
        for pred_id in cfg.blocks[node].predecessors:
            if pred_id not in body:
                body.add(pred_id)
                worklist.append(pred_id)

    exit_branches = []
    for block_id in sorted(body):
        block = cfg.blocks[block_id]
        terminator = cfg.program[block.last_pc]
        if not terminator.is_conditional_branch:
            continue
        taken = block.taken_successor
        fallthrough = block.fallthrough_successor
        taken_in = taken is not None and taken in body
        fall_in = fallthrough is not None and fallthrough in body
        if taken_in and not fall_in and fallthrough is not None:
            exit_branches.append(
                (block.last_pc, cfg.blocks[fallthrough].start)
            )
        elif fall_in and not taken_in and taken is not None:
            exit_branches.append((block.last_pc, cfg.blocks[taken].start))

    latch = cfg.blocks[latch_id]
    branch_pc = None
    exit_pc = None
    if cfg.program[latch.last_pc].is_conditional_branch:
        for candidate_pc, candidate_exit in exit_branches:
            if candidate_pc == latch.last_pc:
                branch_pc, exit_pc = candidate_pc, candidate_exit
                break

    static_size = sum(cfg.blocks[b].size for b in body)
    return Loop(
        header=header_id,
        body=frozenset(body),
        exit_branches=tuple(exit_branches),
        back_edge_branch_pc=branch_pc,
        exit_pc=exit_pc,
        static_size=static_size,
    )
