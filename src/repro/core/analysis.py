"""Shared per-program analysis context for the selection algorithms.

Bundles the CFGs, post-dominator trees and natural loops of every
function, and provides the queries all selection passes share: the
IPOSDOM of a branch, bounded path enumeration with profiled edge
probabilities, loop-exit classification, and select-µop register sets.
"""

from repro.cfg import build_cfgs, enumerate_paths, find_natural_loops
from repro.cfg.dominators import compute_postdominators, immediate_postdominator_pc
from repro.isa.registers import ZERO_REGISTER
from repro.obs.context import get_metrics


class LoopExitInfo:
    """A conditional branch that exits a natural loop."""

    __slots__ = ("branch_pc", "exit_pc", "loop", "loop_direction")

    def __init__(self, branch_pc, exit_pc, loop, loop_direction):
        self.branch_pc = branch_pc
        self.exit_pc = exit_pc
        self.loop = loop
        #: Branch direction (taken?) that stays in the loop.
        self.loop_direction = loop_direction


class ProgramAnalysis:
    """All static analyses of one program, computed once."""

    def __init__(self, program, profile):
        self.program = program
        self.profile = profile
        self.cfgs = build_cfgs(program)
        self._postdoms = {
            name: compute_postdominators(cfg)
            for name, cfg in self.cfgs.items()
        }
        self._cfg_of_pc = {}
        for cfg in self.cfgs.values():
            func = cfg.function
            for pc in range(func.start, func.end):
                self._cfg_of_pc[pc] = cfg
        self._block_writes, self._block_calls = self._block_tables()
        self._iposdom = {}
        self._loop_exits = self._find_loop_exits()
        self._path_cache = {}

    def _block_tables(self):
        """Per function, per block id: the registers the block writes
        (r0 excluded) and whether it holds a call."""
        program = self.program
        writes, calls = {}, {}
        for name, cfg in self.cfgs.items():
            block_writes, block_calls = [], []
            for block in cfg.blocks:
                registers = set()
                has_call = False
                for pc in range(block.start, block.end):
                    inst = program[pc]
                    written = inst.written_register()
                    if written is not None and written != ZERO_REGISTER:
                        registers.add(written)
                    has_call = has_call or inst.is_call
                block_writes.append(frozenset(registers))
                block_calls.append(has_call)
            writes[name] = block_writes
            calls[name] = block_calls
        return writes, calls

    # -- basic queries ----------------------------------------------------

    def cfg_of(self, pc):
        return self._cfg_of_pc[pc]

    def iposdom_pc(self, branch_pc):
        """The exact CFM point candidate (IPOSDOM entry pc) or None
        (memoized per branch pc)."""
        try:
            return self._iposdom[branch_pc]
        except KeyError:
            pass
        cfg = self.cfg_of(branch_pc)
        postdoms = self._postdoms[cfg.function.name]
        iposdom = immediate_postdominator_pc(cfg, postdoms, branch_pc)
        self._iposdom[branch_pc] = iposdom
        return iposdom

    def block_calls(self, cfg):
        """Per block id of ``cfg``: does the block hold a call?"""
        return self._block_calls[cfg.function.name]

    def executed_conditional_branches(self):
        """Branch pcs executed during profiling, in program order.

        Algorithm 1/2 iterate over "each conditional branch B executed
        during profiling".
        """
        return self.profile.edge_profile.executed_branch_pcs()

    # -- loops --------------------------------------------------------------

    def _find_loop_exits(self):
        exits = {}
        for cfg in self.cfgs.values():
            for loop in find_natural_loops(cfg):
                for branch_pc, exit_pc in loop.exit_branches:
                    block = cfg.block_containing(branch_pc)
                    taken_in = (
                        block.taken_successor is not None
                        and block.taken_successor in loop.body
                    )
                    info = LoopExitInfo(
                        branch_pc, exit_pc, loop, loop_direction=taken_in
                    )
                    # A branch can exit nested loops; keep the innermost
                    # (smallest) loop, which is the one it iterates.
                    existing = exits.get(branch_pc)
                    if existing is None or len(loop.body) < len(
                        existing.loop.body
                    ):
                        exits[branch_pc] = info
        return exits

    def loop_exit_info(self, branch_pc):
        """The :class:`LoopExitInfo` for ``branch_pc`` or None."""
        return self._loop_exits.get(branch_pc)

    def loop_exit_branch_pcs(self):
        return sorted(self._loop_exits)

    def hammock_candidate_pcs(self):
        """Executed conditional branches eligible for hammock selection.

        Loop-exit branches are considered by the diverge-loop pass
        instead (paper Figure 3 keeps the types disjoint).
        """
        return [
            pc
            for pc in self.executed_conditional_branches()
            if pc not in self._loop_exits
        ]

    # -- path enumeration -----------------------------------------------------

    def paths(self, branch_pc, max_instr, max_cbr, min_exec_prob,
              stop_at_iposdom=True):
        """Bounded path enumeration with profiled edge probabilities.

        Results are memoized per parameter set — the heuristic passes
        and the cost model ask for the same enumerations repeatedly.
        """
        stop_pc = self.iposdom_pc(branch_pc) if stop_at_iposdom else None
        key = (branch_pc, max_instr, max_cbr, min_exec_prob, stop_pc)
        cached = self._path_cache.get(key)
        if cached is not None:
            get_metrics().counter("analysis_cache_hits_total").inc()
            return cached
        get_metrics().counter("analysis_cache_misses_total").inc()
        cfg = self.cfg_of(branch_pc)
        stop_pcs = frozenset() if stop_pc is None else frozenset({stop_pc})
        path_set = enumerate_paths(
            cfg,
            branch_pc,
            self.profile.edge_prob,
            max_instr=max_instr,
            max_cbr=max_cbr,
            min_exec_prob=min_exec_prob,
            stop_pcs=stop_pcs,
        )
        self._path_cache[key] = path_set
        return path_set

    def invalidate_paths(self):
        """Drop memoized path sets (dominators, loops, IPOSDOMs and the
        per-block tables stay valid).

        Path sets depend on the edge profile *and* their bound
        parameters; the structural analyses depend only on the program.
        The :class:`repro.compiler.AnalysisManager` calls this when a
        caller asserts the profile changed in place.
        """
        self._path_cache.clear()

    def path_cache_size(self):
        """Number of memoized path sets (cache-correctness tests)."""
        return len(self._path_cache)

    # -- select-µop register sets ----------------------------------------------

    def select_registers_for_paths(self, path_set, cfm_pcs):
        """Registers select-µops must reconcile for a hammock.

        The union of architectural registers written in any block on
        any enumerated path on either side, up to the first CFM point.
        Callee-side writes of calls inside the hammock are not included
        (intraprocedural approximation; the paper's select-µop overhead
        is reported as negligible either way, §4.4 item 4).
        """
        cfg = path_set.cfg
        blocks = cfg.blocks
        writes = self._block_writes[cfg.function.name]
        registers = set()
        for direction in ("taken", "nottaken"):
            for path in path_set.paths(direction):
                for block_id in path.block_ids:
                    if blocks[block_id].start in cfm_pcs:
                        break
                    registers |= writes[block_id]
        return frozenset(registers)

    def loop_body_registers(self, loop, cfg):
        """Registers written inside a loop body (loop select-µops)."""
        writes = self._block_writes[cfg.function.name]
        registers = set()
        for block_id in loop.body:
            registers |= writes[block_id]
        return frozenset(registers)
