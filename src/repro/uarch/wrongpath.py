"""Wrong-path instruction synthesis for dpred-mode.

In the real DMP the front end fetches *both* sides of a diverge branch,
following the branch predictor on each.  A trace-driven simulator only
has the true path, so the other side is synthesized by walking the
static program from the not-taken-by-the-trace successor, following a
per-branch dynamic bias for conditional branches encountered on the
way, until a CFM point of the diverge branch (or a return, for
return-CFMs) or the instruction budget.

The bias table is a bimodal predictor updated with every true-path
branch outcome the simulator retires — a faithful stand-in for "the
branch predictor's current opinion" without checkpointing the real
predictor's global history down a path that never really executed
(documented approximation, DESIGN.md §5).
"""

import weakref

from repro.isa.instructions import Opcode

#: Walk classes: straight-line, conditional branch, jump, call,
#: return, halt.
_SEQ, _COND, _JMP, _CALL, _RET, _HALT = range(6)

_KIND_OF = {
    Opcode.BEQZ: _COND, Opcode.BNEZ: _COND, Opcode.JMP: _JMP,
    Opcode.CALL: _CALL, Opcode.RET: _RET, Opcode.HALT: _HALT,
}

#: Per-program walk tables, shared by every walker over the program.
_TABLES = weakref.WeakKeyDictionary()


def _walk_tables(program):
    """``(kinds, targets, run_end)`` lists indexed by pc.

    ``run_end[pc]`` is, for a straight-line pc, the first pc at or after
    it that is not straight-line (or the program length): the walk
    covers ``[pc, run_end[pc])`` without a decision.
    """
    try:
        tables = _TABLES.get(program)
    except TypeError:         # unweakrefable program stand-in
        tables = None
    if tables is not None:
        return tables
    instructions = program.instructions
    n = len(instructions)
    kinds = [_KIND_OF.get(inst.op, _SEQ) for inst in instructions]
    targets = [inst.target for inst in instructions]
    run_end = [n] * n
    stop = n
    for pc in range(n - 1, -1, -1):
        if kinds[pc] != _SEQ:
            stop = pc
        run_end[pc] = stop
    tables = (kinds, targets, run_end)
    try:
        _TABLES[program] = tables
    except TypeError:         # unweakrefable program stand-in
        pass
    return tables


class BiasTable:
    """2-bit dynamic per-pc direction bias."""

    __slots__ = ("_counters",)

    def __init__(self):
        self._counters = {}

    def record(self, pc, taken):
        counter = self._counters.get(pc, 2)
        if taken:
            self._counters[pc] = min(3, counter + 1)
        else:
            self._counters[pc] = max(0, counter - 1)

    def predict(self, pc):
        return self._counters.get(pc, 2) >= 2


class WrongPathWalker:
    """Synthesizes the non-trace side of a dpred episode.

    The walker tallies its walks, how many reached a CFM point, and
    the instructions synthesized in plain int fields — cheap enough
    for the hot path; the simulator folds them into the metrics
    registry once per run via :meth:`record_metrics`.
    """

    def __init__(self, program, bias, metrics=None):
        self.program = program
        self.bias = bias
        #: Kept for signature compatibility; totals are recorded into
        #: a registry via :meth:`record_metrics`, not per walk.
        self.metrics = metrics
        self.walks = 0
        self.walks_merged = 0
        self.insts_synthesized = 0

    def record_metrics(self, metrics=None, prefix="wrongpath"):
        """Fold the walk tallies into a metrics registry (idempotent
        per call site: counters advance by the delta since last fold)."""
        registry = metrics if metrics is not None else self.metrics
        if registry is None:
            return
        registry.counter(f"{prefix}_walks_total").inc(self.walks)
        registry.counter(f"{prefix}_walks_merged_total").inc(
            self.walks_merged
        )
        registry.counter(f"{prefix}_insts_total").inc(
            self.insts_synthesized
        )
        self.walks = self.walks_merged = self.insts_synthesized = 0

    def walk(self, start_pc, cfm_pcs, return_cfm, max_insts):
        """Walk from ``start_pc``; returns ``(insts_fetched, merged)``.

        ``merged`` is True when the walk reached a CFM point of the
        diverge branch: a pc in ``cfm_pcs``, or — for return-CFM
        branches — a return executed at the hammock's own call depth.
        ``insts_fetched`` counts instructions the wrong path consumed
        (capped at ``max_insts``).
        """
        count, merged = self._walk(start_pc, cfm_pcs, return_cfm,
                                   max_insts)
        self.walks += 1
        self.insts_synthesized += count
        if merged:
            self.walks_merged += 1
        return count, merged

    def _walk(self, start_pc, cfm_pcs, return_cfm, max_insts):
        kinds, targets, run_end = _walk_tables(self.program)
        n = len(kinds)
        counters = self.bias._counters
        pc = start_pc
        count = 0
        call_stack = []
        while count < max_insts:
            if not 0 <= pc < n:
                return count, False
            if pc in cfm_pcs:
                return count, True
            kind = kinds[pc]
            if kind == _SEQ:
                # Skip the straight-line run in one step, stopping at
                # the first CFM point inside it or at the budget.
                stop = run_end[pc]
                if stop - pc > max_insts - count:
                    stop = pc + max_insts - count
                for cfm in cfm_pcs:
                    if pc < cfm < stop:
                        stop = cfm
                count += stop - pc
                pc = stop
                continue
            count += 1
            if kind == _COND:
                # The bias table's 2-bit counter, weakly taken when new.
                if counters.get(pc, 2) >= 2:
                    pc = targets[pc]
                else:
                    pc += 1
            elif kind == _JMP:
                pc = targets[pc]
            elif kind == _CALL:
                call_stack.append(pc + 1)
                pc = targets[pc]
            elif kind == _RET:
                if not call_stack:
                    # Returning out of the hammock's own function: a
                    # return CFM merges exactly here; any other path
                    # escapes the analysis scope unmerged.
                    return count, bool(return_cfm)
                pc = call_stack.pop()
            else:                 # HALT
                return count, False
        return count, False


def walk_wrong_path(program, bias, start_pc, cfm_pcs, return_cfm,
                    max_insts):
    """Stateless convenience wrapper around :class:`WrongPathWalker`."""
    walker = WrongPathWalker(program, bias)
    return walker.walk(start_pc, cfm_pcs, return_cfm, max_insts)
