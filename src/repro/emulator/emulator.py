"""The functional emulator and dynamic traces.

:meth:`Emulator.run` interprets a pre-decoded form of the program: each
pc becomes one ``(op, x, y, z)`` tuple of small ints (see
:func:`_decode`), built once per program.  The interpreter dispatches
on ``op`` with the opcodes the workloads execute most tested first,
reads and writes the register list directly, indexes the word memory
for in-range loads, and appends trace columns without a per-row call.
"""

import weakref
from dataclasses import dataclass

from repro.errors import EmulationError
from repro.isa.instructions import ALU_OPCODES, Opcode
from repro.emulator.state import ArchState, load_word, store_word
from repro.emulator.trace import NO_ADDRESS, Trace

#: Shift amounts are masked to the register width, like real hardware.
_SHIFT_MASK = 63

#: 64-bit two's-complement bounds used to wrap arithmetic results.
_WRAP = 1 << 64
_SIGN = 1 << 63
_MIN64 = -_SIGN
_MAX64 = _SIGN - 1

#: Deepest architectural call stack before a run is declared runaway.
_MAX_CALL_DEPTH = 10_000


def _wrap64(value):
    """Wrap a Python int to a signed 64-bit value."""
    value &= _WRAP - 1
    return value - _WRAP if value & _SIGN else value


# Interpreter opcodes.  ALU operations keep a 4-bit code; ``_IMM`` marks
# the immediate-operand form (``z`` is the immediate, not a register).
_ALU_CODE = {
    op: code for code, op in enumerate((
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
        Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.CMPLT,
        Opcode.CMPLE, Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPGT,
        Opcode.CMPGE,
    ))
}
(_ADD, _SUB, _MUL, _DIV, _AND, _OR, _XOR, _SHL, _SHR, _CMPLT, _CMPLE,
 _CMPEQ, _CMPNE, _CMPGT, _CMPGE) = range(15)
_IMM = 16
_ALU_MASK = _IMM - 1
_ADDI = _ADD | _IMM
_XORI = _XOR | _IMM
_ANDI = _AND | _IMM
(_MOVI, _BNEZ, _LD, _JMP, _BEQZ, _CALL, _RET, _HALT, _ST, _MOV, _CMOV,
 _NOP, _OUT_OF_RANGE) = range(32, 45)

#: Non-ALU opcode -> interpreter opcode.
_OTHER_CODE = {
    Opcode.MOVI: _MOVI, Opcode.BNEZ: _BNEZ, Opcode.LD: _LD,
    Opcode.JMP: _JMP, Opcode.BEQZ: _BEQZ, Opcode.CALL: _CALL,
    Opcode.RET: _RET, Opcode.HALT: _HALT, Opcode.ST: _ST,
    Opcode.MOV: _MOV, Opcode.CMOV: _CMOV, Opcode.NOP: _NOP,
}

#: Decoded programs, shared by every emulator over the same program.
_DECODED = weakref.WeakKeyDictionary()


def _decode(program):
    """The per-pc ``(op, x, y, z)`` tuples :meth:`Emulator.run` executes.

    - ALU: ``(code, dest, src1, src2)``, or ``(code | _IMM, dest, src1,
      imm)``;
    - ``MOV``/``MOVI``: ``(op, dest, src1 or imm, 0)``; ``CMOV``:
      ``(op, dest, condition, src)``;
    - ``LD``: ``(op, dest, base, offset)``; ``ST``: ``(op, value, base,
      offset)``;
    - ``BEQZ``/``BNEZ``: ``(op, target, condition, 0)``; ``JMP``/
      ``CALL``: ``(op, target, 0, 0)``; ``RET``/``HALT``/``NOP``:
      ``(op, 0, 0, 0)``.

    A register write to ``r0`` is discarded, so an ALU, ``MOV``,
    ``MOVI`` or ``CMOV`` writing ``r0`` decodes to ``NOP``.  One extra
    entry at index ``len(instructions)`` raises when fall-through runs
    off the end of the program.  A branch target outside the program
    (which :class:`~repro.isa.program.Program` already rejects) raises
    here rather than indexing the table from its end.
    """
    try:
        code = _DECODED.get(program)
    except TypeError:         # unweakrefable program stand-in
        code = None
    if code is not None:
        return code
    instructions = program.instructions
    n = len(instructions)
    code = []
    for pc, inst in enumerate(instructions):
        op = inst.op
        if inst.target is not None and not 0 <= inst.target < n:
            raise EmulationError(
                f"@{pc} {inst}: target {inst.target} out of range"
            )
        if op in ALU_OPCODES or op in (Opcode.MOV, Opcode.MOVI,
                                       Opcode.CMOV):
            if inst.dest == 0:
                code.append((_NOP, 0, 0, 0))
            elif op is Opcode.MOV:
                code.append((_MOV, inst.dest, inst.src1, 0))
            elif op is Opcode.MOVI:
                code.append((_MOVI, inst.dest, inst.imm, 0))
            elif op is Opcode.CMOV:
                code.append((_CMOV, inst.dest, inst.src1, inst.src2))
            elif inst.src2 is None:
                code.append((_ALU_CODE[op] | _IMM, inst.dest, inst.src1,
                             inst.imm))
            else:
                code.append((_ALU_CODE[op], inst.dest, inst.src1,
                             inst.src2))
        elif op is Opcode.LD:
            code.append((_LD, inst.dest, inst.src1, inst.imm))
        elif op is Opcode.ST:
            code.append((_ST, inst.src2, inst.src1, inst.imm))
        elif op in (Opcode.BEQZ, Opcode.BNEZ):
            code.append((_OTHER_CODE[op], inst.target, inst.src1, 0))
        elif op in (Opcode.JMP, Opcode.CALL):
            code.append((_OTHER_CODE[op], inst.target, 0, 0))
        else:
            code.append((_OTHER_CODE[op], 0, 0, 0))
    code.append((_OUT_OF_RANGE, 0, 0, 0))
    try:
        _DECODED[program] = code
    except TypeError:         # unweakrefable program stand-in
        pass
    return code


class DynamicInstruction:
    """One retired dynamic instruction.

    ``pc`` indexes the static program; ``next_pc`` is where control went
    afterwards (for branches this encodes the taken/not-taken outcome);
    ``address`` is the effective word address for loads/stores, else
    ``None``.
    """

    __slots__ = ("pc", "next_pc", "address")

    def __init__(self, pc, next_pc, address=None):
        self.pc = pc
        self.next_pc = next_pc
        self.address = address

    def taken(self):
        """For control instructions: True if the fall-through was not used."""
        return self.next_pc != self.pc + 1

    def __repr__(self):
        return f"DynamicInstruction(pc={self.pc}, next_pc={self.next_pc})"


@dataclass
class RunResult:
    """Outcome of a functional run."""

    instruction_count: int
    halted: bool
    state: ArchState

    @property
    def hit_budget(self):
        return not self.halted


class Emulator:
    """Executes a program against an :class:`ArchState`.

    The emulator is deliberately strict: undefined situations (RET with
    an empty stack, runaway recursion, falling off the end of a
    function) raise :class:`~repro.errors.EmulationError` instead of
    silently continuing, so workload-generator bugs surface immediately.
    """

    def __init__(self, program):
        self.program = program

    def run(self, state=None, max_instructions=1_000_000, trace=None,
            on_branch=None):
        """Run until ``HALT`` or the instruction budget.

        Parameters
        ----------
        state:
            Initial :class:`ArchState`; a fresh zeroed state if ``None``.
        max_instructions:
            Dynamic instruction budget (loop-protection and scale knob).
        trace:
            A :class:`~repro.emulator.trace.Trace` (compact columns,
            recorded without per-entry objects) or a list (every
            retired instruction appended as a
            :class:`DynamicInstruction`).
        on_branch:
            Optional callback ``(pc, taken)`` invoked for every retired
            conditional branch — the profiler's hook; combined with
            ``trace`` it collects trace and profile in one pass.
        """
        state = state if state is not None else ArchState()
        code = _decode(self.program)
        end = len(code) - 1
        regs = state.regs
        memory = state.memory
        size = len(memory)
        call_stack = state.call_stack
        push = call_stack.append
        lo = _MIN64
        hi = _MAX64
        tracing = trace is not None
        if isinstance(trace, Trace):
            columns = (trace.pcs, trace.next_pcs, trace.addresses)
            no_address = NO_ADDRESS
        else:
            # A list trace is recorded into plain lists and converted
            # to DynamicInstruction objects once the run stops.
            columns = ([], [], [])
            no_address = None
        record_pc = columns[0].append
        record_next = columns[1].append
        record_address = columns[2].append
        pc = self.program.entry
        stray_pc = end      # the pc reported when execution leaves code
        count = 0
        halted = False
        try:
            for count in range(1, max_instructions + 1):
                op, x, y, z = code[pc]
                next_pc = pc + 1
                address = no_address
                if op == _ADDI:
                    value = regs[y] + z
                    if not lo <= value <= hi:
                        value = _wrap64(value)
                    regs[x] = value
                elif op == _XORI:
                    regs[x] = regs[y] ^ z
                elif op == _MOVI:
                    regs[x] = y
                elif op == _BNEZ:
                    taken = regs[y] != 0
                    if taken:
                        next_pc = x
                    if on_branch is not None:
                        on_branch(pc, taken)
                elif op == _ADD:
                    value = regs[y] + regs[z]
                    if not lo <= value <= hi:
                        value = _wrap64(value)
                    regs[x] = value
                elif op == _LD:
                    address = regs[y] + z
                    value = memory[address] if 0 <= address < size \
                        else load_word(memory, address)
                    if x:
                        regs[x] = value
                elif op == _JMP:
                    next_pc = x
                elif op == _ANDI:
                    regs[x] = regs[y] & z
                elif op == _BEQZ:
                    taken = regs[y] == 0
                    if taken:
                        next_pc = x
                    if on_branch is not None:
                        on_branch(pc, taken)
                elif op == _CALL:
                    if len(call_stack) > _MAX_CALL_DEPTH:
                        raise EmulationError(
                            "call stack overflow (runaway recursion?)"
                        )
                    push(next_pc)
                    next_pc = x
                elif op == _RET:
                    if not call_stack:
                        raise EmulationError("RET with empty call stack")
                    next_pc = call_stack.pop()
                    if not 0 <= next_pc < end:
                        # Record the return, then stop at the next
                        # fetch like a fall-through off the end does.
                        stray_pc = next_pc
                        if tracing:
                            record_pc(pc)
                            record_next(next_pc)
                            record_address(address)
                        pc = end
                        continue
                elif op == _HALT:
                    halted = True
                    if tracing:
                        record_pc(pc)
                        record_next(pc)
                        record_address(address)
                    break
                elif op == _ST:
                    address = regs[y] + z
                    store_word(memory, address, regs[x])
                    size = len(memory)
                elif op == _MOV:
                    regs[x] = regs[y]
                elif op == _CMOV:
                    if regs[y] != 0:
                        regs[x] = regs[z]
                elif op == _NOP:
                    pass
                elif op == _OUT_OF_RANGE:
                    raise EmulationError(f"pc out of range: {stray_pc}")
                else:
                    # The remaining two-operand ALU operations.
                    a = regs[y]
                    b = z if op & _IMM else regs[z]
                    op &= _ALU_MASK
                    if op == _SUB:
                        value = a - b
                    elif op == _MUL:
                        value = a * b
                    elif op == _DIV:
                        # Division by zero yields zero, like a trap
                        # handler returning a defined value; synthetic
                        # workloads must not crash the run.  Truncate
                        # toward zero without the float detour of
                        # int(a / b), which loses precision for
                        # operands above 2**53.
                        if b == 0:
                            value = 0
                        elif (a < 0) != (b < 0):
                            value = -(-a // b) if a < 0 else -(a // -b)
                        else:
                            value = abs(a) // abs(b)
                            if value > hi:
                                value = _wrap64(value)
                    elif op == _AND:
                        value = a & b
                    elif op == _OR:
                        value = a | b
                    elif op == _XOR:
                        value = a ^ b
                    elif op == _SHL:
                        value = a << (b & _SHIFT_MASK)
                    elif op == _SHR:
                        value = (a % _WRAP) >> (b & _SHIFT_MASK)
                    elif op == _CMPLT:
                        value = int(a < b)
                    elif op == _CMPLE:
                        value = int(a <= b)
                    elif op == _CMPEQ:
                        value = int(a == b)
                    elif op == _CMPNE:
                        value = int(a != b)
                    elif op == _CMPGT:
                        value = int(a > b)
                    else:
                        value = int(a >= b)
                    if op in (_SUB, _MUL, _SHL) \
                            and not lo <= value <= hi:
                        value = _wrap64(value)
                    regs[x] = value
                if tracing:
                    record_pc(pc)
                    record_next(next_pc)
                    record_address(address)
                pc = next_pc
        finally:
            if tracing and no_address is None:
                append = trace.append
                for row in zip(*columns):
                    append(DynamicInstruction(*row))
        return RunResult(instruction_count=count, halted=halted,
                         state=state)


def execute(program, memory=None, max_instructions=1_000_000,
            collect_trace=True, metrics=None, on_branch=None,
            compact=False):
    """Convenience wrapper: run ``program`` and return ``(trace, result)``.

    ``memory`` pre-loads the word memory (a copy; this is how workload
    input sets are supplied).  When ``collect_trace`` is False the trace
    is ``None`` and only the :class:`RunResult` matters.  With
    ``compact=True`` the trace is a parallel-array
    :class:`~repro.emulator.trace.Trace` instead of a
    ``list[DynamicInstruction]`` (severalfold less memory, same replay
    semantics).  ``on_branch`` is forwarded to :meth:`Emulator.run`, so
    a profiler can observe the same single pass that records the trace.

    ``metrics`` (default: the active telemetry registry) accumulates
    functional-run totals — end-of-run increments only, the emulation
    loop itself stays uninstrumented.
    """
    from repro.obs.context import get_metrics

    if collect_trace:
        trace = Trace() if compact else []
    else:
        trace = None
    emulator = Emulator(program)
    state = ArchState(memory=memory)
    result = emulator.run(
        state=state, max_instructions=max_instructions, trace=trace,
        on_branch=on_branch,
    )
    registry = metrics if metrics is not None else get_metrics()
    registry.counter("emulator_runs_total").inc()
    registry.counter("emulator_instructions_total").inc(
        result.instruction_count
    )
    return trace, result
