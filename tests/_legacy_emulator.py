"""Frozen copy of the if-chain emulator and the per-instruction walker.

This module is the oracle for the interpreter-equivalence tests: it
preserves, verbatim, ``Emulator.run`` / ``Emulator._execute_alu`` and
``WrongPathWalker._walk`` as they were before the emulator was
pre-decoded and the walker table-driven, so the tests can assert that
the current implementations produce identical traces, final states,
run results and walks.  Do not "improve" this file — its value is that
it does not change.
"""

from repro.emulator.emulator import DynamicInstruction, RunResult
from repro.emulator.state import ArchState
from repro.emulator.trace import Trace
from repro.errors import EmulationError
from repro.isa.instructions import Opcode

#: Shift amounts are masked to the register width, like real hardware.
_SHIFT_MASK = 63

#: 64-bit two's-complement bounds used to wrap arithmetic results.
_WRAP = 1 << 64
_SIGN = 1 << 63


def _wrap64(value):
    """Wrap a Python int to a signed 64-bit value."""
    value &= _WRAP - 1
    return value - _WRAP if value & _SIGN else value


class LegacyEmulator:
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
        program = self.program
        instructions = program.instructions
        pc = program.entry
        count = 0
        halted = False
        if trace is None:
            record = None
        elif isinstance(trace, Trace):
            record = trace.record
        else:
            append = trace.append

            def record(pc, next_pc, address=None):
                append(DynamicInstruction(pc, next_pc, address))

        while count < max_instructions:
            if not 0 <= pc < len(instructions):
                raise EmulationError(f"pc out of range: {pc}")
            inst = instructions[pc]
            count += 1
            op = inst.op
            next_pc = pc + 1
            address = None

            if op is Opcode.HALT:
                halted = True
                if record is not None:
                    record(pc, pc)
                break
            if op is Opcode.BEQZ:
                taken = state.regs[inst.src1] == 0
                if taken:
                    next_pc = inst.target
                if on_branch is not None:
                    on_branch(pc, taken)
            elif op is Opcode.BNEZ:
                taken = state.regs[inst.src1] != 0
                if taken:
                    next_pc = inst.target
                if on_branch is not None:
                    on_branch(pc, taken)
            elif op is Opcode.JMP:
                next_pc = inst.target
            elif op is Opcode.CALL:
                state.push_return(pc + 1)
                next_pc = inst.target
            elif op is Opcode.RET:
                next_pc = state.pop_return()
            elif op is Opcode.LD:
                address = state.regs[inst.src1] + inst.imm
                state.write_reg(inst.dest, state.load(address))
            elif op is Opcode.ST:
                address = state.regs[inst.src1] + inst.imm
                state.store(address, state.regs[inst.src2])
            elif op is Opcode.MOV:
                state.write_reg(inst.dest, state.regs[inst.src1])
            elif op is Opcode.MOVI:
                state.write_reg(inst.dest, inst.imm)
            elif op is Opcode.CMOV:
                if state.regs[inst.src1] != 0:
                    state.write_reg(inst.dest, state.regs[inst.src2])
            elif op is Opcode.NOP:
                pass
            else:
                self._execute_alu(state, inst)

            if record is not None:
                record(pc, next_pc, address)
            pc = next_pc

        return RunResult(instruction_count=count, halted=halted, state=state)

    @staticmethod
    def _execute_alu(state, inst):
        a = state.regs[inst.src1]
        b = inst.imm if inst.src2 is None else state.regs[inst.src2]
        op = inst.op
        if op is Opcode.ADD:
            result = _wrap64(a + b)
        elif op is Opcode.SUB:
            result = _wrap64(a - b)
        elif op is Opcode.MUL:
            result = _wrap64(a * b)
        elif op is Opcode.DIV:
            # Division by zero yields zero, like a trap handler returning
            # a defined value; synthetic workloads must not crash the run.
            # Truncate toward zero without the float detour of int(a / b),
            # which loses precision for operands above 2**53.
            if b == 0:
                result = 0
            elif (a < 0) != (b < 0):
                result = -(-a // b) if a < 0 else -(a // -b)
            else:
                result = _wrap64(abs(a) // abs(b))
        elif op is Opcode.AND:
            result = a & b
        elif op is Opcode.OR:
            result = a | b
        elif op is Opcode.XOR:
            result = a ^ b
        elif op is Opcode.SHL:
            result = _wrap64(a << (b & _SHIFT_MASK))
        elif op is Opcode.SHR:
            result = (a % _WRAP) >> (b & _SHIFT_MASK)
        elif op is Opcode.CMPLT:
            result = int(a < b)
        elif op is Opcode.CMPLE:
            result = int(a <= b)
        elif op is Opcode.CMPEQ:
            result = int(a == b)
        elif op is Opcode.CMPNE:
            result = int(a != b)
        elif op is Opcode.CMPGT:
            result = int(a > b)
        elif op is Opcode.CMPGE:
            result = int(a >= b)
        else:  # pragma: no cover - opcode set is closed
            raise EmulationError(f"unhandled opcode {op}")
        state.write_reg(inst.dest, result)


class LegacyWalker:
    """The per-instruction wrong-path walk over ``program``/``bias``."""

    def __init__(self, program, bias):
        self.program = program
        self.bias = bias

    def _walk(self, start_pc, cfm_pcs, return_cfm, max_insts):
        instructions = self.program.instructions
        bias = self.bias
        pc = start_pc
        count = 0
        call_stack = []
        while count < max_insts:
            if not 0 <= pc < len(instructions):
                return count, False
            if pc in cfm_pcs:
                return count, True
            inst = instructions[pc]
            op = inst.op
            count += 1
            if op is Opcode.JMP:
                pc = inst.target
            elif op is Opcode.CALL:
                call_stack.append(pc + 1)
                pc = inst.target
            elif op is Opcode.RET:
                if not call_stack:
                    # Returning out of the hammock's own function: a
                    # return CFM merges exactly here; any other path
                    # escapes the analysis scope unmerged.
                    return count, bool(return_cfm)
                pc = call_stack.pop()
            elif op in (Opcode.BEQZ, Opcode.BNEZ):
                pc = inst.target if bias.predict(pc) else pc + 1
            elif op is Opcode.HALT:
                return count, False
            else:
                pc += 1
        return count, False
