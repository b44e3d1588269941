"""Functional-emulator tests: semantics, tracing, and guard rails."""

from array import array

import pytest

from repro.emulator import ArchState, Emulator, execute
from repro.emulator.state import MAX_MEMORY_WORDS
from repro.errors import EmulationError
from repro.isa import assemble


def run_asm(text, memory=None, budget=100_000):
    program = assemble(f".func main\n{text}\n    halt\n.endfunc")
    trace, result = execute(program, memory=memory, max_instructions=budget)
    return trace, result


class TestALUSemantics:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 3, 4, 7),
            ("sub", 3, 4, -1),
            ("mul", 6, 7, 42),
            ("div", 42, 5, 8),
            ("and", 12, 10, 8),
            ("or", 12, 10, 14),
            ("xor", 12, 10, 6),
            ("shl", 3, 4, 48),
            ("shr", 48, 4, 3),
            ("cmplt", 3, 4, 1),
            ("cmple", 4, 4, 1),
            ("cmpeq", 4, 4, 1),
            ("cmpne", 4, 4, 0),
            ("cmpgt", 4, 3, 1),
            ("cmpge", 3, 4, 0),
        ],
    )
    def test_binary_op(self, op, a, b, expected):
        _, result = run_asm(
            f"    movi r1, {a}\n    movi r2, {b}\n    {op} r3, r1, r2"
        )
        assert result.state.regs[3] == expected

    def test_division_by_zero_yields_zero(self):
        _, result = run_asm("    movi r1, 9\n    div r3, r1, r0")
        assert result.state.regs[3] == 0

    def test_division_truncates_toward_zero(self):
        _, result = run_asm(
            "    movi r1, -7\n    movi r2, 2\n    div r3, r1, r2"
        )
        assert result.state.regs[3] == -3

    @pytest.mark.parametrize(
        "a,b",
        [
            (2**62 + 3, 3),
            (-(2**62 + 3), 3),
            (2**62 + 3, -3),
            (-(2**62 + 3), -3),
            (2**63 - 1, 1),
            (2**53 + 1, 1),
        ],
    )
    def test_division_exact_above_float_precision(self, a, b):
        # int(a / b) would round through a 53-bit float here.
        _, result = run_asm(
            f"    movi r1, {a}\n    movi r2, {b}\n    div r3, r1, r2"
        )
        quotient = abs(a) // abs(b)
        expected = -quotient if (a < 0) != (b < 0) else quotient
        assert result.state.regs[3] == expected

    def test_division_overflow_wraps_like_other_alu_ops(self):
        # INT64_MIN / -1 does not fit in 64 bits; it wraps, as ADD/MUL do.
        _, result = run_asm(
            f"    movi r1, {-2**63}\n    movi r2, -1\n    div r3, r1, r2"
        )
        assert result.state.regs[3] == -(2**63)

    def test_shift_amount_masked(self):
        _, result = run_asm(
            "    movi r1, 1\n    movi r2, 65\n    shl r3, r1, r2"
        )
        assert result.state.regs[3] == 2  # 65 & 63 == 1

    def test_64bit_wraparound(self):
        _, result = run_asm(
            "    movi r1, 1\n    movi r2, 63\n    shl r3, r1, r2\n"
            "    add r4, r3, r3"
        )
        assert result.state.regs[3] == -(1 << 63)
        assert result.state.regs[4] == 0

    def test_zero_register_reads_zero_and_ignores_writes(self):
        _, result = run_asm("    movi r0, 99\n    add r1, r0, 5")
        assert result.state.regs[0] == 0
        assert result.state.regs[1] == 5


class TestControlFlow:
    def test_taken_and_not_taken_branches(self):
        trace, result = run_asm(
            """
            movi r1, 1
            bnez r1, yes
            movi r2, 100
        yes:
            beqz r1, no
            movi r3, 7
        no:
        """
        )
        assert result.state.regs[2] == 0
        assert result.state.regs[3] == 7

    def test_loop_iterates(self):
        _, result = run_asm(
            """
            movi r1, 5
        top:
            addi r2, r2, 3
            addi r1, r1, -1
            bnez r1, top
            """
        )
        assert result.state.regs[2] == 15

    def test_call_and_return(self):
        program = assemble(
            """
            .func main
                movi r1, 1
                call helper
                addi r1, r1, 10
                halt
            .endfunc
            .func helper
                addi r1, r1, 100
                ret
            .endfunc
            """
        )
        _, result = execute(program)
        assert result.state.regs[1] == 111

    def test_return_without_call_raises(self):
        program = assemble(".func main\n    ret\n.endfunc")
        with pytest.raises(EmulationError, match="empty call stack"):
            execute(program)

    def test_runaway_recursion_detected(self):
        program = assemble(
            """
            .func main
                call f
                halt
            .endfunc
            .func f
                call f
                ret
            .endfunc
            """
        )
        with pytest.raises(EmulationError, match="call stack overflow"):
            execute(program, max_instructions=100_000)


class TestMemory:
    def test_load_store_roundtrip(self):
        _, result = run_asm(
            """
            movi r1, 10
            movi r2, 42
            st r2, 5(r1)
            ld r3, 5(r1)
            """
        )
        assert result.state.regs[3] == 42
        assert result.state.memory[15] == 42

    def test_uninitialized_memory_reads_zero(self):
        _, result = run_asm("    ld r1, 100(r0)")
        assert result.state.regs[1] == 0

    def test_preloaded_memory(self):
        _, result = run_asm("    ld r1, 3(r0)", memory={3: 77})
        assert result.state.regs[1] == 77


class TestDenseMemory:
    """The word memory is one ``array('q')``: what the old per-word dict
    accepted behaves as before or raises :class:`EmulationError`."""

    def test_dict_argument_is_converted(self):
        state = ArchState(memory={3: 7, 0: 1})
        assert state.memory == array("q", [1, 0, 0, 7])

    def test_array_argument_is_copied(self):
        image = array("q", [4, 5])
        state = ArchState(memory=image)
        state.store(0, 9)
        assert image == array("q", [4, 5])
        assert state.memory == array("q", [9, 5])

    def test_load_past_the_end_reads_zero(self):
        _, result = run_asm("    ld r1, 100(r0)", memory={0: 5})
        assert result.state.regs[1] == 0
        assert len(result.state.memory) == 1

    def test_store_past_the_end_grows_the_array(self):
        _, result = run_asm("    movi r2, 9\n    st r2, 10(r0)",
                            memory={0: 5})
        assert result.state.memory == array("q", [5] + [0] * 9 + [9])

    @pytest.mark.parametrize("op", ["ld r2, 0(r1)", "st r2, 0(r1)"])
    def test_negative_address_raises(self, op):
        with pytest.raises(EmulationError, match="address -1"):
            run_asm(f"    movi r1, -1\n    {op}")

    def test_value_outside_int64_raises(self):
        # shr by 0 reads the register as unsigned: 2**64 - 1.
        with pytest.raises(EmulationError, match="outside int64"):
            run_asm("    movi r1, -1\n    shr r2, r1, 0\n    st r2, 0(r0)")

    def test_growth_past_the_limit_raises(self):
        with pytest.raises(EmulationError, match="outside memory"):
            run_asm(f"    movi r1, {MAX_MEMORY_WORDS}\n    st r1, 0(r1)")
        state = ArchState(memory={0: 1})
        with pytest.raises(EmulationError, match="outside memory"):
            state.store(MAX_MEMORY_WORDS, 1)
        assert len(state.memory) == 1

    @pytest.mark.parametrize("image,match", [
        ({-1: 3}, "address -1 outside memory"),
        ({2: 1 << 63}, "outside int64"),
    ])
    def test_bad_images_raise(self, image, match):
        with pytest.raises(EmulationError, match=match):
            ArchState(memory=image)

    def test_bad_image_is_one_cli_error_line(self, capfd, monkeypatch):
        from repro import __main__ as cli
        from repro.workloads import suite

        monkeypatch.setattr(suite, "fill_memory",
                            lambda *args, **kwargs: {0: 1 << 63})
        assert cli.main(["fig5", "--scale", "0.05", "--benchmarks",
                         "gzip", "--jobs", "1"]) == 2
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [
            "python -m repro: error: store of 9223372036854775808: "
            "outside int64"
        ]

    def test_meld_comparison_reads_zero_past_the_end(self):
        from repro.experiments.meldcompare import assert_equivalent

        short = ArchState(memory={1: 2})
        long = ArchState(memory={1: 2, 3: 0})
        assert_equivalent("probe", short, long)
        assert_equivalent("probe", long, short)
        long.store(5, 7)
        for a, b in ((short, long), (long, short)):
            with pytest.raises(RuntimeError, match=r"memory words \[5\]"):
                assert_equivalent("probe", a, b)


class TestTraceAndBudget:
    def test_trace_records_every_instruction(self):
        trace, result = run_asm("    movi r1, 2\n    addi r1, r1, 1")
        assert len(trace) == result.instruction_count
        assert [d.pc for d in trace] == [0, 1, 2]

    def test_trace_records_branch_outcomes(self):
        trace, _ = run_asm(
            "    movi r1, 1\n    bnez r1, t\n    nop\nt:"
        )
        branch = trace[1]
        assert branch.taken()
        assert branch.next_pc == 3

    def test_trace_records_load_addresses(self):
        trace, _ = run_asm("    movi r1, 4\n    ld r2, 6(r1)")
        assert trace[1].address == 10

    def test_budget_stops_infinite_loop(self):
        program = assemble(".func main\ntop:\n    jmp top\n.endfunc")
        _, result = execute(program, max_instructions=500)
        assert result.hit_budget
        assert not result.halted
        assert result.instruction_count == 500

    def test_on_branch_callback(self, simple_hammock_program,
                                alternating_memory):
        seen = []
        emulator = Emulator(simple_hammock_program)
        emulator.run(
            state=ArchState(memory=alternating_memory),
            on_branch=lambda pc, taken: seen.append((pc, taken)),
        )
        assert seen
        pcs = {pc for pc, _ in seen}
        assert pcs <= set(simple_hammock_program.conditional_branch_pcs())
        # the hammock condition alternates, so both outcomes appear
        hammock_pc = 6
        outcomes = {taken for pc, taken in seen if pc == hammock_pc}
        assert outcomes == {True, False}


class TestArchState:
    def test_copy_is_independent(self):
        state = ArchState(memory={1: 2})
        clone = state.copy()
        clone.regs[5] = 9
        clone.memory[1] = 3
        clone.call_stack.append(7)
        assert state.regs[5] == 0
        assert state.memory[1] == 2
        assert state.call_stack == []
        clone.store(10, 1)
        assert len(state.memory) == 2
