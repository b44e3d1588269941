"""Architectural state for functional execution."""

from array import array

from repro.errors import EmulationError
from repro.isa.registers import NUM_REGISTERS, ZERO_REGISTER

#: Most words memory may grow to (128 MiB): a store past it is a runaway.
MAX_MEMORY_WORDS = 1 << 24


def dense_memory(memory=None):
    """A new ``array('q')`` image of ``memory``: ``None``, an array
    (copied) or an address -> word mapping (other words read zero)."""
    if isinstance(memory, array):
        return array("q", memory)
    image = array("q")
    for address, value in sorted((memory or {}).items(), reverse=True):
        store_word(image, address, value)
    return image


def load_word(memory, address):
    """``memory[address]``; a word past the end reads zero."""
    if address < 0:
        raise EmulationError(f"load from negative address {address}")
    return memory[address] if address < len(memory) else 0


def store_word(memory, address, value):
    """``memory[address] = value``; a store past the end grows it."""
    if not 0 <= address < MAX_MEMORY_WORDS:
        raise EmulationError(
            f"store to address {address} outside memory "
            f"[0, {MAX_MEMORY_WORDS})")
    if address >= len(memory):
        memory.frombytes(bytes(8 * (address + 1 - len(memory))))
    try:
        memory[address] = value
    except OverflowError:
        raise EmulationError(f"store of {value}: outside int64") from None


class ArchState:
    """Registers, word-addressed memory, and the call stack.

    Memory is one ``array('q')`` indexed by word address (see
    :func:`load_word` and :func:`store_word`).  The call stack holds
    return pcs for ``CALL``/``RET`` (an architectural link stack — this
    keeps the ISA minimal; the timing model separately models a return
    address stack *predictor*).
    """

    __slots__ = ("regs", "memory", "call_stack")

    def __init__(self, memory=None):
        self.regs = [0] * NUM_REGISTERS
        self.memory = dense_memory(memory)
        self.call_stack = []

    def write_reg(self, index, value):
        """Write a register; writes to the zero register are discarded."""
        if index != ZERO_REGISTER:
            self.regs[index] = value

    def load(self, address):
        return load_word(self.memory, address)

    def store(self, address, value):
        store_word(self.memory, address, value)

    def push_return(self, pc):
        if len(self.call_stack) > 10_000:
            raise EmulationError("call stack overflow (runaway recursion?)")
        self.call_stack.append(pc)

    def pop_return(self):
        if not self.call_stack:
            raise EmulationError("RET with empty call stack")
        return self.call_stack.pop()

    def copy(self):
        """Deep-enough copy for checkpoint/restore in tests."""
        clone = ArchState(self.memory)
        clone.regs = list(self.regs)
        clone.call_stack = list(self.call_stack)
        return clone
