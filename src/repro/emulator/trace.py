"""Compact dynamic-instruction traces.

A functional trace at the paper's scale is tens of thousands of
retired instructions per benchmark, and a full suite run holds dozens
of them alive at once.  Storing each instruction as a
:class:`~repro.emulator.emulator.DynamicInstruction` object costs
~100 bytes of Python object overhead per entry; :class:`Trace` stores
the same three fields in parallel ``array('q')`` columns — 24 bytes
per entry, several-fold less memory, and column iteration the timing
simulator can replay without materializing one object per instruction.

The column layout is also the persistent artifact cache's on-disk
format: :meth:`Trace.to_bytes` / :meth:`Trace.from_bytes` round-trip
the raw column buffers with no per-entry encoding work.

A finished trace is *sealed* (:meth:`Trace.seal`): its columns become
read-only views and the SHA-256 of their contents is computed once and
kept in :attr:`Trace.digest`, so the timing simulator's memo keys stop
re-hashing a trace that cannot change.
"""

import hashlib
from array import array

#: Column sentinel for "no effective address" (loads/stores always
#: carry a real non-negative word address).
NO_ADDRESS = -1


class TraceView:
    """One trace entry, materialized on demand from the columns.

    Field-compatible with
    :class:`~repro.emulator.emulator.DynamicInstruction` so code that
    indexes a trace (``trace[i].pc``) works on either representation.
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
        return f"TraceView(pc={self.pc}, next_pc={self.next_pc})"


def columns_digest(columns):
    """SHA-256 of the ``(pc, next_pc, address)`` int64 column buffers."""
    digest = hashlib.sha256()
    for column in columns:
        digest.update(column)
    return digest.digest()


class Trace:
    """Parallel-array dynamic trace: pc / next_pc / address columns.

    ``digest`` is ``None`` until :meth:`seal`, then the
    :func:`columns_digest` of the (now read-only) columns.
    """

    __slots__ = ("pcs", "next_pcs", "addresses", "digest")

    def __init__(self):
        self.pcs = array("q")
        self.next_pcs = array("q")
        self.addresses = array("q")
        self.digest = None

    def seal(self):
        """Make the columns read-only and keep their digest; returns
        ``self``.  Sealing a sealed trace does nothing."""
        if self.digest is None:
            self.pcs, self.next_pcs, self.addresses = (
                memoryview(column).toreadonly()
                for column in (self.pcs, self.next_pcs, self.addresses)
            )
            self.digest = columns_digest(
                (self.pcs, self.next_pcs, self.addresses))
        return self

    def __reduce__(self):
        # Read-only views do not pickle: ship the raw columns, and
        # seal the copy again if this trace was sealed.
        return _rebuild, (*self.to_bytes(), self.digest is not None)

    # -- recording (the emulator's hot path) ---------------------------

    def record(self, pc, next_pc, address=None):
        """Append one retired instruction (a sealed trace raises)."""
        if self.digest is not None:
            raise TypeError("cannot record into a sealed trace")
        self.pcs.append(pc)
        self.next_pcs.append(next_pc)
        self.addresses.append(NO_ADDRESS if address is None else address)

    def append(self, dyn):
        """List-protocol compatibility: append a DynamicInstruction."""
        self.record(dyn.pc, dyn.next_pc, dyn.address)

    # -- consumption ---------------------------------------------------

    def rows(self):
        """Iterate ``(pc, next_pc, address)`` int triples.

        ``address`` is :data:`NO_ADDRESS` where the entry carried none;
        consumers that only read addresses for loads/stores (the timing
        simulator) never observe the sentinel.
        """
        return zip(self.pcs, self.next_pcs, self.addresses)

    def __len__(self):
        return len(self.pcs)

    def __getitem__(self, index):
        address = self.addresses[index]
        return TraceView(
            self.pcs[index],
            self.next_pcs[index],
            None if address == NO_ADDRESS else address,
        )

    def __iter__(self):
        for pc, next_pc, address in self.rows():
            yield TraceView(
                pc, next_pc, None if address == NO_ADDRESS else address
            )

    @property
    def nbytes(self):
        """Memory held by the column buffers."""
        return (
            self.pcs.itemsize * len(self.pcs)
            + self.next_pcs.itemsize * len(self.next_pcs)
            + self.addresses.itemsize * len(self.addresses)
        )

    # -- (de)serialization for the persistent artifact cache -----------

    def to_bytes(self):
        """The three column buffers as raw bytes (pc, next_pc, address)."""
        return (
            self.pcs.tobytes(),
            self.next_pcs.tobytes(),
            self.addresses.tobytes(),
        )

    @classmethod
    def from_bytes(cls, pc_bytes, next_pc_bytes, address_bytes):
        trace = cls()
        trace.pcs.frombytes(pc_bytes)
        trace.next_pcs.frombytes(next_pc_bytes)
        trace.addresses.frombytes(address_bytes)
        if not len(trace.pcs) == len(trace.next_pcs) == len(trace.addresses):
            raise ValueError("trace column lengths disagree")
        return trace


def _rebuild(pc_bytes, next_pc_bytes, address_bytes, sealed):
    """Unpickle a :class:`Trace` (see :meth:`Trace.__reduce__`)."""
    trace = Trace.from_bytes(pc_bytes, next_pc_bytes, address_bytes)
    return trace.seal() if sealed else trace


def trace_rows(trace):
    """``(pc, next_pc, address)`` triples for a Trace *or* a plain list.

    The shared consumption protocol: the timing simulator replays
    either representation through the same loop.  For object traces the
    address may be ``None`` — as before, only load/store entries are
    ever dereferenced.
    """
    if isinstance(trace, Trace):
        return trace.rows()
    return ((dyn.pc, dyn.next_pc, dyn.address) for dyn in trace)
