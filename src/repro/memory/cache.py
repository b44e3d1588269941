"""A set-associative cache with true-LRU replacement.

Addresses are *word* addresses (the ISA's memory unit); with the
paper's 64-byte lines and 8-byte words a line holds 8 words, so the
default ``words_per_line`` is 8.  Instruction caches index by pc with
``words_per_line`` = instructions per line.
"""

from collections import OrderedDict

from repro.errors import SimulationError


class Cache:
    """One cache level.

    Parameters mirror Table 1 (sizes are given in lines rather than KB
    so instruction- and data-side caches share the implementation).
    """

    def __init__(self, name, num_sets, associativity, words_per_line=8):
        if num_sets <= 0 or associativity <= 0 or words_per_line <= 0:
            raise SimulationError(f"cache {name!r}: bad geometry")
        self.name = name
        self.num_sets = num_sets
        self.associativity = associativity
        self.words_per_line = words_per_line
        self.hits = 0
        self.misses = 0
        # One OrderedDict per set (line_tag -> None, LRU order =
        # insertion), created when the set is first allocated into: a
        # run touches a small part of a large cache's sets.
        self._sets = [None] * num_sets

    @classmethod
    def from_kilobytes(cls, name, kilobytes, associativity,
                       line_bytes=64, word_bytes=8):
        """Build a cache from a Table 1 style size description."""
        num_lines = (kilobytes * 1024) // line_bytes
        num_sets = max(1, num_lines // associativity)
        return cls(name, num_sets, associativity,
                   words_per_line=line_bytes // word_bytes)

    def _locate(self, address):
        line = address // self.words_per_line
        return line % self.num_sets, line

    def access(self, address):
        """Access ``address``; returns True on hit.  Misses allocate."""
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        if cache_set is None:
            cache_set = self._sets[set_index] = OrderedDict()
        elif tag in cache_set:
            cache_set.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        cache_set[tag] = None
        if len(cache_set) > self.associativity:
            cache_set.popitem(last=False)
        return False

    def contains(self, address):
        """Non-mutating presence probe (no stat or LRU change)."""
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        return cache_set is not None and tag in cache_set

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset(self):
        self.hits = 0
        self.misses = 0
        self._sets = [None] * self.num_sets
