"""Cache and memory-hierarchy tests."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.memory import Cache, MemoryHierarchy


class TestCache:
    def test_first_access_misses_then_hits(self):
        cache = Cache("t", num_sets=4, associativity=2, words_per_line=8)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(7)  # same line
        assert not cache.access(8)  # next line

    def test_lru_eviction(self):
        cache = Cache("t", num_sets=1, associativity=2, words_per_line=1)
        cache.access(0)
        cache.access(1)
        cache.access(0)      # 0 is now MRU
        cache.access(2)      # evicts 1
        assert cache.access(0)
        assert not cache.access(1)

    def test_associativity_respected(self):
        cache = Cache("t", num_sets=1, associativity=4, words_per_line=1)
        for address in range(4):
            cache.access(address)
        assert all(cache.access(a) for a in range(4))

    def test_set_mapping(self):
        cache = Cache("t", num_sets=2, associativity=1, words_per_line=1)
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        assert cache.access(0) and cache.access(1)

    def test_from_kilobytes_geometry(self):
        cache = Cache.from_kilobytes("l1", 64, 4)
        # 64KB / 64B lines = 1024 lines; 4-way => 256 sets
        assert cache.num_sets == 256
        assert cache.associativity == 4
        assert cache.words_per_line == 8

    def test_contains_does_not_mutate(self):
        cache = Cache("t", num_sets=2, associativity=1, words_per_line=1)
        assert not cache.contains(3)
        assert cache.misses == 0

    def test_stats(self):
        cache = Cache("t", num_sets=4, associativity=2)
        cache.access(0)
        cache.access(0)
        assert cache.accesses == 2
        assert cache.miss_rate == pytest.approx(0.5)
        cache.reset()
        assert cache.accesses == 0

    def test_bad_geometry(self):
        with pytest.raises(SimulationError):
            Cache("t", num_sets=0, associativity=1)


class TestHierarchy:
    def test_data_latency_levels(self):
        mem = MemoryHierarchy(prefetch_next_line=False)
        cold = mem.data_latency(0)
        warm = mem.data_latency(0)
        assert cold == (mem.dcache_latency + mem.l2_latency
                        + mem.memory_latency)
        assert warm == mem.dcache_latency

    def test_l2_hit_after_l1_eviction(self):
        mem = MemoryHierarchy(prefetch_next_line=False)
        mem.data_latency(0)
        # Evict line 0 from the (64KB, 4-way) L1 by touching 5 aliases.
        l1_span = mem.dcache.num_sets * mem.dcache.words_per_line
        for i in range(1, 6):
            mem.data_latency(i * l1_span)
        latency = mem.data_latency(0)
        assert latency == mem.dcache_latency + mem.l2_latency

    def test_instruction_latency_levels(self):
        mem = MemoryHierarchy()
        cold = mem.instruction_latency(0)
        warm = mem.instruction_latency(0)
        assert cold > warm == mem.icache_latency

    def test_next_line_prefetch_hides_sequential_stream(self):
        mem = MemoryHierarchy(prefetch_next_line=True)
        mem.data_latency(0)  # miss, prefetches line 1
        latency = mem.data_latency(8)  # line 1: prefetched
        assert latency == mem.dcache_latency

    def test_prefetch_does_not_help_random_chase(self):
        mem = MemoryHierarchy(prefetch_next_line=True)
        mem.data_latency(0)
        # A far-away line was not prefetched.
        assert mem.data_latency(10_000) > mem.dcache_latency

    def test_code_and_data_do_not_collide_in_l2(self):
        mem = MemoryHierarchy()
        mem.instruction_latency(0)
        # data address 0 still misses L2 (code went to a distinct range)
        latency = mem.data_latency(0)
        assert latency >= mem.dcache_latency + mem.l2_latency

    def test_reset(self):
        mem = MemoryHierarchy()
        mem.data_latency(0)
        mem.reset()
        assert mem.dcache.accesses == 0
        assert mem.data_latency(0) > mem.dcache_latency


class EagerCache:
    """The cache as it was when every set was built up front (frozen
    reference for :class:`TestLazySets`; do not change it)."""

    def __init__(self, num_sets, associativity, words_per_line):
        self.num_sets = num_sets
        self.associativity = associativity
        self.words_per_line = words_per_line
        self.hits = 0
        self.misses = 0
        self._sets = [OrderedDict() for _ in range(num_sets)]

    def _locate(self, address):
        line = address // self.words_per_line
        return line % self.num_sets, line

    def access(self, address):
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        cache_set[tag] = None
        if len(cache_set) > self.associativity:
            cache_set.popitem(last=False)
        return False

    def contains(self, address):
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def reset(self):
        self.hits = 0
        self.misses = 0
        self._sets = [OrderedDict() for _ in range(self.num_sets)]


def _lru_order(cache, set_index):
    """The tags held in one set, least recently used first."""
    return list(cache._sets[set_index] or ())


@st.composite
def cache_streams(draw):
    num_sets = draw(st.sampled_from((1, 2, 3, 16, 256)))
    associativity = draw(st.integers(min_value=1, max_value=8))
    words_per_line = draw(st.sampled_from((1, 4, 8)))
    span = num_sets * associativity * words_per_line * 3
    addresses = draw(st.lists(
        st.integers(min_value=0, max_value=span), max_size=300))
    return num_sets, associativity, words_per_line, addresses


class TestLazySets:
    """Sets built on first touch behave like sets built up front."""

    @staticmethod
    def _replay(lazy, eager, addresses):
        for address in addresses:
            set_index = lazy._locate(address)[0]
            before = _lru_order(eager, set_index)
            assert lazy.contains(address) == eager.contains(address)
            assert lazy.access(address) == eager.access(address)
            after = _lru_order(eager, set_index)
            assert _lru_order(lazy, set_index) == after
            victims = [tag for tag in before if tag not in after]
            assert len(victims) <= 1
        assert (lazy.hits, lazy.misses) == (eager.hits, eager.misses)
        for set_index in range(lazy.num_sets):
            assert _lru_order(lazy, set_index) \
                == _lru_order(eager, set_index)

    @given(cache_streams())
    @settings(max_examples=60, deadline=None)
    def test_random_streams_match_eager_sets(self, stream):
        num_sets, associativity, words_per_line, addresses = stream
        lazy = Cache("t", num_sets, associativity, words_per_line)
        eager = EagerCache(num_sets, associativity, words_per_line)
        self._replay(lazy, eager, addresses)
        lazy.reset()
        eager.reset()
        assert lazy._sets == [None] * num_sets
        assert (lazy.hits, lazy.misses) == (0, 0)
        self._replay(lazy, eager, addresses[::-1])

    def test_evicts_the_least_recently_used_line(self):
        lazy = Cache("t", num_sets=2, associativity=2, words_per_line=1)
        eager = EagerCache(2, 2, 1)
        # Set 0 sees lines 0, 2, 0, 4: line 2 is the victim.
        self._replay(lazy, eager, [0, 2, 0, 4])
        assert _lru_order(lazy, 0) == [0, 4]
        assert not lazy.contains(2)

    def test_contains_on_an_untouched_set_creates_nothing(self):
        cache = Cache("t", num_sets=4, associativity=2, words_per_line=1)
        cache.access(0)
        assert not cache.contains(1)
        assert not cache.contains(6)
        assert cache._sets[1] is None and cache._sets[2] is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_a_new_cache_builds_no_set(self):
        mem = MemoryHierarchy()
        for cache in (mem.icache, mem.dcache, mem.l2):
            assert cache._sets == [None] * cache.num_sets
