"""The input-memory fill matches its frozen predecessor
(``tests/_legacy_workloads.py``) exactly.

``BehaviorRNG.pointer_chain`` draws its Fisher-Yates indices in a local
loop over an ``array('q')`` instead of calling ``random.Random.shuffle``
on a list; it must produce the same chain and leave the generator in
the same state, so every later draw (the next region's behaviour bits)
is unchanged too.  The whole
fill is compared per benchmark in ``tests/test_workloads.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.behaviors import BehaviorRNG

from tests._legacy_workloads import LegacyBehaviorRNG

#: Lengths at and around every shuffle band edge (the draw width k
#: changes at powers of two), up to the largest region the suite fills.
CHAIN_LENGTHS = sorted(
    {0, 1, 2, 3}
    | {(1 << k) + d for k in range(2, 17) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("length", CHAIN_LENGTHS)
@given(seed=st.integers(min_value=0, max_value=2**64))
@settings(max_examples=3, deadline=None)
def test_pointer_chain_matches_shuffle(length, seed):
    current, legacy = BehaviorRNG(seed), LegacyBehaviorRNG(seed)
    chain = current.pointer_chain(length, length)
    assert chain.typecode == "q"
    assert list(chain) == legacy.pointer_chain(length, length)
    assert current._rng.getrandbits(64) == legacy._rng.getrandbits(64)

