"""Every emulated trace is pinned: the digests of all 17 benchmarks x
both input sets at scale 0.1 equal ``tests/golden/trace_digests_0.1.txt``
(made with ``python -m tests.trace_digests 0.1``).

A change to the workload generator, the input images or the emulator
that moves any trace fails here, even where no figure's printed
percentage moves.  CI compares scale 1.0 the same way.
"""

import os

from tests.trace_digests import digest_lines

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "trace_digests_0.1.txt")


def test_trace_digests_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert digest_lines(0.1) == expected
