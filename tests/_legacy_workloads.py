"""Frozen copy of the input-memory fill from before its pointer chains
got a local Fisher-Yates loop.

This module is the oracle for the workload-fill equivalence tests: it
preserves, verbatim, ``BehaviorRNG.pointer_chain`` (with its
``random.Random.shuffle`` call) and ``fill_memory`` as they were (only
renamed, and reading the frozen chain), so the tests can assert that the
current fill produces identical chains, leaves the generator in the same
state and builds identical memory images, item order included.  Do not
"improve" this file: its value is that it does not change.
"""

from repro.errors import WorkloadError
from repro.workloads.behaviors import BehaviorRNG
from repro.workloads.generator import _behavior_bits


class LegacyBehaviorRNG(BehaviorRNG):
    """:class:`BehaviorRNG` with the original ``pointer_chain``."""

    def pointer_chain(self, length, region_words):
        """A pseudo-random cyclic permutation for mcf-style chasing.

        Returns a list ``next`` of ``length`` indices < ``region_words``
        forming one cycle, so a load chain walks unpredictably over the
        region (defeating locality) but never escapes it.
        """
        rng = self._rng
        indices = list(range(length))
        rng.shuffle(indices)
        chain = [0] * length
        for i in range(length):
            chain[indices[i]] = indices[(i + 1) % length]
        return chain


def legacy_fill_memory(spec, segments, seed, p_shift=0.0, iter_scale=1.0):
    """Generate the input memory image for one input set.

    ``p_shift`` perturbs branch biases and ``iter_scale`` scales loop
    trip counts — this is how the "train" input set differs from the
    "reduced" one (§7.3).
    """
    rng = LegacyBehaviorRNG(seed)
    memory = {}
    n = spec.iterations
    for segment in segments:
        region = segment.region
        kind = region.kind
        if kind in ("simple_hammock", "short_hammock", "ret_hammock",
                    "split"):
            bits = _behavior_bits(rng, region, n, p_shift)
            for i, bit in enumerate(bits):
                memory[segment.base + i] = bit
        elif kind == "nested_hammock":
            outer = _behavior_bits(rng, region, n, p_shift)
            inner = rng.biased(n, min(0.95, region.p + 0.2))
            for i in range(n):
                memory[segment.base + i] = outer[i] | (inner[i] << 1)
        elif kind == "freq_hammock":
            outer = _behavior_bits(rng, region, n, p_shift)
            rare = rng.biased(n, region.rare_prob)
            for i in range(n):
                memory[segment.base + i] = outer[i] | (rare[i] << 1)
        elif kind in ("diverge_loop", "long_loop"):
            mean = max(1.0, region.mean_iters * iter_scale)
            if region.trip_kind == "geometric":
                trips = rng.geometric_trips(n, mean)
            elif region.trip_kind == "jittery":
                trips = rng.jittery_trips(n, mean)
            elif region.trip_kind == "uniform":
                lo = max(1, int(mean * 0.5))
                hi = max(lo + 1, int(mean * 1.5))
                trips = rng.uniform_trips(n, lo, hi)
            else:
                trips = rng.constant_trips(n, max(1, int(mean)))
            if region.gate_prob < 1.0:
                # Blocky gating: long on/off phases keep the gate branch
                # highly predictable (it exists to modulate the loop's
                # *profile weight*, not to add a hard branch).
                period = max(2, round(1.0 / region.gate_prob))
                block = 32
                trips = [
                    t if (i // block) % period == 0 else 0
                    for i, t in enumerate(trips)
                ]
            for i, t in enumerate(trips):
                memory[segment.base + i] = t
        elif kind == "memory":
            chain = rng.pointer_chain(segment.words, segment.words)
            for i, nxt in enumerate(chain):
                memory[segment.base + i] = nxt
        elif kind == "compute":
            pass
        else:  # pragma: no cover - region kinds are closed
            raise WorkloadError(f"no input generator for {kind!r}")
    return memory
