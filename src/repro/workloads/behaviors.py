"""Branch-behaviour input generators.

Benchmarks read their branch conditions from memory, so branch
predictability is a property of the *input data*, exactly as in real
programs.  The generators below produce outcome streams with
controllable difficulty:

- ``biased``: i.i.d. Bernoulli outcomes.  A predictor converges to the
  majority direction, so the misprediction rate approaches
  ``min(p, 1-p)`` — the knob for hard-to-predict branches.
- ``markov``: first-order correlated outcomes; history-based
  predictors learn these well (easy branches with bursty shape).
- ``pattern``: a fixed periodic pattern with noise — very predictable
  except for the injected noise rate.
- ``trip counts``: geometric or uniform loop trip counts; geometric
  with a small mean models parser-style unpredictable exits.

Every generator draws from an explicit :class:`random.Random` seed, so
input sets are reproducible and "reduced" vs "train" differ only by
seed and parameter shifts.
"""

import random
from itertools import islice


class BehaviorRNG:
    """A seeded source of branch-behaviour streams."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def biased(self, n, p_true):
        """n i.i.d. outcomes, P(1) = ``p_true``."""
        rng = self._rng
        return [1 if rng.random() < p_true else 0 for _ in range(n)]

    def markov(self, n, p_same=0.9, start=1):
        """Correlated outcomes: repeat the previous with prob ``p_same``."""
        rng = self._rng
        out = []
        state = start
        for _ in range(n):
            if rng.random() >= p_same:
                state = 1 - state
            out.append(state)
        return out

    def pattern(self, n, period=7, duty=3, noise=0.02):
        """Periodic duty-cycle pattern with ``noise`` flip probability."""
        rng = self._rng
        out = []
        for i in range(n):
            bit = 1 if (i % period) < duty else 0
            if rng.random() < noise:
                bit = 1 - bit
            out.append(bit)
        return out

    def bursty(self, n, hard_fraction, window=48):
        """Phased outcomes: easy phases alternate with i.i.d.-random ones.

        This is the paper's motivating branch behaviour ("instances of
        the same static branch could be easy or hard to predict during
        different phases", §1): during easy phases the outcome is
        constant (predictors and the confidence estimator saturate);
        during hard phases outcomes are fair coin flips.  Mispredictions
        therefore *cluster* into low-confidence phases, which is what
        gives the JRS estimator its 15-50% PVN on real workloads.

        ``hard_fraction`` is the fraction of executions in hard phases,
        so the long-run misprediction rate ≈ ``hard_fraction / 2``.
        """
        rng = self._rng
        hard_fraction = min(0.95, max(0.02, hard_fraction))
        hard_len = max(4, int(window * hard_fraction))
        easy_len = max(4, int(window - hard_len))
        out = []
        hard = False
        remaining = easy_len
        easy_bit = 0
        while len(out) < n:
            if remaining <= 0:
                hard = not hard
                base = hard_len if hard else easy_len
                # Jitter phase lengths so they do not sync with the
                # predictor's history length.
                remaining = max(2, int(base * (0.5 + rng.random())))
                if not hard:
                    easy_bit = rng.randint(0, 1)
            out.append(rng.randint(0, 1) if hard else easy_bit)
            remaining -= 1
        return out

    def geometric_trips(self, n, mean, cap=None):
        """Trip counts ≥ 1 with geometric tail (unpredictable exits)."""
        rng = self._rng
        if mean <= 1.0:
            return [1] * n
        p_stop = 1.0 / mean
        cap = cap or int(mean * 8) + 4
        out = []
        for _ in range(n):
            trips = 1
            while trips < cap and rng.random() > p_stop:
                trips += 1
            out.append(trips)
        return out

    def uniform_trips(self, n, lo, hi):
        """Trip counts uniform in [lo, hi] (mildly unpredictable)."""
        rng = self._rng
        return [rng.randint(lo, hi) for _ in range(n)]

    def jittery_trips(self, n, mean, deviation_prob=0.3):
        """Mostly-constant trip counts with occasional ±1 deviations.

        A well-structured loop whose trip count the predictor can learn,
        except for a ``deviation_prob`` fraction of instances — those
        are the exit mispredictions a diverge loop can cover.
        """
        rng = self._rng
        base = max(1, int(round(mean)))
        out = []
        for _ in range(n):
            trips = base
            if rng.random() < deviation_prob:
                trips = max(1, base + (1 if rng.random() < 0.5 else -1))
            out.append(trips)
        return out

    def constant_trips(self, n, value):
        """Fixed trip counts (fully predictable after warmup)."""
        return [value] * n

    def values(self, n, lo, hi):
        """Arbitrary data values (for compute/memory regions)."""
        rng = self._rng
        return [rng.randint(lo, hi) for _ in range(n)]

    def pointer_chain(self, length, region_words):
        """A pseudo-random cyclic permutation for mcf-style chasing.

        Returns a list ``next`` of ``length`` indices < ``region_words``
        forming one cycle, so a load chain walks unpredictably over the
        region (defeating locality) but never escapes it.
        """
        # random.Random.shuffle, inlined: the same Fisher-Yates swaps
        # from the same getrandbits(k) rejection draws (k = bit length
        # of the bound, constant over a power-of-two band), so the
        # permutation and the generator state after it are unchanged.
        getrandbits = self._rng.getrandbits
        indices = list(range(length))
        for k in range(length.bit_length(), 1, -1):
            for bound in range(min(length, (1 << k) - 1),
                               (1 << (k - 1)) - 1, -1):
                j = getrandbits(k)
                while j >= bound:
                    j = getrandbits(k)
                i = bound - 1
                indices[i], indices[j] = indices[j], indices[i]
        # chain[indices[i]] = indices[i + 1], cyclically, reusing the
        # int objects of ``indices`` and copying no list.
        chain = [0] * length
        for here, following in zip(indices, islice(indices, 1, None)):
            chain[here] = following
        if length:
            chain[indices[-1]] = indices[0]
        return chain
