"""Enhanced JRS branch confidence estimator.

Jacobsen, Rotenberg & Smith's estimator, with the "enhanced" indexing
of Grunwald et al. (pc XOR global branch history).  Table 1's DMP
support: 2KB table, 12-bit history, threshold 14.  Each entry is a
4-bit *miss distance counter*: incremented (saturating at 15) on a
correct prediction of the branch mapping there, reset to zero on a
misprediction.  A branch is *high confidence* when its counter is at
least the threshold; DMP enters dpred-mode on *low* confidence.

The estimator also measures its own PVN (predictive value of a
negative — the fraction of low-confidence predictions that really were
mispredictions), the quantity the paper's cost model calls
``Acc_Conf`` (§4.1, usually 15%–50%).
"""

COUNTER_MAX = 15


class JRSConfidenceEstimator:
    """The enhanced JRS confidence estimator of Table 1."""

    def __init__(self, num_entries=4096, history_bits=12, threshold=14):
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if not 0 < threshold <= COUNTER_MAX:
            raise ValueError("threshold must be in (0, 15]")
        self.num_entries = num_entries
        self.history_bits = history_bits
        self.threshold = threshold
        self._history_mask = (1 << history_bits) - 1
        self.reset()

    def reset(self):
        self._counters = [0] * self.num_entries
        self._history = 0
        self.low_confidence_count = 0
        self.low_confidence_mispredicted = 0
        self.queries = 0

    def _index(self, pc):
        return (pc ^ (self._history & (self.num_entries - 1))) \
            % self.num_entries

    def is_low_confidence(self, pc):
        """Query confidence for the branch at ``pc`` (no state change)."""
        return self._counters[self._index(pc)] < self.threshold

    def update(self, pc, mispredicted, was_low_confidence=None):
        """Commit the outcome of one prediction.

        ``was_low_confidence`` lets the caller pass the confidence it
        acted on (queried before other updates); if omitted the current
        table state is consulted.
        """
        index = self._index(pc)
        if was_low_confidence is None:
            was_low_confidence = self._counters[index] < self.threshold
        self.queries += 1
        if was_low_confidence:
            self.low_confidence_count += 1
            if mispredicted:
                self.low_confidence_mispredicted += 1
        if mispredicted:
            self._counters[index] = 0
        else:
            self._counters[index] = min(COUNTER_MAX, self._counters[index] + 1)
        self._history = ((self._history << 1) | int(mispredicted)) \
            & self._history_mask

    @property
    def pvn(self):
        """Measured Acc_Conf: P(mispredicted | low confidence)."""
        if self.low_confidence_count == 0:
            return 0.0
        return self.low_confidence_mispredicted / self.low_confidence_count

    @property
    def coverage(self):
        """Fraction of all predictions flagged low-confidence."""
        if self.queries == 0:
            return 0.0
        return self.low_confidence_count / self.queries

    def snapshot(self):
        """JSON-ready summary of the estimator's own behaviour."""
        return {
            "queries": self.queries,
            "low_confidence": self.low_confidence_count,
            "low_confidence_mispredicted": self.low_confidence_mispredicted,
            "pvn": self.pvn,
            "coverage": self.coverage,
        }
