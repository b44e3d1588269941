"""Edge profiles: per-branch taken/not-taken counts.

Edge profiling assumes branch directions are independent of each other
(footnote 6 of the paper); the path enumeration in :mod:`repro.cfg.paths`
multiplies these per-edge probabilities along paths under exactly that
assumption.
"""


class EdgeProfile:
    """Taken/not-taken execution counts per conditional branch pc."""

    def __init__(self):
        self._taken = {}
        self._not_taken = {}

    def record(self, pc, taken):
        if taken:
            self._taken[pc] = self._taken.get(pc, 0) + 1
        else:
            self._not_taken[pc] = self._not_taken.get(pc, 0) + 1

    def exec_count(self, pc):
        """How many times the branch at ``pc`` executed."""
        return self._taken.get(pc, 0) + self._not_taken.get(pc, 0)

    def taken_prob(self, pc, default=0.5):
        """P(taken) for the branch at ``pc``; ``default`` if unexecuted."""
        total = self.exec_count(pc)
        if total == 0:
            return default
        return self._taken.get(pc, 0) / total

    def edge_prob(self, pc, taken, default=0.5):
        """Profiled probability of one direction of the branch at ``pc``.

        This is the ``edge_prob`` callable signature
        :func:`repro.cfg.paths.enumerate_paths` expects.
        """
        p_taken = self.taken_prob(pc, default)
        return p_taken if taken else 1.0 - p_taken

    def executed_branch_pcs(self):
        """All branch pcs seen during profiling."""
        return sorted(set(self._taken) | set(self._not_taken))

    def signature(self):
        """Canonical content tuple: ``(pc, taken, not_taken)`` sorted by pc."""
        return tuple(
            (pc, self._taken.get(pc, 0), self._not_taken.get(pc, 0))
            for pc in self.executed_branch_pcs()
        )

    def remapped(self, pc_map):
        """Counts re-keyed through ``pc_map``; unmapped pcs are dropped.

        Used when a transform pass rewrites the program: surviving
        branches keep their observations at their new pcs, branches the
        transform removed disappear from the profile.
        """
        other = EdgeProfile()
        other._taken = {
            pc_map[pc]: count
            for pc, count in self._taken.items() if pc in pc_map
        }
        other._not_taken = {
            pc_map[pc]: count
            for pc, count in self._not_taken.items() if pc in pc_map
        }
        return other
