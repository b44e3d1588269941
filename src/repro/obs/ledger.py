"""The decision ledger: compile-time verdicts joined to runtime outcomes.

Two ledgers close the paper's estimate-vs-observed loop (§4's cost
model against what the simulator actually measured):

- :class:`SelectionLedger` — every selection pass records one
  :class:`SelectionDecision` per candidate it accepts or rejects,
  carrying the cost-model numbers (estimated dpred overhead, estimated
  flush savings, the threshold/rule that fired).  The pipeline carries
  the ledger on the :class:`~repro.compiler.passes.SelectionState`.
- :class:`RuntimeLedger` — the simulator's per-pc episode accounting
  (episodes, merged/unmerged/squashed, avoided vs. taken flushes,
  wrong-path instructions, select-µops, episode cycles) folded in once
  per run, plus the run-level :class:`~repro.uarch.stats.SimStats`
  totals so :meth:`RuntimeLedger.reconcile` can prove nothing was
  dropped.

Both serialize to plain dicts; :mod:`repro.obs.explain` joins them
per static branch.  A :class:`RuntimeLedger` can also be rebuilt from
a JSONL trace log (:meth:`RuntimeLedger.from_trace`) — the episode
events carry enough information to reproduce the per-branch counters
exactly, torn trailing lines tolerated.
"""

from dataclasses import dataclass
from typing import Optional

#: Per-branch runtime counter names, in the simulator's slot order.
RUNTIME_COUNTERS = (
    "executions",        # conditional-branch instances
    "mispredictions",    # predictor misses
    "episodes",          # dpred episodes entered
    "flushes_avoided",   # mispredictions covered by an episode
    "flushes",           # pipeline flushes charged to this pc
    "merged",            # episodes that merged (select-µops inserted)
    "unmerged",          # episodes resolved without merging
    "squashed",          # episodes killed by a flush on the dpred path
    "wrong_path_insts",  # synthesized wrong-path instructions fetched
    "select_uops",       # select-µops charged
    "episode_cycles",    # summed episode durations in cycles
)


@dataclass
class SelectionDecision:
    """One pass's verdict on one static branch."""

    branch_pc: int
    verdict: str                   # "selected" | "rejected"
    pass_name: str                 # which pipeline pass decided
    reason: str                    # source (selected) or reject reason
    rule: str                      # the threshold/decision rule that fired
    kind: str = ""                 # diverge kind for selected branches
    always_predicate: bool = False
    num_cfm_points: int = 0
    num_select_uops: int = 0
    #: Cost-model terms (None when a threshold heuristic decided).
    est_overhead: Optional[float] = None    # fetch cycles per entry
    est_cost: Optional[float] = None        # Equation (1); < 0 selects
    est_flush_savings: Optional[float] = None  # misp_penalty·Acc_Conf
    merge_prob: Optional[float] = None

    @property
    def est_net_benefit(self):
        """Estimated net cycles gained per dpred entry (None-safe)."""
        if self.est_cost is None:
            return None
        return -self.est_cost

    def as_dict(self):
        return {
            "branch_pc": self.branch_pc,
            "verdict": self.verdict,
            "pass": self.pass_name,
            "reason": self.reason,
            "rule": self.rule,
            "kind": self.kind,
            "always_predicate": self.always_predicate,
            "num_cfm_points": self.num_cfm_points,
            "num_select_uops": self.num_select_uops,
            "est_overhead": self.est_overhead,
            "est_cost": self.est_cost,
            "est_flush_savings": self.est_flush_savings,
            "merge_prob": self.merge_prob,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            branch_pc=data["branch_pc"],
            verdict=data["verdict"],
            pass_name=data.get("pass", ""),
            reason=data.get("reason", ""),
            rule=data.get("rule", ""),
            kind=data.get("kind", ""),
            always_predicate=data.get("always_predicate", False),
            num_cfm_points=data.get("num_cfm_points", 0),
            num_select_uops=data.get("num_select_uops", 0),
            est_overhead=data.get("est_overhead"),
            est_cost=data.get("est_cost"),
            est_flush_savings=data.get("est_flush_savings"),
            merge_prob=data.get("merge_prob"),
        )


def _default_selected_rule(branch, report):
    if report is not None:
        return "dpred_cost<0"
    if branch.source == "short-hammock":
        return "short-hammock-always"
    if branch.source == "loop":
        return "loop-heuristics"
    return "threshold-heuristics"


def _default_rejected_rule(reason):
    if reason == "cost-model":
        return "dpred_cost>=0"
    if reason == "easy-branch-filter":
        return "misp_rate<floor"
    if reason == "2d-profile-filter":
        return "always-easy-2d"
    if reason.startswith("loop:"):
        return reason[len("loop:"):]
    return reason


class SelectionLedger:
    """Accept/reject decisions for every candidate the compiler saw.

    Decisions append in pipeline order; :meth:`final` returns the last
    (winning) decision per pc — a branch rejected by the cost model can
    still be selected later by e.g. the return-CFM pass.
    """

    def __init__(self):
        self.decisions = []

    def __len__(self):
        return len(self.decisions)

    def record_selected(self, branch, pass_name, report=None, rule=None,
                        params=None):
        """Record a :class:`~repro.core.marks.DivergeBranch` acceptance."""
        savings = None
        if params is not None:
            # Expected flush-penalty cycles recovered per dpred entry
            # under the model's assumptions (Equation 1's benefit term).
            savings = params.misp_penalty * params.acc_conf
        self.decisions.append(SelectionDecision(
            branch_pc=branch.branch_pc,
            verdict="selected",
            pass_name=pass_name,
            reason=branch.source,
            rule=rule or _default_selected_rule(branch, report),
            kind=branch.kind.value,
            always_predicate=branch.always_predicate,
            num_cfm_points=len(branch.cfm_points),
            num_select_uops=branch.num_select_uops,
            est_overhead=report.dpred_overhead if report else None,
            est_cost=report.dpred_cost if report else None,
            est_flush_savings=savings if report else None,
            merge_prob=report.merge_prob_total if report else None,
        ))

    def record_rejected(self, branch_pc, pass_name, reason, report=None,
                        rule=None, params=None):
        savings = None
        if params is not None and report is not None:
            savings = params.misp_penalty * params.acc_conf
        self.decisions.append(SelectionDecision(
            branch_pc=branch_pc,
            verdict="rejected",
            pass_name=pass_name,
            reason=reason,
            rule=rule or _default_rejected_rule(reason),
            est_overhead=report.dpred_overhead if report else None,
            est_cost=report.dpred_cost if report else None,
            est_flush_savings=savings,
            merge_prob=report.merge_prob_total if report else None,
        ))

    def final(self):
        """pc -> the last (winning) decision for that pc."""
        result = {}
        for decision in self.decisions:
            result[decision.branch_pc] = decision
        return result

    def history(self, pc):
        """Every decision recorded for ``pc``, in pipeline order."""
        return [d for d in self.decisions if d.branch_pc == pc]

    def remapped(self, pc_map, keep_reasons=()):
        """A new ledger with decision pcs translated through ``pc_map``.

        Decisions whose ``reason`` is in ``keep_reasons`` keep their
        pc verbatim — a transform pass records its removals in
        *original* pc space while later passes decide in the rewritten
        program's, so only the latter need translating back.  Pcs
        absent from the map pass through unchanged.
        """
        from dataclasses import replace

        ledger = SelectionLedger()
        for decision in self.decisions:
            if decision.reason in keep_reasons:
                ledger.decisions.append(decision)
            else:
                ledger.decisions.append(replace(
                    decision,
                    branch_pc=pc_map.get(
                        decision.branch_pc, decision.branch_pc
                    ),
                ))
        return ledger

    def selected_pcs(self):
        return sorted(
            pc for pc, d in self.final().items() if d.verdict == "selected"
        )

    def counts(self):
        final = self.final().values()
        return {
            "decisions": len(self.decisions),
            "selected": sum(1 for d in final if d.verdict == "selected"),
            "rejected": sum(1 for d in final if d.verdict == "rejected"),
        }

    def as_dict(self):
        return {
            "counts": self.counts(),
            "decisions": [d.as_dict() for d in self.decisions],
        }

    @classmethod
    def from_dict(cls, data):
        ledger = cls()
        for entry in data.get("decisions", ()):
            ledger.decisions.append(SelectionDecision.from_dict(entry))
        return ledger


class RuntimeLedger:
    """Per-pc dpred outcome aggregates plus run-level totals.

    The simulator folds its per-branch counter lists in once per run
    via :meth:`record_run`; multiple runs accumulate (a campaign cell
    or an ``explain`` invocation normally records exactly one DMP run).
    """

    def __init__(self):
        #: pc -> counter list aligned with :data:`RUNTIME_COUNTERS`.
        self._branches = {}
        #: One totals dict per recorded run (see :meth:`record_run`).
        self.runs = []

    def __len__(self):
        return len(self._branches)

    def _counters(self, pc):
        counters = self._branches.get(pc)
        if counters is None:
            counters = self._branches[pc] = [0] * len(RUNTIME_COUNTERS)
        return counters

    def record_run(self, label, per_branch, stats):
        """Fold one run's per-pc counter lists and SimStats totals in."""
        for pc, counters in per_branch.items():
            mine = self._counters(pc)
            for index, value in enumerate(counters):
                mine[index] += value
        self.runs.append({
            "label": label,
            "cycles": stats.cycles,
            "retired_instructions": stats.retired_instructions,
            "mispredictions": stats.mispredictions,
            "pipeline_flushes": stats.pipeline_flushes,
            "dpred_episodes": stats.dpred_episodes,
            "dpred_episodes_merged": stats.dpred_episodes_merged,
            "dpred_flushes_avoided": stats.dpred_flushes_avoided,
            "dpred_wrong_path_insts": stats.dpred_wrong_path_insts,
            "dpred_select_uops": stats.dpred_select_uops,
        })

    def remapped(self, pc_map):
        """A new ledger with branch pcs translated through ``pc_map``.

        Counters of pcs mapping to the same translated pc sum; the
        per-run totals carry over unchanged (:meth:`reconcile` is
        pc-agnostic, so consistency is preserved).
        """
        ledger = RuntimeLedger()
        for pc, counters in self._branches.items():
            mine = ledger._counters(pc_map.get(pc, pc))
            for index, value in enumerate(counters):
                mine[index] += value
        ledger.runs = [dict(run) for run in self.runs]
        return ledger

    def branch(self, pc):
        """The named counter dict for one pc (zeros when unseen)."""
        counters = self._branches.get(pc, [0] * len(RUNTIME_COUNTERS))
        return dict(zip(RUNTIME_COUNTERS, counters))

    def pcs(self):
        return sorted(self._branches)

    def branches(self):
        return {pc: self.branch(pc) for pc in self.pcs()}

    def totals(self):
        """Sum of every per-pc counter across the ledger."""
        sums = [0] * len(RUNTIME_COUNTERS)
        for counters in self._branches.values():
            for index, value in enumerate(counters):
                sums[index] += value
        return dict(zip(RUNTIME_COUNTERS, sums))

    def run_totals(self):
        keys = (
            "pipeline_flushes", "dpred_episodes", "dpred_episodes_merged",
            "dpred_flushes_avoided", "dpred_wrong_path_insts",
            "dpred_select_uops",
        )
        return {key: sum(run[key] for run in self.runs) for key in keys}

    def reconcile(self):
        """Per-branch sums vs. the recorded run totals — must be exact.

        Returns a dict with one ``{"ledger": x, "stats": y}`` entry per
        reconciled counter and a ``consistent`` flag.  A mismatch means
        the simulator attributed an outcome to no branch (or double
        counted one), which would make any per-branch diagnosis lie.
        """
        branch = self.totals()
        runs = self.run_totals()
        pairs = {
            "episodes": (branch["episodes"], runs["dpred_episodes"]),
            "merged": (branch["merged"], runs["dpred_episodes_merged"]),
            "flushes_avoided": (
                branch["flushes_avoided"], runs["dpred_flushes_avoided"]
            ),
            "flushes": (branch["flushes"], runs["pipeline_flushes"]),
            "wrong_path_insts": (
                branch["wrong_path_insts"], runs["dpred_wrong_path_insts"]
            ),
            "select_uops": (
                branch["select_uops"], runs["dpred_select_uops"]
            ),
        }
        result = {
            key: {"ledger": mine, "stats": theirs}
            for key, (mine, theirs) in pairs.items()
        }
        result["consistent"] = all(
            mine == theirs for mine, theirs in pairs.values()
        )
        return result

    def as_dict(self):
        return {
            "branches": {
                str(pc): self.branch(pc) for pc in self.pcs()
            },
            "runs": list(self.runs),
            "totals": self.totals(),
            "reconciliation": self.reconcile(),
        }

    @classmethod
    def from_dict(cls, data):
        ledger = cls()
        for pc_str, entry in data.get("branches", {}).items():
            counters = ledger._counters(int(pc_str))
            for index, name in enumerate(RUNTIME_COUNTERS):
                counters[index] += entry.get(name, 0)
        ledger.runs = list(data.get("runs", ()))
        return ledger

    @classmethod
    def from_trace(cls, path):
        """Rebuild a runtime ledger from a JSONL trace log.

        Uses the dpred episode events (``start``/``merge``/``end``/
        ``flush``/``extend``) plus ``uarch.pipeline.flush`` and
        ``sim.run.end``.  Corrupt lines (a torn tail from a crash) are
        skipped, matching the campaign journal's contract; the count is
        exposed as ``ledger.corrupt_lines``.
        """
        from repro.obs.tracer import iter_records

        index = {name: i for i, name in enumerate(RUNTIME_COUNTERS)}
        episodes = index["episodes"]
        avoided = index["flushes_avoided"]
        flushes = index["flushes"]
        merged = index["merged"]
        unmerged = index["unmerged"]
        squashed = index["squashed"]
        wrong_path = index["wrong_path_insts"]
        selects = index["select_uops"]
        cycles = index["episode_cycles"]

        ledger = cls()
        corrupt = []
        for record in iter_records(path, strict=False, corrupt=corrupt):
            kind = record.get("type")
            if kind == "dpred.episode.start":
                counters = ledger._counters(record["branch_pc"])
                counters[episodes] += 1
                counters[wrong_path] += record.get("wrong_path_insts", 0)
                counters[selects] += record.get("select_uops", 0)
                if record.get("mispredicted"):
                    counters[avoided] += 1
            elif kind == "dpred.episode.merge":
                counters = ledger._counters(record["branch_pc"])
                counters[merged] += 1
                counters[selects] += record.get("select_uops", 0)
                counters[cycles] += record.get("duration_cycles", 0)
            elif kind == "dpred.episode.end":
                counters = ledger._counters(record["branch_pc"])
                counters[unmerged] += 1
                counters[cycles] += record.get("duration_cycles", 0)
            elif kind == "dpred.episode.flush":
                counters = ledger._counters(record["branch_pc"])
                counters[squashed] += 1
                counters[cycles] += record.get("duration_cycles", 0)
            elif kind == "dpred.episode.extend":
                counters = ledger._counters(record["branch_pc"])
                counters[avoided] += 1
                counters[wrong_path] += record.get("extra_insts", 0)
            elif kind == "uarch.pipeline.flush":
                ledger._counters(record["pc"])[flushes] += 1
            elif kind == "sim.run.end":
                ledger.runs.append({
                    "label": record.get("label", ""),
                    "cycles": record.get("cycles", 0),
                    "retired_instructions": record.get(
                        "retired_instructions", 0),
                    "mispredictions": record.get("mispredictions", 0),
                    "pipeline_flushes": record.get("pipeline_flushes", 0),
                    "dpred_episodes": record.get("dpred_episodes", 0),
                    "dpred_episodes_merged": record.get(
                        "dpred_episodes_merged", 0),
                    "dpred_flushes_avoided": record.get(
                        "dpred_flushes_avoided", 0),
                    "dpred_wrong_path_insts": record.get(
                        "dpred_wrong_path_insts", 0),
                    "dpred_select_uops": record.get(
                        "dpred_select_uops", 0),
                })
        ledger.corrupt_lines = len(corrupt)
        return ledger
