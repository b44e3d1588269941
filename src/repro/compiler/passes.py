"""The selection passes, as composable pipeline stages.

Each paper algorithm is one :class:`Pass` operating on a shared
:class:`SelectionState`:

- *candidate producers* (exact §3.3, freq §3.3, return-CFM §3.5,
  diverge loops §5.2) append to the pending candidate list or the
  annotation;
- *candidate filters* (min-misprediction-rate, 2D-profile §8.3,
  cost model §4) narrow the pending list — the cost filter is the
  single implementation shared by hammock and return-CFM candidates;
- *finishers* (short-hammock promotion §3.4, record construction)
  turn surviving candidates into :class:`DivergeBranch` records.

Passes read configuration from the :class:`CompileContext`, never from
a :class:`~repro.core.selector.SelectionConfig` directly, so the
pipeline builder stays the only place that interprets configs.
"""

from dataclasses import dataclass, field

from repro.core.alg_exact import find_exact_candidates
from repro.core.alg_freq import find_freq_candidates
from repro.core.cost_model import evaluate_hammock
from repro.core.loop_selection import select_loop_diverge_branches
from repro.core.marks import BinaryAnnotation, DivergeBranch, DivergeKind
from repro.core.return_cfm import find_return_cfm_candidates
from repro.core.short_hammocks import apply_short_hammock_heuristic


class CompileContext:
    """Everything a pass may read: inputs, analyses, knobs, tracer."""

    __slots__ = (
        "program", "profile", "analysis", "thresholds", "cost_method",
        "cost_params", "min_misp_rate", "two_d_profile", "tracer",
        "ledger", "current_pass", "manager",
    )

    def __init__(self, program, profile, analysis, thresholds,
                 cost_method=None, cost_params=None, min_misp_rate=0.0,
                 two_d_profile=None, tracer=None, ledger=None,
                 manager=None):
        self.program = program
        self.profile = profile
        self.analysis = analysis
        #: The *effective* thresholds — footnote 4 bounds already
        #: applied in cost-model mode.  Passes never re-derive them.
        self.thresholds = thresholds
        self.cost_method = cost_method
        self.cost_params = cost_params
        self.min_misp_rate = min_misp_rate
        self.two_d_profile = two_d_profile
        self.tracer = tracer
        #: A :class:`repro.obs.ledger.SelectionLedger` (or ``None``)
        #: collecting every verdict, independent of the tracer.
        self.ledger = ledger
        #: The running pass's name — the pipeline maintains this so
        #: ledger decisions attribute to the pass that made them.
        self.current_pass = ""
        #: The :class:`~repro.compiler.analysis_manager.AnalysisManager`
        #: the analysis came from (or ``None``) — transform passes
        #: re-fetch through it after mutating the program.
        self.manager = manager

    # -- verdict emission (shared by every pass) ------------------------

    def emit_selected(self, branch, report=None, rule=None):
        if self.ledger is not None:
            self.ledger.record_selected(
                branch, self.current_pass, report=report, rule=rule,
                params=self.cost_params,
            )
        if self.tracer is None or not self.tracer.enabled:
            return
        from repro.obs.events import BranchSelected

        self.tracer.emit(BranchSelected(
            branch_pc=branch.branch_pc,
            kind=branch.kind.value,
            source=branch.source,
            always_predicate=branch.always_predicate,
            num_cfm_points=len(branch.cfm_points),
            num_select_uops=branch.num_select_uops,
            dpred_cost=report.dpred_cost if report else None,
            dpred_overhead=report.dpred_overhead if report else None,
            merge_prob_total=report.merge_prob_total if report else None,
        ))

    def emit_rejected(self, branch_pc, reason, report=None, rule=None):
        if self.ledger is not None:
            self.ledger.record_rejected(
                branch_pc, self.current_pass, reason, report=report,
                rule=rule, params=self.cost_params,
            )
        if self.tracer is None or not self.tracer.enabled:
            return
        from repro.obs.events import BranchRejected

        self.tracer.emit(BranchRejected(
            branch_pc=branch_pc,
            reason=reason,
            dpred_cost=report.dpred_cost if report else None,
            dpred_overhead=report.dpred_overhead if report else None,
            merge_prob_total=report.merge_prob_total if report else None,
        ))


@dataclass
class SelectionState:
    """Mutable state threaded through the pipeline."""

    annotation: BinaryAnnotation
    #: Hammock candidates still awaiting filters / finishing.
    candidates: list = field(default_factory=list)
    #: Short hammocks (§3.4): branch_pc -> qualifying CFM points.
    short: dict = field(default_factory=dict)
    #: Cost reports for *selected* branches, keyed by pc (trace data).
    cost_by_pc: dict = field(default_factory=dict)
    #: Every cost evaluation in order — the Fig. 5 driver renders these.
    cost_reports: list = field(default_factory=list)
    #: Diverge-loop accept/reject diagnostics.
    loop_reports: list = field(default_factory=list)
    #: The context's :class:`~repro.obs.ledger.SelectionLedger` (or
    #: ``None``), mirrored here by the pipeline so callers that only
    #: see the final state can still read the decisions.
    ledger: object = None
    #: The :class:`~repro.compiler.transform.TransformResult` of a
    #: transform pass that mutated the program (or ``None``).  The
    #: annotation's pcs refer to ``transform.program`` when set.
    transform: object = None


class Pass:
    """Base class: a named transformation of the selection state."""

    #: Spec-grammar token / display name; subclasses override.
    name = "pass"

    def run(self, ctx, state):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


# -- candidate producers -----------------------------------------------------


class ExactCandidatesPass(Pass):
    """Alg-exact (§3.3): simple/frequently-hammock candidates."""

    name = "exact"

    def run(self, ctx, state):
        state.candidates.extend(
            find_exact_candidates(ctx.analysis, ctx.thresholds)
        )


class FreqCandidatesPass(Pass):
    """Alg-freq (§3.3): frequently-hammock candidates, chains reduced."""

    name = "freq"

    def run(self, ctx, state):
        exclude = frozenset(c.branch_pc for c in state.candidates)
        state.candidates.extend(
            find_freq_candidates(ctx.analysis, ctx.thresholds, exclude)
        )


# -- candidate filters -------------------------------------------------------


class MinMispRateFilterPass(Pass):
    """§8.3 easy-branch floor on profiled misprediction rate.

    ``rate=None`` reads the context's configured floor; an explicit
    rate (spec token ``minmisp:0.05``) overrides it.
    """

    name = "minmisp"

    def __init__(self, rate=None):
        self.rate = rate

    def run(self, ctx, state):
        rate = self.rate if self.rate is not None else ctx.min_misp_rate
        if rate <= 0.0:
            return
        branch_profile = ctx.profile.branch_profile
        kept = []
        for candidate in state.candidates:
            if branch_profile.misprediction_rate(candidate.branch_pc) \
                    >= rate:
                kept.append(candidate)
            else:
                ctx.emit_rejected(candidate.branch_pc,
                                  "easy-branch-filter",
                                  rule=f"misp_rate<{rate:g}")
        state.candidates = kept


class TwoDProfileFilterPass(Pass):
    """§8.3 2D-profiling filter; no-op without a 2D profile."""

    name = "2d"

    def run(self, ctx, state):
        if ctx.two_d_profile is None:
            return
        kept = []
        for candidate in state.candidates:
            if ctx.two_d_profile.keep_branch(candidate.branch_pc):
                kept.append(candidate)
            else:
                ctx.emit_rejected(candidate.branch_pc,
                                  "2d-profile-filter",
                                  rule="always-easy-2d")
        state.candidates = kept


def apply_cost_filter(ctx, state, candidates):
    """The one cost-model decision loop (§4).

    Filters any candidate list — pending hammocks and return-CFM
    candidates go through this same code, appending to
    ``state.cost_reports`` in evaluation order (hammocks first, then
    return-CFMs), which the Fig. 5 driver relies on.
    """
    kept = []
    for candidate in candidates:
        report = evaluate_hammock(
            candidate, ctx.profile, ctx.cost_params,
            method=ctx.cost_method,
        )
        state.cost_reports.append(report)
        if report.selected:
            state.cost_by_pc[candidate.branch_pc] = report
            kept.append(candidate)
        else:
            ctx.emit_rejected(candidate.branch_pc, "cost-model", report,
                              rule="dpred_cost>=0")
    return kept


class CostModelFilterPass(Pass):
    """Cost-benefit filter (§4) over the pending hammock candidates."""

    name = "cost"

    def run(self, ctx, state):
        if ctx.cost_method is None:
            return
        state.candidates = apply_cost_filter(ctx, state, state.candidates)


# -- finishers ----------------------------------------------------------------


def finish_hammock(ctx, candidate, always, source=None):
    """Build the :class:`DivergeBranch` record for a hammock candidate."""
    select_registers = ctx.analysis.select_registers_for_paths(
        candidate.path_set, candidate.cfm_pcs
    )
    return DivergeBranch(
        branch_pc=candidate.branch_pc,
        kind=candidate.kind,
        cfm_points=candidate.cfm_points,
        select_registers=select_registers,
        always_predicate=always,
        source=source or candidate.kind.value,
    )


def finish_short(ctx, branch_pc, cfm_points):
    """Build the always-predicated record for a short hammock (§3.4)."""
    thresholds = ctx.thresholds
    path_set = ctx.analysis.paths(
        branch_pc,
        max_instr=thresholds.max_instr,
        max_cbr=thresholds.max_cbr,
        min_exec_prob=thresholds.min_exec_prob,
        stop_at_iposdom=True,
    )
    cfm_pcs = {p.pc for p in cfm_points if p.pc is not None}
    select_registers = ctx.analysis.select_registers_for_paths(
        path_set, cfm_pcs
    )
    kind = (
        DivergeKind.SIMPLE_HAMMOCK
        if all(p.merge_prob >= 0.999 for p in cfm_points)
        else DivergeKind.FREQUENTLY_HAMMOCK
    )
    return DivergeBranch(
        branch_pc=branch_pc,
        kind=kind,
        cfm_points=tuple(cfm_points),
        select_registers=select_registers,
        always_predicate=True,
        source="short-hammock",
    )


class ShortHammockPass(Pass):
    """Partition pending candidates into short hammocks (§3.4).

    Short hammocks bypass the cost/threshold decision (they are
    always-predicated), so this pass must run *before* the cost filter.
    """

    name = "short"

    def run(self, ctx, state):
        state.short, state.candidates = apply_short_hammock_heuristic(
            state.candidates, ctx.profile, ctx.thresholds
        )


class FinishPass(Pass):
    """Record construction: surviving candidates → annotation.

    Hammock candidates first (producer order), then short hammocks in
    pc order — the legacy emission order, preserved bit-for-bit.
    """

    name = "finish"

    def run(self, ctx, state):
        for candidate in state.candidates:
            branch = finish_hammock(ctx, candidate, always=False)
            state.annotation.add(branch)
            ctx.emit_selected(
                branch, state.cost_by_pc.get(branch.branch_pc)
            )
        state.candidates = []
        for branch_pc, cfm_points in sorted(state.short.items()):
            branch = finish_short(ctx, branch_pc, cfm_points)
            state.annotation.add(branch)
            ctx.emit_selected(branch)
        state.short = {}


class ReturnCFMPass(Pass):
    """Return-CFM selection (§3.5): produce, cost-filter, finish.

    Runs after :class:`FinishPass` so already-annotated branches are
    excluded; its candidates flow through the same
    :func:`apply_cost_filter` as hammocks.
    """

    name = "ret"

    def run(self, ctx, state):
        exclude = frozenset(
            branch.branch_pc for branch in state.annotation
        )
        candidates = find_return_cfm_candidates(
            ctx.analysis, ctx.thresholds, exclude
        )
        if ctx.cost_method is not None:
            candidates = apply_cost_filter(ctx, state, candidates)
        for candidate in candidates:
            branch = finish_hammock(
                ctx, candidate, always=False, source="return-cfm"
            )
            state.annotation.add(branch)
            ctx.emit_selected(
                branch, state.cost_by_pc.get(branch.branch_pc)
            )


class LoopPass(Pass):
    """Diverge-loop selection (§5.2); hammock marks win conflicts."""

    name = "loop"

    def run(self, ctx, state):
        loops, state.loop_reports = select_loop_diverge_branches(
            ctx.analysis, ctx.thresholds
        )
        for branch in loops:
            if not state.annotation.is_diverge(branch.branch_pc):
                state.annotation.add(branch)
                ctx.emit_selected(branch)
        for report in state.loop_reports:
            if not report.accepted:
                ctx.emit_rejected(
                    report.branch_pc,
                    f"loop:{report.reject_reason}",
                    rule=report.reject_reason,
                )
