"""Typed trace events.

Every event is a frozen dataclass with a ``type`` class attribute (the
wire name used in the JSONL log).  :func:`to_record` flattens an event
into a JSON-ready dict and :func:`from_record` reconstructs the typed
event, so a log round-trips losslessly through
:class:`repro.obs.tracer.JsonlSink` and :func:`repro.obs.tracer.read_events`.

Unknown event types read back as :class:`GenericEvent`, which keeps
``trace-report`` working on logs written by newer code.
"""

from dataclasses import dataclass, fields
from typing import ClassVar, Optional

#: Wire name -> event class (populated by the ``@event`` decorator).
EVENT_TYPES = {}


def event(cls):
    """Register an event dataclass under its ``type`` wire name."""
    EVENT_TYPES[cls.type] = cls
    return cls


# -- dynamic predication episodes -------------------------------------------


@event
@dataclass(frozen=True)
class DpredEpisodeStart:
    """The simulator entered dpred-mode on a diverge branch."""

    type: ClassVar[str] = "dpred.episode.start"
    branch_pc: int
    kind: str                 # "hammock" | "loop"
    cycle: int
    mispredicted: bool        # True => this episode avoids a flush
    wrong_path_insts: int
    #: Select-µops charged at entry (loop episodes; hammocks charge
    #: theirs at the merge event instead).
    select_uops: int = 0


@event
@dataclass(frozen=True)
class DpredEpisodeMerge:
    """Both paths reached a CFM point: select-µops inserted, no flush."""

    type: ClassVar[str] = "dpred.episode.merge"
    branch_pc: int
    cycle: int
    duration_cycles: int
    select_uops: int


@event
@dataclass(frozen=True)
class DpredEpisodeEnd:
    """Episode ended without merging (resolution caught up first)."""

    type: ClassVar[str] = "dpred.episode.end"
    branch_pc: int
    cycle: int
    duration_cycles: int
    reason: str               # "resolved-unmerged" | "true-path-waits"


@event
@dataclass(frozen=True)
class DpredEpisodeFlush:
    """Episode squashed by a flush on the predicated path."""

    type: ClassVar[str] = "dpred.episode.flush"
    branch_pc: int
    cycle: int
    duration_cycles: int
    flushed_by_pc: int
    source: str               # "branch-mispredict" | "return-mispredict"


@event
@dataclass(frozen=True)
class DpredEpisodeExtend:
    """A later instance of a predicated loop branch extended the episode.

    The over-iteration (late-exit) misprediction is covered: one more
    flush avoided, ``extra_insts`` more NOPped iterations fetched.
    """

    type: ClassVar[str] = "dpred.episode.extend"
    branch_pc: int
    cycle: int
    extra_insts: int


# -- compile-time selection --------------------------------------------------


@event
@dataclass(frozen=True)
class BranchSelected:
    """The selector marked a branch as a diverge branch."""

    type: ClassVar[str] = "select.branch.selected"
    branch_pc: int
    kind: str
    source: str
    always_predicate: bool
    num_cfm_points: int
    num_select_uops: int
    # Cost-model terms (None when a threshold heuristic decided).
    dpred_cost: Optional[float] = None
    dpred_overhead: Optional[float] = None
    merge_prob_total: Optional[float] = None


@event
@dataclass(frozen=True)
class BranchRejected:
    """The selector considered and dropped a candidate branch."""

    type: ClassVar[str] = "select.branch.rejected"
    branch_pc: int
    reason: str
    dpred_cost: Optional[float] = None
    dpred_overhead: Optional[float] = None
    merge_prob_total: Optional[float] = None


# -- compiler pipeline -------------------------------------------------------


@event
@dataclass(frozen=True)
class CompilePassStart:
    """The pass-manager pipeline started running one selection pass."""

    type: ClassVar[str] = "compile.pass.start"
    pipeline: str
    pass_name: str
    index: int


@event
@dataclass(frozen=True)
class CompilePassEnd:
    """One selection pass finished, with its working-set sizes."""

    type: ClassVar[str] = "compile.pass.end"
    pipeline: str
    pass_name: str
    index: int
    seconds: float
    candidates: int           # pending hammock candidates after the pass
    selected: int             # diverge branches annotated so far


# -- microarchitecture -------------------------------------------------------


@event
@dataclass(frozen=True)
class PipelineFlush:
    """The pipeline flushed (DMP's benefit is making these rarer)."""

    type: ClassVar[str] = "uarch.pipeline.flush"
    pc: int
    cycle: int
    source: str               # "branch-mispredict" | "return-mispredict"


@event
@dataclass(frozen=True)
class CacheMiss:
    """A demand miss in the cache hierarchy (fetch side only for now)."""

    type: ClassVar[str] = "uarch.cache.miss"
    level: str                # "icache"
    pc: int
    cycle: int
    stall_cycles: int


# -- run structure -----------------------------------------------------------


@event
@dataclass(frozen=True)
class SimRunStart:
    """One timing-simulation run began."""

    type: ClassVar[str] = "sim.run.start"
    label: str
    trace_length: int
    dmp_enabled: bool


@event
@dataclass(frozen=True)
class SimRunEnd:
    """One timing-simulation run finished, with its headline counters.

    ``trace-report`` reconciles the per-event counts against these
    totals; a mismatch means dropped events.
    """

    type: ClassVar[str] = "sim.run.end"
    label: str
    cycles: int
    retired_instructions: int
    pipeline_flushes: int
    dpred_episodes: int
    dpred_episodes_merged: int
    # Extra totals for trace-driven ledger reconciliation; default 0
    # so logs written by older builds still read back.
    mispredictions: int = 0
    dpred_flushes_avoided: int = 0
    dpred_wrong_path_insts: int = 0
    dpred_select_uops: int = 0


# -- campaigns ---------------------------------------------------------------


@event
@dataclass(frozen=True)
class CampaignCellStart:
    """The campaign scheduler handed one cell attempt to a worker."""

    type: ClassVar[str] = "campaign.cell.start"
    campaign: str
    cell_id: str
    label: str
    attempt: int


@event
@dataclass(frozen=True)
class CampaignCellEnd:
    """A campaign cell attempt completed and was journaled."""

    type: ClassVar[str] = "campaign.cell.end"
    campaign: str
    cell_id: str
    attempt: int
    seconds: float


@event
@dataclass(frozen=True)
class CampaignCellFail:
    """A campaign cell attempt raised, crashed, or timed out."""

    type: ClassVar[str] = "campaign.cell.fail"
    campaign: str
    cell_id: str
    attempt: int
    kind: str                 # "exception" | "crash" | "timeout"
    error: str


@event
@dataclass(frozen=True)
class CampaignCellQuarantined:
    """A cell exhausted its attempts and is now an explicit gap."""

    type: ClassVar[str] = "campaign.cell.quarantined"
    campaign: str
    cell_id: str
    attempts: int


@event
@dataclass(frozen=True)
class SpanEnd:
    """A timed span closed: the one finished-span record.

    :func:`repro.obs.spans.span` writes it to the event log and to the
    trace spool alike.  ``path`` is the ``"/"``-joined span path from
    the root (the parent is everything before the last separator);
    ``self_seconds`` is the cumulative ``seconds`` minus the children's
    cumulative time.  The trace identity after ``events`` is present
    only while a :class:`~repro.obs.tracectx.TraceContext` is active.
    """

    type: ClassVar[str] = "span.end"
    name: str
    path: str
    depth: int
    seconds: float
    self_seconds: float
    events: int = 0
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    start_ts: Optional[float] = None
    service: Optional[str] = None
    pid: Optional[int] = None
    attrs: Optional[dict] = None


@dataclass(frozen=True)
class GenericEvent:
    """Fallback for event types this build does not know about."""

    type: str
    payload: dict


def to_record(event_obj):
    """Flatten an event into a JSON-ready dict (``type`` key first)."""
    record = {"type": event_obj.type}
    for field in fields(event_obj):
        record[field.name] = getattr(event_obj, field.name)
    return record


def from_record(record):
    """Rebuild the typed event from a :func:`to_record` dict."""
    data = dict(record)
    type_name = data.pop("type", None)
    data.pop("seq", None)
    cls = EVENT_TYPES.get(type_name)
    if cls is None:
        return GenericEvent(type=type_name or "unknown", payload=data)
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in known})
