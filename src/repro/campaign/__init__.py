"""Resumable, fault-tolerant design-space sweep campaigns.

A *campaign* turns a design-space sweep — benchmark × input set ×
selection algorithm × threshold/processor parameters — into a durable,
restartable unit of work instead of one monolithic in-memory pass:

- :mod:`repro.campaign.spec` — the declarative :class:`CampaignSpec`
  (grid axes, deterministic content-hashed cell IDs, the default
  baseline→selection→DMP cell function);
- :mod:`repro.campaign.journal` — the append-only JSONL journal whose
  replay *is* the resume protocol;
- :mod:`repro.campaign.scheduler` — campaign *policy*: timeout,
  bounded retry with exponential backoff, and quarantine;
- :mod:`repro.campaign.backends` — execution *mechanics* behind a
  pluggable :class:`LocalPoolBackend` / :class:`ShardedBackend`
  interface (reused forked workers locally, or one shard of the cell
  space per machine with ``campaign merge`` recombining the journals);
- :mod:`repro.campaign.report` — status and deterministic reporting
  (per-cell stats, mean speedups, Fig. 7-style sensitivity grids);
- :mod:`repro.campaign.cli` — ``python -m repro campaign
  {run,resume,status,report,merge}``.

See ``docs/campaigns.md``.
"""

from repro.campaign.backends import (
    BACKENDS,
    LocalPoolBackend,
    ShardedBackend,
    make_backend,
    shard_of,
)
from repro.campaign.journal import (
    Journal,
    JournalState,
    find_shard_journals,
    merge_shard_journals,
    replay,
)
from repro.campaign.report import (
    aggregate_means,
    render_report,
    render_status,
)
from repro.campaign.scheduler import (
    DEFAULT_BACKOFF,
    DEFAULT_MAX_ATTEMPTS,
    Scheduler,
)
from repro.campaign.spec import (
    Axis,
    CampaignSpec,
    Cell,
    SELECTION_PRESETS,
    build_selection,
    content_hash,
    run_cell,
)

__all__ = [
    "Axis",
    "BACKENDS",
    "CampaignSpec",
    "Cell",
    "DEFAULT_BACKOFF",
    "DEFAULT_MAX_ATTEMPTS",
    "Journal",
    "JournalState",
    "LocalPoolBackend",
    "SELECTION_PRESETS",
    "Scheduler",
    "ShardedBackend",
    "aggregate_means",
    "build_selection",
    "content_hash",
    "find_shard_journals",
    "make_backend",
    "merge_shard_journals",
    "render_report",
    "render_status",
    "replay",
    "run_cell",
    "shard_of",
]
