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

The package re-exports nothing: import the submodule that holds a
name (``from repro.campaign.spec import CampaignSpec``), so a process
loads only the parts of a campaign it runs.  See
``docs/campaigns.md``.
"""
