"""Fleet-scale campaign orchestration (see docs/CAMPAIGN.md).

A *campaign* turns the repo's verification surfaces — fuzz iterations,
corpus lint/ambiguity/provenance sweeps, benchmark passes — into a flat
list of deterministic, individually addressable **work units** that can
be partitioned across shards, executed by work-stealing worker
processes, checkpointed to crash-safe ledgers, and merged back into one
byte-stable campaign report:

* :mod:`repro.campaign.units` — specs, unit addressing, sharding;
* :mod:`repro.campaign.runner` — unit execution, payload/telemetry split;
* :mod:`repro.campaign.scheduler` — local fleet + CI-matrix execution,
  checkpointing each unit to a per-shard
  :class:`~repro.robust.ledger.SnapshotLedger` it resumes from;
* :mod:`repro.campaign.report` — merge, aggregation, gating, summaries;
* :mod:`repro.campaign.cli` — ``repro-conflicts campaign ...``.
"""

from repro.campaign.report import (
    MergeError,
    check_report,
    merge_shard_documents,
    render_report,
    render_summary_markdown,
)
from repro.campaign.runner import UnitResult, execute_unit
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.units import (
    CampaignSpec,
    ShardSelection,
    WorkUnit,
    parse_shard,
    partition_units,
    plan_units,
    select_shard,
)

__all__ = [
    "CampaignScheduler",
    "CampaignSpec",
    "MergeError",
    "ShardSelection",
    "UnitResult",
    "WorkUnit",
    "check_report",
    "execute_unit",
    "merge_shard_documents",
    "parse_shard",
    "partition_units",
    "plan_units",
    "render_report",
    "render_summary_markdown",
    "select_shard",
]
