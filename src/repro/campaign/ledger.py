"""Per-shard unit checkpoints on the generic snapshot ledger.

Each shard invocation owns one append-only JSONL ledger
(``shard-K-of-M.ledger.jsonl``). The discipline mirrors the analysis
service's job journal (both ride :class:`repro.robust.ledger.SnapshotLedger`):

* before a unit runs, a ``running`` snapshot is appended;
* when it finishes, a ``done`` snapshot carrying the full
  :class:`~repro.campaign.runner.UnitResult` replaces it (last snapshot
  per unit id wins on replay);
* a shard killed ``-9`` mid-unit resumes by replaying the ledger:
  ``done`` units are terminal and never re-run (their checkpointed
  results feed the shard report directly); ``running`` units were in
  flight and re-run with their attempt counter bumped.

The ledger also remembers every *digest* a unit's completed attempts
produced: a unit whose re-runs disagree on the deterministic payload is
a **flake**, surfaced in the shard document and the merged campaign
report's flake ledger.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.runner import UnitResult
from repro.campaign.units import WorkUnit
from repro.robust.ledger import ReplayStats, SnapshotLedger

RUNNING = "running"
DONE = "done"


@dataclass
class LedgerState:
    """What replaying a shard ledger reveals about prior invocations."""

    #: Completed unit results, by unit id (terminal: never re-run).
    completed: dict[str, UnitResult] = field(default_factory=dict)
    #: Attempt counter for units last seen ``running`` (they re-run).
    interrupted: dict[str, int] = field(default_factory=dict)
    #: Every completed-attempt digest observed per unit, in order.
    digests: dict[str, list[str]] = field(default_factory=dict)
    stats: ReplayStats = field(default_factory=ReplayStats)

    def flaky_units(self) -> dict[str, list[str]]:
        """Units whose completed attempts produced differing digests."""
        return {
            unit_id: digests
            for unit_id, digests in sorted(self.digests.items())
            if len(set(digests)) > 1
        }


class ShardLedger:
    """Crash-safe checkpoint ledger for one shard's units."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        shard_name: str = "shard",
        fsync: bool = False,
    ) -> None:
        self._ledger = SnapshotLedger(
            path,
            key="unit",
            fsync=fsync,
            # Rotation would discard the per-attempt digest history the
            # flake ledger feeds on; campaign ledgers are bounded by the
            # unit count, so compaction buys nothing.
            rotate_after=1 << 62,
            fault_point="journal",
            fault_context=shard_name,
        )

    @property
    def path(self):
        return self._ledger.path

    @property
    def torn_writes(self) -> int:
        return self._ledger.torn_writes

    @property
    def stale_temps_removed(self) -> int:
        return self._ledger.stale_temps_removed

    # ------------------------------------------------------------------ #

    def mark_running(self, unit: WorkUnit, attempt: int) -> None:
        self._ledger.append(
            {"unit": unit.id, "state": RUNNING, "attempt": attempt}
        )

    def mark_done(self, result: UnitResult) -> None:
        self._ledger.append(
            {"unit": result.unit_id, "state": DONE, "result": result.to_json()}
        )

    # ------------------------------------------------------------------ #

    def replay(self) -> LedgerState:
        """Fold the ledger into terminal results + interrupted units.

        The digest history walks *every* intact ``done`` snapshot, not
        just the winning last one per unit — that is where re-run
        disagreements (flakes) come from.
        """
        state = LedgerState()
        records: dict[str, dict[str, Any]] = {}
        for unit_id, snapshot in self._ledger.snapshots(stats=state.stats):
            records[unit_id] = snapshot
            result = snapshot.get("result")
            if snapshot.get("state") == DONE and isinstance(result, dict):
                digest = result.get("digest")
                if isinstance(digest, str):
                    state.digests.setdefault(unit_id, []).append(digest)
        for unit_id, snapshot in records.items():
            if snapshot.get("state") == DONE and isinstance(
                snapshot.get("result"), dict
            ):
                try:
                    state.completed[unit_id] = UnitResult.from_json(
                        snapshot["result"]
                    )
                except (KeyError, TypeError, ValueError):
                    state.interrupted[unit_id] = int(snapshot.get("attempt", 1))
            else:
                state.interrupted[unit_id] = int(snapshot.get("attempt", 1))
        return state

    def info(self) -> dict[str, Any]:
        return self._ledger.info()


__all__ = ["DONE", "RUNNING", "LedgerState", "ShardLedger"]
