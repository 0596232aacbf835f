"""Work-stealing shard scheduler with resumable checkpoints.

Two execution shapes, one substrate:

* **CI matrix mode** — ``campaign run --shard k/M`` runs exactly one
  shard's units in this invocation (optionally over ``--jobs`` worker
  processes) and writes ``shard-k-of-M.json``; M independent invocations
  on M runners cover the campaign, and ``campaign merge`` folds their
  result files.
* **Local fleet mode** — ``campaign run --shards M --jobs W`` runs all
  M shards in one invocation. Each worker process has a *home* shard
  (round-robin by slot); a worker whose home queue drains **steals from
  the straggler** — the shard with the most remaining units — from the
  tail of its queue, so stragglers shed load instead of serializing the
  campaign. Stolen units still checkpoint to (and report under) their
  owning shard, so the merged report is indistinguishable from an
  unstolen run.

Every unit is checkpointed to its shard's crash-safe
:class:`~repro.robust.ledger.SnapshotLedger`
(``shard-K-of-M.ledger.jsonl``, keyed by ``unit``): a ``running``
snapshot with the attempt number before execution, a ``done`` snapshot
with the full :class:`~repro.campaign.runner.UnitResult` after. The
last snapshot per unit wins on replay. ``kill -9`` at any point loses
at most the in-flight units; re-invoking the same command replays the
ledger, skips ``done`` units, and re-runs only the ``running`` ones with
their attempt counter bumped — the merged report comes out
byte-identical to an uninterrupted run's. Every ``done`` snapshot's
digest is kept on replay: a unit whose attempts disagree on the
deterministic payload is a **flake** (:func:`replay_units`).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.campaign.runner import UnitResult, execute_unit
from repro.campaign.units import (
    SCHEMA,
    CampaignSpec,
    ShardSelection,
    WorkUnit,
    select_shard,
)
from repro.robust.ledger import SnapshotLedger

RUNNING = "running"
DONE = "done"


def replay_units(
    ledger: SnapshotLedger[dict[str, Any]],
) -> tuple[dict[str, UnitResult], dict[str, int], dict[str, list[str]]]:
    """Fold a shard ledger into ``(completed, interrupted, flakes)``.

    *completed* maps each unit whose last intact snapshot is ``done`` to
    its result (terminal: never re-run); *interrupted* maps every other
    unit to its last attempt number (it re-runs). *flakes* maps each
    unit whose ``done`` snapshots carry more than one digest to all of
    them in order — every intact ``done`` line counts, not just the
    winning last one, since re-run disagreements are what it records.
    """
    latest: dict[str, dict[str, Any]] = {}
    digests: dict[str, list[str]] = {}
    for unit_id, snapshot in ledger.snapshots():
        latest[unit_id] = snapshot
        result = snapshot.get("result")
        if snapshot.get("state") == DONE and isinstance(result, dict):
            digest = result.get("digest")
            if isinstance(digest, str):
                digests.setdefault(unit_id, []).append(digest)
    completed: dict[str, UnitResult] = {}
    interrupted: dict[str, int] = {}
    for unit_id, snapshot in latest.items():
        if snapshot.get("state") == DONE:
            try:
                completed[unit_id] = UnitResult.from_json(snapshot["result"])
                continue
            except (KeyError, TypeError, ValueError):
                pass
        interrupted[unit_id] = int(snapshot.get("attempt", 1))
    flakes = {
        unit_id: seen
        for unit_id, seen in sorted(digests.items())
        if len(set(seen)) > 1
    }
    return completed, interrupted, flakes


@dataclass
class _ShardRun:
    """Mutable state of one shard during an invocation."""

    selection: ShardSelection
    ledger: SnapshotLedger[dict[str, Any]]
    pending: deque[WorkUnit] = field(default_factory=deque)
    results: dict[str, UnitResult] = field(default_factory=dict)
    #: Completed attempts so far per unit (seeded from interrupted runs).
    attempts: dict[str, int] = field(default_factory=dict)
    resumed: int = 0
    executed: int = 0
    stolen: int = 0
    retried: int = 0
    elapsed_s: float = 0.0

    @property
    def name(self) -> str:
        return self.selection.name

    def begin(self, unit: WorkUnit) -> int:
        """Checkpoint *unit* as running; returns its attempt number."""
        attempt = self.attempts.get(unit.id, 0) + 1
        self.ledger.append({"unit": unit.id, "state": RUNNING, "attempt": attempt})
        return attempt


class CampaignScheduler:
    """Runs campaign shards with checkpoints, retries, and stealing.

    Args:
        spec: The campaign (see :class:`~repro.campaign.units.CampaignSpec`).
        out_dir: Directory for ledgers and shard result files.
        jobs: Worker processes (1 = in-process sequential).
        cache_dir: Shared automaton-cache directory; all shards and all
            worker processes may point at the same one (the cache's
            atomic writes are multi-process-safe).
        retries: Re-runs granted to a unit whose attempt errored. Every
            attempt's digest is checkpointed, so attempts that disagree
            surface in the flake ledger.
        fsync: Force ledger appends to stable storage.
        progress: Optional callback ``(shard_name, unit_id, result)``.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        out_dir: str | os.PathLike[str],
        *,
        jobs: int = 1,
        cache_dir: str | os.PathLike[str] | None = None,
        retries: int = 0,
        fsync: bool = False,
        progress: Callable[[str, str, UnitResult], None] | None = None,
    ) -> None:
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.jobs = max(1, jobs)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.retries = retries
        self.fsync = fsync
        self.progress = progress
        self.out_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Entry points

    def run_shard(self, shard: tuple[int, int]) -> Path:
        """Run (or resume) one shard; returns its result-file path."""
        return self._run([self._prepare(select_shard(self.spec, shard))])[0]

    def run_local(self, shards: int) -> list[Path]:
        """Run (or resume) all *shards* locally, with work stealing."""
        runs = [
            self._prepare(select_shard(self.spec, (k, shards)))
            for k in range(1, shards + 1)
        ]
        return self._run(runs)

    # ------------------------------------------------------------------ #
    # Resume

    def _prepare(self, selection: ShardSelection) -> _ShardRun:
        # Never rotated: compaction would drop the digest history the
        # flake ledger reads, and a shard's ledger is bounded by its
        # unit count anyway.
        ledger: SnapshotLedger[dict[str, Any]] = SnapshotLedger(
            self.out_dir / f"{selection.name}.ledger.jsonl",
            key="unit",
            fsync=self.fsync,
            fault_context=selection.name,
        )
        completed, interrupted, _ = replay_units(ledger)
        known = {unit.id for unit in selection.units}
        foreign = sorted((set(completed) | set(interrupted)) - known)
        if foreign:
            raise ValueError(
                f"{ledger.path.name} checkpoints unknown units "
                f"({', '.join(foreign[:3])}…): it belongs to a different "
                "campaign or sharding — use a fresh --out directory"
            )
        run = _ShardRun(selection=selection, ledger=ledger)
        for unit in selection.units:
            done = completed.get(unit.id)
            if done is not None:
                run.results[unit.id] = done
                run.attempts[unit.id] = done.attempt
                run.resumed += 1
            else:
                run.attempts[unit.id] = interrupted.get(unit.id, 0)
                run.pending.append(unit)
        return run

    # ------------------------------------------------------------------ #
    # Execution

    def _run(self, runs: list[_ShardRun]) -> list[Path]:
        from repro.perf.cache import AutomatonCache

        started = time.monotonic()
        cache = AutomatonCache(self.cache_dir) if self.cache_dir else None
        # Worker slot -> what it runs; the pool's workers are forked
        # after this is built, so they inherit the spec and the cache.
        held: dict[int, tuple[_ShardRun, WorkUnit, bool]] = {}

        def feed(slot: int) -> tuple[WorkUnit, int] | None:
            picked = self._pick(runs, slot)
            if picked is None:
                return None
            held[slot] = picked
            run, unit, _ = picked
            return unit, run.begin(unit)

        def execute(task: tuple[WorkUnit, int]) -> UnitResult:
            unit, attempt = task
            return execute_unit(unit, self.spec, cache, attempt=attempt)

        if self.jobs == 1:
            slot = 0
            while (task := feed(slot)) is not None:
                run, unit, stolen = held.pop(slot)
                self._record(run, unit, execute(task), stolen)
                slot += 1
        else:
            from repro.robust.executor import run_pool

            with closing(run_pool(execute, self.jobs, feed)) as pool:
                for slot, (_, attempt), outcome in pool:
                    run, unit, stolen = held.pop(slot)
                    # A unit that kills its worker (os._exit, a segfault, an
                    # OOM kill) ends as an error; a fresh worker takes its slot.
                    result = outcome.result if outcome.ok else UnitResult(
                        unit.id,
                        "error",
                        {"error_type": "WorkerDied", "error": "worker process died"},
                        attempt=attempt,
                    )
                    self._record(run, unit, result, stolen)
        elapsed = time.monotonic() - started
        paths = []
        for run in runs:
            run.elapsed_s = elapsed
            paths.append(self._write_shard_document(run))
        return paths

    def _pick(
        self, runs: list[_ShardRun], slot: int
    ) -> tuple[_ShardRun, WorkUnit, bool] | None:
        """Next unit for worker *slot*: home shard first, else steal.

        Home units come off the queue's head; stolen units come off the
        **tail** of the longest remaining queue, so the thief works the
        straggler's far end while its owner keeps draining the front.
        """
        home = runs[slot % len(runs)]
        if home.pending:
            return home, home.pending.popleft(), False
        victim = max(runs, key=lambda run: len(run.pending))
        if not victim.pending:
            return None
        return victim, victim.pending.pop(), True

    def _record(
        self, run: _ShardRun, unit: WorkUnit, result: UnitResult, stolen: bool
    ) -> None:
        run.ledger.append(
            {"unit": result.unit_id, "state": DONE, "result": result.to_json()}
        )
        run.attempts[unit.id] = result.attempt
        if self.progress is not None:
            self.progress(run.name, unit.id, result)
        if result.outcome == "error" and result.attempt <= self.retries:
            run.retried += 1
            run.pending.appendleft(unit)
            return
        run.results[unit.id] = result
        run.executed += 1
        if stolen:
            run.stolen += 1

    # ------------------------------------------------------------------ #
    # Shard result document

    def _write_shard_document(self, run: _ShardRun) -> Path:
        _, _, flakes = replay_units(run.ledger)
        telemetry_units = {
            unit_id: result.telemetry
            for unit_id, result in sorted(run.results.items())
        }
        document = {
            "schema": SCHEMA,
            "campaign": self.spec.digest(),
            "spec": self.spec.to_json(),
            "shard": list(run.selection.shard),
            "units": {
                unit_id: {
                    "outcome": result.outcome,
                    "payload": result.payload,
                    "digest": result.digest(),
                }
                for unit_id, result in sorted(run.results.items())
            },
            "flakes": flakes,
            "telemetry": {
                "executed": run.executed,
                "resumed": run.resumed,
                "stolen": run.stolen,
                "retried": run.retried,
                "elapsed_s": round(run.elapsed_s, 3),
                "cache_hits": sum(
                    t.get("cache_hits", 0) for t in telemetry_units.values()
                ),
                "cache_misses": sum(
                    t.get("cache_misses", 0) for t in telemetry_units.values()
                ),
                "torn_writes": run.ledger.torn_writes,
                "stale_temps_removed": run.ledger.stale_temps_removed,
                "units": telemetry_units,
            },
        }
        path = self.out_dir / f"{run.name}.json"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path


__all__ = ["CampaignScheduler", "replay_units"]
