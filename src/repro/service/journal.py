"""The job journal: the service's record schema on the snapshot ledger.

The storage discipline — full snapshots, idempotent left-to-right
replay, torn-final-line skip + heal, atomic temp+fsync+``os.replace``
rotation, stale-rotation-temp sweep on open, the ``journal`` torn-write
fault point — lives in :class:`repro.robust.ledger.SnapshotLedger`;
this module keeps only the job-shaped policy on top of it:

* snapshots are :class:`~repro.service.protocol.JobRecord` documents,
  re-validated on replay (a line that parses as JSON but not as a job
  record counts as torn, never as state);
* rotation retains live jobs always and terminal jobs up to
  ``keep_terminal`` (newest first), ordered by creation time;
* :func:`resumable` names the jobs a restarted service must re-enqueue.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from repro.robust.ledger import SnapshotLedger
from repro.service.protocol import JobRecord, JobState


class JobJournal(SnapshotLedger[JobRecord]):
    """Append-only JSONL journal of job snapshots, keyed by job id.

    Args:
        path: Journal file location (parent directories are created).
        fsync: Force each append to stable storage. Off by default —
            the chaos contract only promises *at-least-once* execution
            after a crash, and an OS-buffered line lost with the power
            merely re-runs the job.
        rotate_after: Appends between automatic compactions.
        keep_terminal: Terminal-job snapshots to retain across rotation
            (newest first); live jobs are always retained.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        fsync: bool = False,
        rotate_after: int = 512,
        keep_terminal: int = 256,
    ) -> None:
        super().__init__(path, key="id", fsync=fsync, rotate_after=rotate_after)
        self.keep_terminal = keep_terminal

    def encode(self, record: JobRecord) -> dict[str, Any]:
        return record.to_json()

    def decode(self, snapshot: dict[str, Any]) -> JobRecord:
        return JobRecord.from_json(snapshot)

    def rotate(self, records: Iterable[JobRecord]) -> None:
        """Atomically rewrite the journal as one snapshot per job.

        Live (non-terminal) jobs are always retained; terminal jobs are
        capped at ``keep_terminal``, newest ``updated_at`` first.
        """
        live: list[JobRecord] = []
        terminal: list[JobRecord] = []
        for record in records:
            (terminal if record.state.terminal else live).append(record)
        terminal.sort(key=lambda record: record.updated_at, reverse=True)
        retained = live + terminal[: self.keep_terminal]
        retained.sort(key=lambda record: record.created_at)
        super().rotate(retained)


def resumable(records: dict[str, JobRecord]) -> list[JobRecord]:
    """The jobs a restarted service must re-enqueue, oldest first.

    ``queued`` jobs never ran; ``running`` jobs were in flight when the
    process died — both come back as ``queued`` (attempt counters
    preserved, so a crash-looping grammar still marches toward its
    breaker). Terminal jobs are *not* resumed: re-running completed work
    is the duplicate side effect the journal exists to prevent.
    """
    pending = [
        record
        for record in records.values()
        if record.state in (JobState.QUEUED, JobState.RUNNING)
    ]
    pending.sort(key=lambda record: record.created_at)
    return pending


__all__ = ["JobJournal", "resumable"]
