"""Generic crash-safe snapshot ledger (append-only JSONL).

Extracted from :mod:`repro.service.journal` so the same snapshot/replay
discipline serves any subsystem that must survive ``kill -9`` — the
analysis service's job store and the campaign orchestrator's per-shard
unit ledgers both ride on it.

The discipline:

* every mutation appends one **full snapshot** as a JSON line keyed by
  an id field; replay folds the lines left to right, so the last intact
  snapshot per key wins and replaying twice can never invent state;
* a **torn final line** (crash mid-``write``) fails JSON decoding and is
  skipped — the key falls back to its previous snapshot;
* on re-open for append, a missing trailing newline is **healed** first,
  so the next snapshot starts on a fresh line instead of fusing with the
  torn fragment;
* mid-file garbage is counted and skipped, never fatal;
* rotation rewrites the ledger through a temp file published with
  ``os.replace``, so a crash mid-rotation preserves the old ledger
  byte-for-byte — and the **stale rotation temp** such a crash leaves
  behind is swept on the next open (an aborted process must not leak
  ``*.rotate.tmp`` litter next to the ledger it never rotated).

A subsystem's record schema is a subclass that overrides :meth:`encode`
and :meth:`decode` (the service's job journal); a ledger of plain dicts
(the campaign's unit checkpoints) uses the class as is.

The ``journal`` fault-injection point simulates a torn write: under an
installed :class:`~repro.robust.faults.FaultKind.TORN_WRITE` spec the
line is persisted only up to its midpoint, exactly what a power cut
mid-``write(2)`` leaves behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Generic, Iterable, Iterator, TypeVar, cast

from repro.robust.faults import InjectedTornWrite, fire

#: The record type a ledger's schema encodes to and decodes from JSON.
R = TypeVar("R")


@dataclass
class ReplayStats:
    """What :meth:`SnapshotLedger.replay` saw while folding the ledger."""

    lines: int = 0
    applied: int = 0
    torn: int = 0
    errors: list[str] = field(default_factory=list)


class SnapshotLedger(Generic[R]):
    """Append-only JSONL ledger of keyed snapshots.

    Args:
        path: Ledger file location (parent directories are created).
        key: Snapshot field holding the fold key.
        fsync: Force each append to stable storage. Off by default —
            the crash contract only promises *at-least-once* execution,
            and an OS-buffered line lost with the power merely re-runs
            the work it recorded.
        rotate_after: Appends between automatic compactions.
        fault_context: Context string given to the fault registry's
            ``match`` filter on the ``journal`` point, so chaos specs
            can target one ledger.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        key: str = "id",
        fsync: bool = False,
        rotate_after: int = 512,
        fault_context: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.key = key
        self.fsync = fsync
        self.rotate_after = rotate_after
        self.fault_context = fault_context
        self.appends_since_rotate = 0
        self.torn_writes = 0
        # Only a file this writer did not end itself can have a torn
        # tail: probe on the first append and after a torn write.
        self._probe_tail = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.stale_temps_removed = self._remove_stale_temps()

    # ------------------------------------------------------------------ #
    # Hygiene

    def _rotate_tmp(self) -> Path:
        return self.path.with_name(self.path.name + ".rotate.tmp")

    def _remove_stale_temps(self) -> int:
        """Sweep rotation temps a crashed/aborted writer left behind.

        A temp that never reached ``os.replace`` is garbage by
        construction (the published ledger is still the old one), so
        removing it on open is always safe.
        """
        removed = 0
        try:
            candidates = list(self.path.parent.glob(self.path.name + ".rotate.tmp*"))
        except OSError:
            return removed
        for stale in candidates:
            try:
                stale.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------ #
    # Record schema

    def encode(self, record: R) -> dict[str, Any]:
        """The JSON snapshot of *record* (plain dicts are their own)."""
        return cast(dict[str, Any], record)

    def decode(self, snapshot: dict[str, Any]) -> R:
        """The record a replayed *snapshot* holds; raising makes it torn."""
        return cast(R, snapshot)

    # ------------------------------------------------------------------ #
    # Writing

    def append(self, record: R) -> None:
        """Durably append one snapshot of *record* (must carry the key)."""
        snapshot = self.encode(record)
        if self.key not in snapshot:
            raise ValueError(f"snapshot is missing its {self.key!r} key")
        line = json.dumps(snapshot, separators=(",", ":"))
        self._write_line(line)
        self.appends_since_rotate += 1

    def _write_line(self, line: str) -> None:
        healed = self._probe_tail and self._needs_heal()
        self._probe_tail = False
        with open(self.path, "a", encoding="utf-8") as handle:
            if healed:
                handle.write("\n")
            try:
                fire("journal", self.fault_context)
                handle.write(line + "\n")
            except InjectedTornWrite:
                # Simulate a crash mid-write: persist only a prefix, no
                # trailing newline. The snapshot is lost; replay falls
                # back to the key's previous snapshot.
                handle.write(line[: max(1, len(line) // 2)])
                self.torn_writes += 1
                self._probe_tail = True
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def _needs_heal(self) -> bool:
        """True when the ledger exists and does not end in a newline."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    # ------------------------------------------------------------------ #
    # Reading

    def snapshots(self, stats: ReplayStats | None = None) -> Iterator[tuple[str, R]]:
        """Every intact record as ``(key, record)``, in append order.

        A line that is not JSON, lacks the key field, or fails
        :meth:`decode` (``ValueError``/``KeyError``/``TypeError``) is
        torn: it is counted in *stats* and skipped.
        """
        stats = stats if stats is not None else ReplayStats()
        try:
            with open(self.path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return
        for index, raw in enumerate(lines):
            raw = raw.strip()
            if not raw:
                continue
            stats.lines += 1
            try:
                data = json.loads(raw)
                if not isinstance(data, dict) or self.key not in data:
                    raise ValueError(f"snapshot without a {self.key!r} key")
                record = self.decode(data)
            except (ValueError, KeyError, TypeError) as error:
                stats.torn += 1
                stats.errors.append(f"line {index + 1}: {error}")
                continue
            stats.applied += 1
            yield str(data[self.key]), record

    def replay(self) -> tuple[dict[str, R], ReplayStats]:
        """Fold :meth:`snapshots` into the latest record per key."""
        stats = ReplayStats()
        return dict(self.snapshots(stats)), stats

    # ------------------------------------------------------------------ #
    # Rotation

    def maybe_rotate(self, records: Iterable[R]) -> bool:
        """Compact once enough appends have accumulated."""
        if self.appends_since_rotate < self.rotate_after:
            return False
        self.rotate(records)
        return True

    def rotate(self, records: Iterable[R]) -> None:
        """Atomically rewrite the ledger as the given records, in order.

        The rewrite goes through a temp file + ``os.replace``, so a
        crash mid-rotation preserves the previous ledger byte-for-byte
        (and leaves a temp the next open sweeps away).
        """
        tmp = self._rotate_tmp()
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(
                    json.dumps(self.encode(record), separators=(",", ":")) + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self.appends_since_rotate = 0

    # ------------------------------------------------------------------ #

    def info(self) -> dict[str, Any]:
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return {
            "path": str(self.path),
            "size_bytes": size,
            "appends_since_rotate": self.appends_since_rotate,
            "torn_writes": self.torn_writes,
            "stale_temps_removed": self.stale_temps_removed,
        }


__all__ = ["ReplayStats", "SnapshotLedger"]
