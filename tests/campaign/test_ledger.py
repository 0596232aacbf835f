"""Shard ledger crash-safety: replay, interruption, flake history.

A shard's checkpoints are plain ``running``/``done`` snapshots on a
:class:`~repro.robust.ledger.SnapshotLedger` keyed by ``unit``, folded
by :func:`~repro.campaign.scheduler.replay_units`. The fixture under
``fixtures/`` was written by the previous ``ShardLedger`` wrapper; it
must keep replaying (and resuming) to the same state.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import repro.campaign.scheduler as scheduler_module
from repro.campaign.runner import UnitResult
from repro.campaign.scheduler import CampaignScheduler, replay_units
from repro.campaign.units import CampaignSpec, fuzz_unit
from repro.robust.faults import FaultKind, FaultSpec, inject_faults
from repro.robust.ledger import ReplayStats, SnapshotLedger

FIXTURES = Path(__file__).parent / "fixtures"


def _result(unit_id: str, payload: dict, attempt: int = 1) -> UnitResult:
    return UnitResult(unit_id, "ok", payload, {"elapsed_s": 0.1}, attempt)


def _ledger(path: Path) -> SnapshotLedger:
    return SnapshotLedger(path, key="unit")


def _running(ledger: SnapshotLedger, unit, attempt: int) -> None:
    ledger.append({"unit": unit.id, "state": "running", "attempt": attempt})


def _done(ledger: SnapshotLedger, result: UnitResult) -> None:
    ledger.append(
        {"unit": result.unit_id, "state": "done", "result": result.to_json()}
    )


class TestReplay:
    def test_done_units_are_terminal(self, tmp_path):
        ledger = _ledger(tmp_path / "s.jsonl")
        unit = fuzz_unit(1)
        _running(ledger, unit, 1)
        _done(ledger, _result(unit.id, {"x": 1}))
        completed, interrupted, _ = replay_units(ledger)
        assert set(completed) == {unit.id}
        assert interrupted == {}
        assert completed[unit.id].payload == {"x": 1}

    def test_running_units_are_interrupted(self, tmp_path):
        ledger = _ledger(tmp_path / "s.jsonl")
        done, lost = fuzz_unit(1), fuzz_unit(2)
        _running(ledger, done, 1)
        _done(ledger, _result(done.id, {}))
        _running(ledger, lost, 1)  # killed before its done snapshot
        completed, interrupted, _ = replay_units(ledger)
        assert set(completed) == {done.id}
        assert interrupted == {lost.id: 1}

    def test_torn_done_line_degrades_to_interrupted(self, tmp_path):
        ledger = _ledger(tmp_path / "s.jsonl")
        unit = fuzz_unit(1)
        _running(ledger, unit, 1)
        with inject_faults(FaultSpec(point="journal", kind=FaultKind.TORN_WRITE)):
            _done(ledger, _result(unit.id, {"x": 1}))
        assert ledger.torn_writes == 1
        completed, interrupted, _ = replay_units(ledger)
        # The intact `running` snapshot wins: the unit re-runs.
        assert completed == {}
        assert interrupted == {unit.id: 1}


class TestFlakes:
    def test_agreeing_attempts_are_not_flaky(self, tmp_path):
        ledger = _ledger(tmp_path / "s.jsonl")
        unit = fuzz_unit(1)
        for attempt in (1, 2):
            _running(ledger, unit, attempt)
            _done(ledger, _result(unit.id, {"x": 1}, attempt))
        assert replay_units(ledger)[2] == {}

    def test_disagreeing_attempts_are_flagged(self, tmp_path):
        ledger = _ledger(tmp_path / "s.jsonl")
        unit = fuzz_unit(1)
        _running(ledger, unit, 1)
        _done(ledger, _result(unit.id, {"x": 1}, 1))
        _running(ledger, unit, 2)
        _done(ledger, _result(unit.id, {"x": 2}, 2))
        flakes = replay_units(ledger)[2]
        assert set(flakes) == {unit.id}
        assert len(flakes[unit.id]) == 2
        assert len(set(flakes[unit.id])) == 2


def _stub_execute(unit, spec, cache=None, attempt=1):
    return UnitResult(unit.id, "ok", {"key": unit.key}, {"elapsed_s": 0.0}, attempt)


class TestOnDiskFormat:
    def test_scheduler_writes_the_checkpoint_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler_module, "execute_unit", _stub_execute)
        spec = CampaignSpec(fuzz_iterations=1)
        CampaignScheduler(spec, tmp_path).run_shard((1, 1))
        unit = fuzz_unit(0)
        result = _stub_execute(unit, None)
        lines = (tmp_path / "shard-1-of-1.ledger.jsonl").read_text().splitlines()
        assert lines == [
            '{"unit":"fuzz:00000000","state":"running","attempt":1}',
            json.dumps(
                {"unit": unit.id, "state": "done", "result": result.to_json()},
                separators=(",", ":"),
            ),
        ]

    def test_previous_format_replays_to_the_same_state(self):
        # Units 0 (done twice, digests disagree), 1 (running when
        # killed) and 2 (done line torn mid-write, no final newline).
        ledger = _ledger(FIXTURES / "shard-1-of-1.ledger.jsonl")
        expected = json.loads(
            (FIXTURES / "shard-1-of-1.ledger.expected.json").read_text()
        )
        completed, interrupted, flakes = replay_units(ledger)
        assert {
            unit_id: result.to_json() for unit_id, result in completed.items()
        } == expected["completed"]
        assert interrupted == expected["interrupted"]
        assert flakes == expected["flakes"]

    def test_previous_format_resumes_only_the_interrupted_units(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "execute_unit", _stub_execute)
        shutil.copy(FIXTURES / "shard-1-of-1.ledger.jsonl", tmp_path)
        path = CampaignScheduler(
            CampaignSpec(fuzz_iterations=3), tmp_path
        ).run_shard((1, 1))
        document = json.loads(path.read_text())
        assert document["telemetry"]["resumed"] == 1
        assert document["telemetry"]["executed"] == 2
        assert document["units"]["fuzz:00000000"]["digest"] == "aa4f56d121cd2982"
        assert document["flakes"] == {
            "fuzz:00000000": ["10aa76125cd913fc", "aa4f56d121cd2982"]
        }
        # The torn tail was healed before the first new line: the old
        # fragment is the only line that does not parse.
        stats = ReplayStats()
        ledger = _ledger(tmp_path / "shard-1-of-1.ledger.jsonl")
        assert len(dict(ledger.snapshots(stats))) == 3
        assert stats.torn == 1
        completed, interrupted, _ = replay_units(ledger)
        assert sorted(completed) == [fuzz_unit(k).id for k in range(3)]
        assert interrupted == {}
