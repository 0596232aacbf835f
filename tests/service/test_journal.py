"""Journal crash-safety: torn writes, replay, rotation, resume.

The fixture under ``fixtures/`` was written by the previous journal
wrapper; it must keep replaying to the same job records.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.robust.faults import FaultKind, FaultSpec, inject_faults
from repro.service.journal import JobJournal, resumable
from repro.service.protocol import AnalyzeRequest, JobRecord, JobState


FIXTURES = Path(__file__).parent / "fixtures"


def _job(name: str = "g", grammar: str = "%start S\nS : 'a' ;") -> JobRecord:
    return JobRecord.new(AnalyzeRequest(grammar=grammar, name=name), now=100.0)


class TestAppendReplay:
    def test_roundtrip_latest_snapshot_wins(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        job = _job()
        journal.append(job)
        running = job.advance(JobState.RUNNING, 101.0)
        journal.append(running)
        done = running.advance(JobState.COMPLETED, 102.0, result={"ok": True})
        journal.append(done)

        records, stats = journal.replay()
        assert stats.lines == 3
        assert stats.applied == 3
        assert stats.torn == 0
        assert records[job.id].state is JobState.COMPLETED
        assert records[job.id].result == {"ok": True}

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        records, stats = JobJournal(tmp_path / "absent.jsonl").replay()
        assert records == {}
        assert stats.lines == 0

    def test_replay_is_idempotent(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        job = _job()
        journal.append(job)
        journal.append(job.advance(JobState.COMPLETED, 101.0))
        first, _ = journal.replay()
        second, _ = journal.replay()
        assert {k: v.to_json() for k, v in first.items()} == {
            k: v.to_json() for k, v in second.items()
        }


class TestTornWrites:
    def test_torn_final_line_loses_only_the_last_snapshot(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        job = _job()
        journal.append(job)
        running = job.advance(JobState.RUNNING, 101.0)
        with inject_faults(FaultSpec(point="journal", kind=FaultKind.TORN_WRITE)):
            journal.append(running)
        assert journal.info()["torn_writes"] == 1
        raw = (tmp_path / "j.jsonl").read_bytes()
        assert not raw.endswith(b"\n")  # genuinely torn on disk

        records, stats = journal.replay()
        assert stats.torn == 1
        # The job fell back to its previous intact snapshot.
        assert records[job.id].state is JobState.QUEUED

    def test_reopen_heals_the_torn_tail_before_appending(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        job = _job()
        with inject_faults(FaultSpec(point="journal", kind=FaultKind.TORN_WRITE)):
            journal.append(job)
        # A "restarted" writer appends the next snapshot cleanly.
        reopened = JobJournal(tmp_path / "j.jsonl")
        reopened.append(job.advance(JobState.COMPLETED, 101.0))
        records, stats = reopened.replay()
        assert stats.torn == 1
        assert records[job.id].state is JobState.COMPLETED
        # Every line after the torn fragment parses.
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2
        json.loads(lines[1])

    def test_tail_probed_once_per_writer(self, tmp_path, monkeypatch):
        journal = JobJournal(tmp_path / "j.jsonl")
        probes = []
        probe = journal._needs_heal
        monkeypatch.setattr(
            journal, "_needs_heal", lambda: probes.append(1) or probe()
        )
        job = _job()
        journal.append(job)
        journal.append(job.advance(JobState.RUNNING, 101.0))
        journal.append(job.advance(JobState.COMPLETED, 102.0))
        assert len(probes) == 1

    def test_append_after_torn_write_heals_the_tail(self, tmp_path, monkeypatch):
        journal = JobJournal(tmp_path / "j.jsonl")
        job = _job()
        journal.append(job)
        with inject_faults(FaultSpec(point="journal", kind=FaultKind.TORN_WRITE)):
            journal.append(job.advance(JobState.RUNNING, 101.0))
        probes = []
        probe = journal._needs_heal
        monkeypatch.setattr(
            journal, "_needs_heal", lambda: probes.append(1) or probe()
        )
        journal.append(job.advance(JobState.COMPLETED, 102.0))
        journal.append(job.advance(JobState.COMPLETED, 103.0))
        assert len(probes) == 1
        raw = (tmp_path / "j.jsonl").read_text()
        lines = raw.split("\n")
        # intact, torn fragment, healed "\n", two intact lines
        assert raw.endswith("\n") and len(lines) == 5
        json.loads(lines[2])
        records, stats = journal.replay()
        assert stats.torn == 1
        assert records[job.id].state is JobState.COMPLETED

    def test_stale_rotation_temp_is_swept_on_reopen(self, tmp_path):
        # A writer killed mid-rotation leaves j.jsonl.rotate.tmp* behind
        # (the os.replace never happened). Reopening the journal must
        # sweep the orphan instead of letting temp files accumulate.
        journal = JobJournal(tmp_path / "j.jsonl")
        job = _job()
        journal.append(job)
        stale = tmp_path / "j.jsonl.rotate.tmp1234"
        stale.write_text('{"half": "written rot')
        unrelated = tmp_path / "other.jsonl.rotate.tmp1"
        unrelated.write_text("not ours")

        reopened = JobJournal(tmp_path / "j.jsonl")
        assert reopened.info()["stale_temps_removed"] == 1
        assert not stale.exists()
        assert unrelated.exists()  # only this journal's temps are swept
        records, _ = reopened.replay()
        assert set(records) == {job.id}

    def test_mid_file_garbage_is_skipped_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        a, b = _job("a"), _job("b", grammar="%start S\nS : 'b' ;")
        journal.append(a)
        with open(tmp_path / "j.jsonl", "a") as handle:
            handle.write("}}} not json {{{\n")
        journal.append(b)
        records, stats = journal.replay()
        assert stats.torn == 1
        assert set(records) == {a.id, b.id}


class TestRotation:
    def test_rotation_keeps_live_and_newest_terminal(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", keep_terminal=2)
        live = _job("live")
        journal.append(live)
        terminals = []
        for index in range(5):
            job = _job(f"t{index}")
            done = job.advance(JobState.COMPLETED, 200.0 + index)
            journal.append(done)
            terminals.append(done)
        journal.rotate({**{live.id: live}, **{t.id: t for t in terminals}}.values())

        records, _ = journal.replay()
        assert live.id in records
        kept_terminal = [r for r in records.values() if r.state.terminal]
        assert len(kept_terminal) == 2
        assert {r.updated_at for r in kept_terminal} == {203.0, 204.0}
        assert journal.info()["appends_since_rotate"] == 0

    def test_maybe_rotate_fires_on_threshold(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl", rotate_after=3)
        job = _job()
        journal.append(job)
        assert not journal.maybe_rotate({job.id: job}.values())
        journal.append(job)
        journal.append(job)
        assert journal.maybe_rotate({job.id: job}.values())
        records, stats = journal.replay()
        assert stats.lines == 1  # compacted to one snapshot
        assert records[job.id].id == job.id


class TestResume:
    def test_resumable_is_live_jobs_oldest_first(self):
        queued = _job("q")
        running = _job("r").advance(JobState.RUNNING, 50.0)
        running = type(running)(**{**running.__dict__, "created_at": 10.0})
        done = _job("d").advance(JobState.COMPLETED, 60.0)
        records = {j.id: j for j in (queued, running, done)}
        resume = resumable(records)
        assert [j.id for j in resume] == [running.id, queued.id]

    def test_terminal_jobs_never_resume(self):
        records = {
            job.id: job.advance(state, 60.0)
            for job, state in (
                (_job("c"), JobState.COMPLETED),
                (_job("f"), JobState.FAILED),
                (_job("g"), JobState.DEGRADED),
                (_job("x"), JobState.CANCELLED),
            )
        }
        assert resumable(records) == []


class TestOnDiskFormat:
    def test_lines_are_compact_job_snapshots(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        job = _job()
        journal.append(job)
        assert journal.path.read_text() == (
            json.dumps(job.to_json(), separators=(",", ":")) + "\n"
        )

    def test_previous_format_replays_to_the_same_records(self):
        # A completed job, one running when killed, and a queued one
        # whose running snapshot was torn mid-write.
        expected = json.loads((FIXTURES / "journal.expected.json").read_text())
        records, stats = JobJournal(FIXTURES / "journal.jsonl").replay()
        assert {
            job_id: record.to_json() for job_id, record in records.items()
        } == expected["records"]
        assert [record.id for record in resumable(records)] == expected["resumable"]
        assert {
            "lines": stats.lines,
            "applied": stats.applied,
            "torn": stats.torn,
        } == expected["replay"]
