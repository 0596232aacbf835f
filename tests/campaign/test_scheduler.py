"""Scheduler behaviour: stealing, retries, resume, crash recovery.

Scheduling-logic tests stub out unit execution (they exercise queues,
ledgers, and bookkeeping, not the analyses); the crash-recovery test at
the bottom kill -9s a real ``campaign run`` subprocess mid-campaign and
checks the resume contract end to end.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.campaign.scheduler as scheduler_module
from repro.campaign.report import merge_shard_documents, render_report
from repro.campaign.runner import UnitResult
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.units import CampaignSpec

SPEC = CampaignSpec(fuzz_iterations=6, corpus=("g1", "g2"), bench=("g3",))


def _stub_execute(unit, spec, cache=None, attempt=1):
    return UnitResult(
        unit_id=unit.id,
        outcome="ok",
        payload={"key": unit.key},
        telemetry={"elapsed_s": 0.0, "cache_hits": 0, "cache_misses": 0},
        attempt=attempt,
    )


@pytest.fixture
def stub_units(monkeypatch):
    monkeypatch.setattr(scheduler_module, "execute_unit", _stub_execute)


class TestScheduling:
    def test_single_shard_covers_the_plan(self, tmp_path, stub_units):
        path = CampaignScheduler(SPEC, tmp_path).run_shard((1, 1))
        document = json.loads(path.read_text())
        assert len(document["units"]) == 9
        assert document["campaign"] == SPEC.digest()
        assert document["telemetry"]["executed"] == 9

    def test_local_shards_partition_without_overlap(self, tmp_path, stub_units):
        paths = CampaignScheduler(SPEC, tmp_path).run_local(3)
        documents = [json.loads(path.read_text()) for path in paths]
        ids = [uid for doc in documents for uid in doc["units"]]
        assert len(ids) == len(set(ids)) == 9

    def test_worker_steals_from_the_straggler(self, tmp_path, stub_units):
        # Pre-complete all of shard 2's units: its worker slot must then
        # steal from shard 1 instead of idling.
        scheduler = CampaignScheduler(SPEC, tmp_path)
        run2 = scheduler._prepare(scheduler_module.select_shard(SPEC, (2, 2)))
        while run2.pending:
            unit = run2.pending.popleft()
            result = _stub_execute(unit, SPEC, attempt=run2.begin(unit))
            scheduler._record(run2, unit, result, False)
        paths = scheduler.run_local(2)
        documents = {
            json.loads(p.read_text())["shard"][0]: json.loads(p.read_text())
            for p in paths
        }
        assert documents[2]["telemetry"]["resumed"] == len(documents[2]["units"])
        # Shard 1's queue was partly drained by shard 2's idle slot.
        assert documents[1]["telemetry"]["stolen"] > 0
        assert documents[1]["telemetry"]["executed"] == len(documents[1]["units"])

    def test_resume_skips_terminal_units(self, tmp_path, stub_units):
        CampaignScheduler(SPEC, tmp_path).run_shard((1, 1))
        path = CampaignScheduler(SPEC, tmp_path).run_shard((1, 1))
        document = json.loads(path.read_text())
        assert document["telemetry"]["resumed"] == 9
        assert document["telemetry"]["executed"] == 0

    def test_foreign_ledger_is_rejected(self, tmp_path, stub_units):
        CampaignScheduler(SPEC, tmp_path).run_shard((1, 1))
        other = CampaignSpec(fuzz_iterations=1)
        with pytest.raises(ValueError, match="different campaign"):
            CampaignScheduler(other, tmp_path).run_shard((1, 1))

    def test_error_units_are_retried_and_flagged_as_flaky(
        self, tmp_path, monkeypatch
    ):
        failures = {"fuzz:00000000": 1}

        def flaky_execute(unit, spec, cache=None, attempt=1):
            if failures.get(unit.id, 0) >= attempt:
                return UnitResult(unit.id, "error", {"error_type": "Boom"},
                                  {}, attempt)
            return _stub_execute(unit, spec, cache, attempt)

        monkeypatch.setattr(scheduler_module, "execute_unit", flaky_execute)
        spec = CampaignSpec(fuzz_iterations=2)
        path = CampaignScheduler(spec, tmp_path, retries=1).run_shard((1, 1))
        document = json.loads(path.read_text())
        assert document["units"]["fuzz:00000000"]["outcome"] == "ok"
        assert document["units"]["fuzz:00000000"]  # final result recorded
        assert document["telemetry"]["retried"] == 1
        # The error attempt and the ok attempt disagree → flake ledger.
        assert "fuzz:00000000" in document["flakes"]

    def test_retries_exhausted_keeps_the_error_result(self, tmp_path, monkeypatch):
        def always_fail(unit, spec, cache=None, attempt=1):
            return UnitResult(unit.id, "error", {"error_type": "Boom"}, {}, attempt)

        monkeypatch.setattr(scheduler_module, "execute_unit", always_fail)
        spec = CampaignSpec(fuzz_iterations=1)
        path = CampaignScheduler(spec, tmp_path, retries=2).run_shard((1, 1))
        document = json.loads(path.read_text())
        result = document["units"]["fuzz:00000000"]
        assert result["outcome"] == "error"
        assert document["telemetry"]["retried"] == 2


class TestProcessPool:
    def test_pool_mode_matches_sequential_bytes(self, tmp_path):
        # Real (tiny) campaign: corpus analyses only, which are fast.
        spec = CampaignSpec(corpus=("figure1", "abcd"))
        seq = CampaignScheduler(spec, tmp_path / "seq").run_shard((1, 1))
        pool = CampaignScheduler(spec, tmp_path / "pool", jobs=2).run_shard((1, 1))
        seq_report, _ = merge_shard_documents([json.loads(seq.read_text())])
        pool_report, _ = merge_shard_documents([json.loads(pool.read_text())])
        assert render_report(seq_report) == render_report(pool_report)


class TestKillResume:
    """kill -9 a mid-campaign shard; resume must finish the job."""

    CMD = [
        sys.executable,
        "-m",
        "repro",
        "campaign",
        "run",
        "--fuzz-iterations",
        "8",
        "--corpus",
        "figure1",
        "--quiet",
    ]

    def _env(self):
        env = dict(os.environ)
        repo = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(repo / "src")
        return env

    def _merge(self, out: Path) -> str:
        documents = [
            json.loads(path.read_text())
            for path in sorted(out.glob("shard-*.json"))
            if not path.name.endswith(".tmp")
        ]
        report, _ = merge_shard_documents(documents)
        return render_report(report)

    def test_killed_shard_resumes_without_rerunning_terminal_units(
        self, tmp_path
    ):
        out = tmp_path / "killed"
        ledger = out / "shard-1-of-1.ledger.jsonl"
        process = subprocess.Popen(
            self.CMD + ["--out", str(out), "--shard", "1/1"],
            env=self._env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until at least one unit is terminal, then SIGKILL:
            # no drain, no atexit, nothing — the ledger is all that's left.
            deadline = time.time() + 120.0
            while time.time() < deadline:
                if ledger.exists() and '"state":"done"' in ledger.read_text():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never completed a unit")
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

        completed_before = sum(
            1
            for line in ledger.read_text().splitlines()
            if '"state":"done"' in line
        )
        assert completed_before >= 1

        # Resume: identical command, same --out.
        resumed = subprocess.run(
            self.CMD + ["--out", str(out), "--shard", "1/1"],
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        document = json.loads((out / "shard-1-of-1.json").read_text())
        # Only non-terminal units re-ran.
        assert document["telemetry"]["resumed"] == completed_before
        assert document["telemetry"]["executed"] == 9 - completed_before
        assert len(document["units"]) == 9

        # And the merged report is byte-identical to an uninterrupted run.
        clean_out = tmp_path / "clean"
        clean = subprocess.run(
            self.CMD + ["--out", str(clean_out), "--shard", "1/1"],
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert clean.returncode == 0, clean.stderr
        assert self._merge(out) == self._merge(clean_out)
