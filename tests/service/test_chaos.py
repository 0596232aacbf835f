"""Chaos suite: injected crashes, hangs, poison grammars, torn journals.

The contract under test: **every submitted job reaches a terminal
state** — completed, degraded, or failed — never lost, never hung; and a
journal replayed after a crash resumes exactly the unfinished work.

Fault plans are installed in the parent registry; the service forwards
them (with attempt-seeded arrival offsets) into each worker subprocess.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.robust.faults import FaultKind, FaultSpec, inject_faults
from repro.robust.retry import RetryPolicy
from repro.service.app import AnalysisService, ServiceConfig
from repro.service.journal import JobJournal
from repro.service.protocol import (
    AnalyzeOptions,
    AnalyzeRequest,
    JobRecord,
    JobState,
)
from repro.service.supervisor import SupervisorConfig

HEALTHY = """
%grammar healthy
%start S
S : T | S T ;
T : X | Y ;
X : 'a' ;
Y : 'a' 'a' 'b' ;
"""

#: Same shape, different content — a distinct grammar_key/fingerprint.
POISON = HEALTHY.replace("%grammar healthy", "%grammar poison").replace(
    "'b'", "'c'"
)


def _config(tmp_path, **overrides) -> ServiceConfig:
    supervisor = SupervisorConfig(
        heartbeat_interval=0.05,
        hang_timeout=0.6,
        retry=RetryPolicy(max_attempts=overrides.pop("retry_attempts", 3),
                          base_delay=0.01, multiplier=2.0, jitter=0.0),
    )
    defaults = dict(
        workers=2,
        journal_path=str(tmp_path / "journal.jsonl"),
        cache_dir=str(tmp_path / "cache"),
        breaker_threshold=2,
        breaker_cooldown=60.0,
        supervisor=supervisor,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _submit_and_wait(service, grammar, name, timeout=60.0, **options):
    request = AnalyzeRequest(
        grammar=grammar, name=name, options=AnalyzeOptions(**options)
    )
    decision, job, _ = service.submit(request)
    assert job is not None, f"not admitted: {decision}"
    final = await service.wait_for(job.id, timeout)
    assert final is not None
    return final


class TestCrashRecovery:
    def test_transient_crash_is_retried_to_completion(self, tmp_path):
        async def scenario():
            service = AnalysisService(_config(tmp_path))
            await service.start()
            try:
                with inject_faults(
                    FaultSpec(point="worker", kind=FaultKind.CRASH, count=1)
                ):
                    final = await _submit_and_wait(service, HEALTHY, "flaky")
                assert final.state is JobState.COMPLETED
                assert final.attempts == 2  # crashed once, then succeeded
                assert service.supervisor.counters.get("failure.crash") == 1
                assert service.supervisor.counters.get("retries.scheduled") == 1
            finally:
                await service.shutdown(drain_timeout=1.0)

        asyncio.run(scenario())

    def test_persistent_crash_degrades_and_trips_the_breaker(self, tmp_path):
        async def scenario():
            service = AnalysisService(_config(tmp_path, retry_attempts=2))
            await service.start()
            try:
                with inject_faults(
                    FaultSpec(
                        point="worker",
                        kind=FaultKind.CRASH,
                        count=1_000_000,
                        match="poison",
                    )
                ):
                    # The poison grammar exhausts its retries...
                    poisoned = await _submit_and_wait(service, POISON, "poison")
                    assert poisoned.state is JobState.DEGRADED
                    degradation = poisoned.result["degradation"]
                    assert degradation["error_type"] == "RetriesExhausted"
                    # ...which trips its breaker (threshold 2), so the next
                    # submission is refused without burning a worker.
                    rejected = await _submit_and_wait(service, POISON, "poison")
                    assert rejected.state is JobState.DEGRADED
                    assert (
                        rejected.result["degradation"]["error_type"]
                        == "CircuitBreakerOpen"
                    )
                    assert rejected.attempts == 0
                    # Healthy traffic is entirely unaffected.
                    healthy = await _submit_and_wait(service, HEALTHY, "healthy")
                    assert healthy.state is JobState.COMPLETED
                states = service.breakers.states()
                assert any(s["state"] == "open" for s in states.values())
            finally:
                await service.shutdown(drain_timeout=1.0)

        asyncio.run(scenario())

    def test_hung_worker_is_reaped_and_retried(self, tmp_path):
        async def scenario():
            service = AnalysisService(_config(tmp_path))
            await service.start()
            try:
                with inject_faults(
                    FaultSpec(point="worker", kind=FaultKind.HANG, count=1)
                ):
                    started = time.monotonic()
                    final = await _submit_and_wait(service, HEALTHY, "wedged")
                    elapsed = time.monotonic() - started
                assert final.state is JobState.COMPLETED
                assert final.attempts == 2
                assert service.supervisor.counters.get("failure.hang") == 1
                # Reaped by the heartbeat monitor, not the hard cap.
                assert elapsed < 30.0
            finally:
                await service.shutdown(drain_timeout=1.0)

        asyncio.run(scenario())


class TestTerminality:
    def test_every_job_reaches_a_terminal_state(self, tmp_path):
        """The chaos sweep: mixed healthy/crashing/broken submissions."""

        async def scenario():
            service = AnalysisService(_config(tmp_path, retry_attempts=2))
            await service.start()
            try:
                with inject_faults(
                    FaultSpec(
                        point="worker",
                        kind=FaultKind.CRASH,
                        count=1_000_000,
                        match="poison",
                    )
                ):
                    jobs = []
                    for index in range(3):
                        _, job, _ = service.submit(
                            AnalyzeRequest(
                                grammar=HEALTHY + f"// v{index}\n",
                                name=f"healthy-{index}",
                            )
                        )
                        jobs.append(job)
                    _, poison_job, _ = service.submit(
                        AnalyzeRequest(grammar=POISON, name="poison")
                    )
                    jobs.append(poison_job)
                    _, broken, _ = service.submit(
                        AnalyzeRequest(grammar="%start S\nS ;", name="broken")
                    )
                    jobs.append(broken)
                    finals = [
                        await service.wait_for(job.id, 120.0) for job in jobs
                    ]
                assert all(f is not None and f.state.terminal for f in finals)
                by_name = {f.request.name: f for f in finals}
                assert by_name["poison"].state is JobState.DEGRADED
                assert by_name["broken"].state is JobState.FAILED
                for index in range(3):
                    assert (
                        by_name[f"healthy-{index}"].state is JobState.COMPLETED
                    )
            finally:
                await service.shutdown(drain_timeout=2.0)

        asyncio.run(scenario())

    def test_permanent_failure_never_burns_retries_or_breakers(self, tmp_path):
        async def scenario():
            service = AnalysisService(_config(tmp_path))
            await service.start()
            try:
                final = await _submit_and_wait(
                    service, "%start S\nS : ;;;", "syntactically-broken"
                )
                assert final.state is JobState.FAILED
                assert final.attempts == 1
                assert final.error
                assert service.breakers.open_count == 0
            finally:
                await service.shutdown(drain_timeout=1.0)

        asyncio.run(scenario())


class TestResume:
    def test_journal_resume_after_simulated_kill(self, tmp_path):
        """A journal abandoned mid-job (as by ``kill -9``) resumes cleanly."""
        journal_path = tmp_path / "journal.jsonl"
        journal = JobJournal(journal_path)
        # The dead service journaled: one completed, one running, one
        # queued — then the final line was torn mid-write.
        done = AnalyzeRequest(grammar=HEALTHY, name="was-done")
        done_job = JobRecord.new(done, now=10.0)
        journal.append(done_job)
        journal.append(
            done_job.advance(JobState.COMPLETED, 11.0, result={"ok": True})
        )
        running = AnalyzeRequest(grammar=POISON, name="was-running")
        running_job = JobRecord.new(running, now=12.0)
        journal.append(running_job)
        journal.append(running_job.advance(JobState.RUNNING, 13.0, attempts=1))
        with inject_faults(
            FaultSpec(point="journal", kind=FaultKind.TORN_WRITE)
        ):
            journal.append(running_job.advance(JobState.RUNNING, 14.0))

        async def scenario():
            service = AnalysisService(_config(tmp_path))
            await service.start()
            try:
                assert service.resumed == 1
                assert service.replay_stats.torn == 1
                # The completed job is NOT re-run (no duplicate side
                # effects) but stays queryable.
                assert service.jobs[done_job.id].state is JobState.COMPLETED
                final = await service.wait_for(running_job.id, 60.0)
                assert final is not None
                assert final.state is JobState.COMPLETED
                # The interrupted attempt still counts toward the total.
                assert final.attempts >= 2
            finally:
                await service.shutdown(drain_timeout=1.0)

        asyncio.run(scenario())

    def test_drain_checkpoints_unfinished_work_for_the_next_boot(self, tmp_path):
        config = _config(tmp_path)

        async def first_boot():
            service = AnalysisService(config)
            await service.start()
            # A job slow enough (synthetic pre-analysis sleep) that the
            # impatient drain below cannot finish it.
            _, job, _ = service.submit(
                AnalyzeRequest(
                    grammar=HEALTHY,
                    name="slow",
                    options=AnalyzeOptions(chaos_sleep_s=20.0),
                )
            )
            await asyncio.sleep(0.2)  # let it reach RUNNING
            summary = await service.shutdown(drain_timeout=0.2)
            assert summary["drained"] == 0
            assert summary["checkpointed"] == 1
            return job.id

        async def second_boot(job_id):
            service = AnalysisService(_config(tmp_path))
            await service.start()
            try:
                assert service.resumed == 1
                job = service.jobs[job_id]
                # Checkpointed back to queued, not lost or terminal.
                assert job.state is JobState.QUEUED
                # The resumed copy keeps the original clamped options —
                # cancel the wait quickly by just checking it requeued.
                assert job.request.options.chaos_sleep_s > 0.0
            finally:
                await service.shutdown(drain_timeout=0.1)

        job_id = asyncio.run(first_boot())
        asyncio.run(second_boot(job_id))


class TestCacheSharing:
    def test_repeat_submission_rides_the_warm_cache(self, tmp_path):
        """Acceptance: the second run's build phase is absent entirely."""

        async def scenario():
            service = AnalysisService(_config(tmp_path, workers=1))
            await service.start()
            try:
                first = await _submit_and_wait(service, HEALTHY, "g1")
                assert first.state is JobState.COMPLETED
                phases1 = first.result["phases"]
                assert any(
                    path == "automaton" or path.startswith("automaton/")
                    for path in phases1
                )
                second = await _submit_and_wait(service, HEALTHY, "g1")
                assert second.state is JobState.COMPLETED
                assert second.id != first.id
                phases2 = second.result["phases"]
                assert not any(
                    path == "automaton" or path.startswith("automaton/")
                    for path in phases2
                )
                assert "cache/decode" in phases2
            finally:
                await service.shutdown(drain_timeout=1.0)

        asyncio.run(scenario())

    def test_live_duplicate_submissions_coalesce(self, tmp_path):
        async def scenario():
            service = AnalysisService(_config(tmp_path, workers=1))
            await service.start()
            try:
                options = AnalyzeOptions(chaos_sleep_s=1.0)
                request = AnalyzeRequest(
                    grammar=HEALTHY, name="dup", options=options
                )
                _, job1, co1 = service.submit(request)
                _, job2, co2 = service.submit(request)
                assert not co1
                assert co2
                assert job1.id == job2.id
                assert service.coalesced == 1
                final = await service.wait_for(job1.id, 60.0)
                assert final.state is JobState.COMPLETED
            finally:
                await service.shutdown(drain_timeout=1.0)

        asyncio.run(scenario())


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
