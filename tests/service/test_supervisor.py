"""The supervisor's watch and its kept workers.

The watch wakes on the result pipe and the process sentinel; its only
timer is the nearer of the hang and hard-cap deadlines. Patching
``asyncio.sleep`` to raise inside the supervisor module proves no
attempt waits on a sleep loop. A worker is kept after a result that is
not a transient error and stopped after anything else; a worker that
dies while idle costs the next job nothing.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from unittest import mock

import pytest

from repro.robust.faults import FaultKind, FaultSpec
from repro.service import supervisor as supervisor_module
from repro.service.breaker import BreakerState
from repro.service.protocol import AnalyzeRequest, JobRecord
from repro.service.supervisor import SupervisorConfig, WorkerSupervisor

GRAMMAR = """
%grammar tiny
%start S
S : S 'a' | 'a' | 'a' 'a' ;
"""


def _payload(**extra) -> dict:
    payload = {
        "grammar": GRAMMAR,
        "name": "tiny",
        "options": {"time_limit": 2.0, "cumulative_limit": 10.0},
    }
    payload.update(extra)
    return payload


def _attempt(config: SupervisorConfig, payload: dict):
    supervisor = WorkerSupervisor(config)

    def no_sleep(*_args, **_kwargs):
        raise AssertionError("the supervisor slept instead of waiting on the pipe")

    async def scenario():
        with mock.patch.object(supervisor_module.asyncio, "sleep", no_sleep):
            return await asyncio.wait_for(supervisor._run_attempt(payload), 30.0)

    started = time.monotonic()
    try:
        outcome = asyncio.run(scenario())
    finally:
        supervisor.kill_all()
    return outcome, time.monotonic() - started


class TestEventDrivenWatch:
    def test_normal_attempt_finishes_without_sleeping(self):
        outcome, _ = _attempt(SupervisorConfig(), _payload())
        assert outcome.ok, outcome
        assert outcome.result["ok"] is True
        assert outcome.result["conflicts"] > 0

    def test_hang_is_detected_by_its_deadline(self):
        hang = FaultSpec(point="worker", kind=FaultKind.HANG, count=1)
        outcome, elapsed = _attempt(
            SupervisorConfig(hang_timeout=0.5),
            _payload(faults=[hang.to_json()]),
        )
        assert outcome.failure == "hang"
        assert outcome.detail.startswith("no heartbeat for ")
        assert 0.5 <= elapsed < 10.0

    def test_crash_is_detected_without_sleeping(self):
        crash = FaultSpec(point="worker", kind=FaultKind.CRASH, count=1)
        outcome, elapsed = _attempt(
            SupervisorConfig(hang_timeout=20.0),
            _payload(faults=[crash.to_json()]),
        )
        assert outcome.failure == "crash"
        assert outcome.detail == "exitcode=3"
        # Seen on EOF, long before the hang deadline.
        assert elapsed < 10.0

    def test_crash_beside_a_running_attempt_leaves_the_loop_idle(self):
        # The second worker is forked while the first attempt runs, so it
        # inherits the parent's end of the first worker's pipe. Were that
        # end closed before the loop stopped watching it, epoll would keep
        # reporting it at EOF and the loop would spin until the second
        # attempt ends.
        crash = FaultSpec(point="worker", kind=FaultKind.CRASH, count=1)
        hang = FaultSpec(point="worker", kind=FaultKind.HANG, count=1)
        supervisor = WorkerSupervisor(SupervisorConfig(hang_timeout=1.0))
        wakes = 0

        async def scenario():
            nonlocal wakes
            selector = asyncio.get_running_loop()._selector  # type: ignore[attr-defined]
            select = selector.select

            def counted(timeout=None):
                nonlocal wakes
                wakes += 1
                return select(timeout)

            with mock.patch.object(selector, "select", counted):
                return await asyncio.gather(
                    supervisor._run_attempt(_payload(faults=[crash.to_json()])),
                    supervisor._run_attempt(_payload(faults=[hang.to_json()])),
                )

        try:
            crashed, hung = asyncio.run(scenario())
        finally:
            supervisor.kill_all()
        assert (crashed.failure, hung.failure) == ("crash", "hang")
        # A handful of wakes (fork, EOF, exit, the hang deadline), not a
        # second of spinning.
        assert wakes < 100, wakes


def _in_turn(supervisor: WorkerSupervisor, payloads: list[dict]):
    """Each payload's outcome, attempted one after another, and the pid
    of the worker that ran it."""
    pids = []
    start = supervisor._start

    def recording(payload, hard_cap):
        worker = start(payload, hard_cap)
        pids.append(worker.process.pid)
        return worker

    async def scenario():
        return [
            await asyncio.wait_for(supervisor._run_attempt(payload), 30.0)
            for payload in payloads
        ]

    try:
        with mock.patch.object(supervisor, "_start", recording):
            outcomes = asyncio.run(scenario())
    finally:
        supervisor.kill_all()
    return outcomes, pids


def _fault(kind: FaultKind, at: int = 0) -> dict:
    return FaultSpec(point="worker", kind=kind, at=at).to_json()


class TestWorkerReuse:
    def test_clean_attempts_and_a_permanent_failure_share_one_worker(self):
        supervisor = WorkerSupervisor()
        outcomes, pids = _in_turn(
            supervisor,
            [_payload(), _payload(grammar="%start S\nS : 'a' ;;"), _payload()],
        )
        assert [outcome.result["ok"] for outcome in outcomes] == [True, False, True]
        assert outcomes[1].result["permanent"] is True
        assert len(set(pids)) == 1
        assert supervisor.counters["workers.forked"] == 1
        assert supervisor.counters["workers.reused"] == 2

    @pytest.mark.parametrize(
        "config, failing, failed",
        [
            (SupervisorConfig(), _payload(faults=[_fault(FaultKind.CRASH)]), "crash"),
            (
                SupervisorConfig(hang_timeout=0.5),
                _payload(faults=[_fault(FaultKind.HANG)]),
                "hang",
            ),
            (
                SupervisorConfig(hang_timeout=20.0, hard_timeout_grace=0.5),
                _payload(
                    faults=[_fault(FaultKind.HANG)],
                    options={"time_limit": 2.0, "cumulative_limit": 0.0},
                ),
                "timeout",
            ),
            (
                SupervisorConfig(),
                _payload(options={"time_limit": "soon"}),
                "transient error",
            ),
        ],
        ids=["crash", "hang", "timeout", "transient"],
    )
    def test_a_failed_attempt_discards_its_worker(self, config, failing, failed):
        supervisor = WorkerSupervisor(config)
        outcomes, pids = _in_turn(supervisor, [_payload(), failing, _payload()])
        before, during, after = outcomes
        assert before.result["ok"] and after.result["ok"]
        if failed == "transient error":
            assert during.ok and during.result["permanent"] is False
        else:
            assert during.failure == failed
        # The failing attempt ran on the kept worker; the next one forked.
        assert pids[0] == pids[1] != pids[2]
        assert supervisor.counters["workers.forked"] == 2

    def test_a_kept_worker_fires_only_its_own_attempts_fault_plan(self):
        # The first plan crashes on the second arrival at ``worker``. Left
        # armed in the kept worker, it would crash the second attempt.
        supervisor = WorkerSupervisor()
        outcomes, pids = _in_turn(
            supervisor,
            [
                _payload(faults=[_fault(FaultKind.CRASH, at=1)]),
                _payload(),
                _payload(faults=[_fault(FaultKind.CRASH)]),
            ],
        )
        assert outcomes[0].result["ok"] and outcomes[1].result["ok"]
        assert outcomes[2].failure == "crash"
        assert len(set(pids)) == 1

    @pytest.mark.parametrize("seen", ["dead", "broken-pipe"])
    def test_an_idle_worker_killed_between_jobs_costs_no_attempt(self, seen):
        supervisor = WorkerSupervisor()
        request = AnalyzeRequest(grammar=GRAMMAR, name="tiny")

        async def scenario():
            await supervisor.run_job(JobRecord.new(request, time.time()), _payload())
            (idle,) = supervisor._idle
            os.kill(idle.process.pid, signal.SIGKILL)  # as the OOM killer would
            idle.process.join(10.0)
            assert idle.process.exitcode == -signal.SIGKILL
            if seen == "broken-pipe":
                # Dead but not yet seen dead: only the send finds out.
                idle.process.is_alive = lambda: True
            return await supervisor.run_job(
                JobRecord.new(request, time.time()), _payload()
            )

        try:
            ok, result, attempts = asyncio.run(scenario())
        finally:
            supervisor.kill_all()
        assert ok and result["ok"]
        assert attempts == 1
        breaker = supervisor.breakers.get(request.grammar_key)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.total_failures == 0
        assert supervisor.counters == {"workers.forked": 2}

    def test_kill_all_counts_only_workers_killed_mid_attempt(self):
        supervisor = WorkerSupervisor()
        slow = _payload(options={"cumulative_limit": 10.0, "chaos_sleep_s": 30.0})

        async def scenario():
            await asyncio.gather(
                supervisor._run_attempt(_payload()), supervisor._run_attempt(_payload())
            )
            cut = asyncio.create_task(supervisor._run_attempt(slow))
            await asyncio.sleep(0.2)
            cut.cancel()  # as the drain's task cancellation does
            await asyncio.gather(cut, return_exceptions=True)

        asyncio.run(scenario())
        idle = list(supervisor._idle)
        assert len(idle) == 1
        assert supervisor.kill_all() == 1
        assert supervisor._idle == []
        assert not any(worker.process.is_alive() for worker in idle)


def test_config_has_no_poll_interval():
    with pytest.raises(TypeError):
        SupervisorConfig(poll_interval=0.01)  # type: ignore[call-arg]
