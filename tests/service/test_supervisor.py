"""The supervisor notices a finished, hung or dead attempt without a poll timer.

The watch wakes on the result pipe and the process sentinel; its only
timer is the nearer of the hang and hard-cap deadlines. Patching
``asyncio.sleep`` to raise inside the supervisor module proves no
attempt waits on a sleep loop.
"""

from __future__ import annotations

import asyncio
import time
from unittest import mock

import pytest

from repro.robust.faults import FaultKind, FaultSpec
from repro.service import supervisor as supervisor_module
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
        "heartbeat_interval": 0.05,
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
    outcome = asyncio.run(scenario())
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

        crashed, hung = asyncio.run(scenario())
        assert (crashed.failure, hung.failure) == ("crash", "hang")
        # A handful of wakes (fork, EOF, exit, the hang deadline), not a
        # second of spinning.
        assert wakes < 100, wakes


def test_config_has_no_poll_interval():
    with pytest.raises(TypeError):
        SupervisorConfig(poll_interval=0.01)  # type: ignore[call-arg]
