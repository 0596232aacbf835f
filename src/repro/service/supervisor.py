"""The worker-pool supervisor: subprocess isolation, retries, breakers.

Each job attempt runs in a :class:`~repro.robust.executor.Worker` — a
forked child, the only isolation that survives a segfault, an OOM kill,
or a poisoned interpreter — whose outcome is a result, a crash, a hang
(the worker beats on a side thread, so a wedged analysis is detected,
not awaited) or a timeout (request budget + slack). The watch wakes on
the event loop when the worker's pipe turns readable or the process
exits; the hang and hard-cap deadlines are its only timers.

Workers are kept across attempts: after a result that is not a
transient error the worker goes idle, and the next attempt takes it
instead of forking. A crash, hang, timeout or transient error stops the
worker, so the retry runs on a fresh one. The service runs at most
``--workers`` attempts at once, so no more workers than that are ever
idle. Each attempt arms its own fault plan (``prepare_attempt`` resets
the registry), whichever worker runs it.

Crash/hang/timeout are transient: the supervisor retries under a
:class:`~repro.robust.retry.RetryPolicy` (exponential backoff + seeded
jitter, awaited asynchronously so the event loop keeps serving). Every
failed attempt feeds the grammar's circuit breaker; once the breaker
opens — or retries are exhausted — the job terminates *degraded* with a
stub-rung verdict rather than being lost. Permanent failures (syntax
errors) terminate immediately as *failed* and never burn retries.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.robust.executor import Outcome, Worker
from repro.robust.retry import RetryPolicy
from repro.service.breaker import BreakerBoard
from repro.service.protocol import JobRecord, degraded_result


@dataclass(frozen=True)
class SupervisorConfig:
    """Detection thresholds and the retry policy."""

    heartbeat_interval: float = 0.1
    #: Silence longer than this while the process lives → hang.
    hang_timeout: float = 5.0
    #: Added to the request's cumulative budget for the hard wall cap
    #: (stage slack, serialization, interpreter startup).
    hard_timeout_grace: float = 30.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=3, base_delay=0.05, multiplier=2.0, max_delay=2.0
        )
    )


class WorkerSupervisor:
    """Runs job attempts in subprocesses and supervises them."""

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        breakers: BreakerBoard | None = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.breakers = breakers if breakers is not None else BreakerBoard()
        self.counters: dict[str, int] = {}
        self._rng = random.Random(0xC0FFEE)
        self._idle: list[Worker] = []

    # ------------------------------------------------------------------ #

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    async def run_job(
        self, job: JobRecord, payload: dict[str, Any]
    ) -> tuple[bool, dict[str, Any], int]:
        """Run *job* to a terminal result.

        Returns ``(ok, result, attempts_made)``. ``ok`` is ``False``
        both for permanent failures (result carries ``error``) and for
        degradations (result carries ``degradation``); the caller maps
        those onto the job states.
        """
        breaker = self.breakers.get(job.request.grammar_key)
        policy = self.config.retry
        attempts = job.attempts
        while True:
            if not breaker.allow():
                self._count("breaker.rejected")
                return (
                    False,
                    degraded_result(
                        stage="supervisor",
                        reason=(
                            "circuit breaker open for this grammar "
                            f"(retry after {breaker.retry_after():.0f}s)"
                        ),
                        error_type="CircuitBreakerOpen",
                    ),
                    attempts,
                )
            attempt_payload = dict(payload)
            attempt_payload["fault_arrivals"] = {"worker": attempts}
            outcome = await self._run_attempt(attempt_payload)
            attempts += 1
            if outcome.ok:
                assert outcome.result is not None
                if outcome.result.get("ok"):
                    breaker.record_success()
                    return True, outcome.result, attempts
                if outcome.result.get("permanent"):
                    # A request that can never succeed is not the
                    # grammar "failing" the fleet — no breaker charge.
                    self._count("failure.permanent")
                    return False, outcome.result, attempts
                breaker.record_failure()
                self._count("failure.transient")
            else:
                assert outcome.failure is not None
                breaker.record_failure()
                self._count(f"failure.{outcome.failure}")
            if not policy.should_retry(attempts - job.attempts):
                self._count("retries.exhausted")
                return (
                    False,
                    degraded_result(
                        stage="supervisor",
                        reason=(
                            f"gave up after {attempts} attempts: "
                            f"{outcome.failure or 'transient error'} "
                            f"{outcome.detail}".strip()
                        ),
                        error_type="RetriesExhausted",
                    ),
                    attempts,
                )
            self._count("retries.scheduled")
            pause = policy.delay(attempts - job.attempts, self._rng)
            if pause > 0.0:
                await asyncio.sleep(pause)

    # ------------------------------------------------------------------ #

    def _start(self, payload: Mapping[str, Any], hard_cap: float) -> Worker:
        """Hand *payload* to an idle worker, or to a fresh one if none is left.

        An idle worker that died meanwhile (an OOM kill, say) is dropped
        here, costing the job no attempt: it is seen dead, or its pipe is
        broken when the payload is sent.
        """
        while self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                try:
                    worker.submit(payload, hard_cap)
                except OSError:
                    pass
                else:
                    self._count("workers.reused")
                    return worker
            worker.stop(reap=False)
        from repro.service.worker import prepare_attempt, run_analysis

        worker = Worker(
            run_analysis,
            setup=prepare_attempt,
            heartbeat=self.config.heartbeat_interval,
            hang_timeout=self.config.hang_timeout,
        )
        worker.submit(payload, hard_cap)
        self._count("workers.forked")
        return worker

    async def _run_attempt(self, payload: Mapping[str, Any]) -> Outcome:
        """One attempt on a worker, watched to completion or death."""
        options = payload.get("options", {})
        hard_cap = (
            float(options.get("cumulative_limit", 30.0))
            + float(options.get("chaos_sleep_s", 0.0) or 0.0)
            + self.config.hard_timeout_grace
        )
        worker = self._start(payload, hard_cap)
        # Wake when the pipe has data or EOF, or the process exits; the
        # only timer is the nearer of the hang and hard-cap deadlines.
        # Readers are level-triggered, so data arriving between a check
        # and the next wait still sets the event. The timer sets the
        # same event rather than bounding the wait with ``wait_for``,
        # which can swallow a cancellation that meets a heartbeat.
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        watched = worker.fds
        for fd in watched:
            loop.add_reader(fd, wake.set)
        outcome = None
        try:
            while True:
                wake.clear()
                outcome = worker.check()
                if outcome is not None:
                    return outcome
                timer = loop.call_later(
                    max(worker.deadline() - time.monotonic(), 0.0), wake.set
                )
                try:
                    await wake.wait()
                finally:
                    timer.cancel()
        finally:
            for fd in watched:
                loop.remove_reader(fd)
            if outcome is not None and outcome.ok and (
                outcome.result.get("ok") or outcome.result.get("permanent")
            ):
                self._idle.append(worker)
            else:
                if outcome is None:  # cancelled mid-attempt: the shutdown
                    self._count("workers.killed")
                # Kill without waiting, so the loop never blocks on the
                # teardown; the next fork reaps the child.
                worker.stop(reap=False)

    def kill_all(self) -> int:
        """Stop the idle workers at shutdown; returns how many workers
        were killed mid-attempt (by the drain's task cancellation)."""
        for worker in self._idle:
            worker.stop()
        self._idle.clear()
        return self.counters.get("workers.killed", 0)


__all__ = ["SupervisorConfig", "WorkerSupervisor"]
