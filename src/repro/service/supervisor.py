"""The worker-pool supervisor: subprocess isolation, retries, breakers.

Each job attempt runs in a **fresh** :class:`~repro.robust.executor.Worker`
— a forked child, the only isolation that survives a segfault, an OOM
kill, or a poisoned interpreter — whose outcome is a result, a crash, a
hang (the worker beats on a side thread, so a wedged analysis is
detected, not awaited) or a timeout (request budget + slack). The watch
wakes on the event loop when the worker's pipe turns readable or the
process exits; the hang and hard-cap deadlines are its only timers.

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
        self._live: set[Worker] = set()

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

    async def _run_attempt(self, payload: Mapping[str, Any]) -> Outcome:
        """One attempt in a fresh worker, watched to completion or death."""
        from repro.service.worker import prepare_attempt, run_analysis

        worker = Worker(
            run_analysis,
            setup=prepare_attempt,
            heartbeat=self.config.heartbeat_interval,
            hang_timeout=self.config.hang_timeout,
        )
        self._live.add(worker)
        options = payload.get("options", {})
        hard_cap = (
            float(options.get("cumulative_limit", 30.0))
            + float(options.get("chaos_sleep_s", 0.0) or 0.0)
            + self.config.hard_timeout_grace
        )
        # Wake when the pipe has data or EOF, or the process exits; the
        # only timer is the nearer of the hang and hard-cap deadlines.
        # Readers are level-triggered, so data arriving between a check
        # and the next wait still sets the event.
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        watched = worker.fds
        for fd in watched:
            loop.add_reader(fd, wake.set)
        try:
            worker.submit(payload, hard_cap)
            while True:
                wake.clear()
                outcome = worker.check()
                if outcome is not None:
                    return outcome
                timeout = max(worker.deadline() - time.monotonic(), 0.0)
                try:
                    await asyncio.wait_for(wake.wait(), timeout)
                except asyncio.TimeoutError:
                    pass
        finally:
            for fd in watched:
                loop.remove_reader(fd)
            # Usually a worker idle after its result landed: kill it
            # without waiting, so the loop never blocks on its teardown.
            worker.stop(reap=False)
            self._live.discard(worker)

    def kill_all(self) -> int:
        """Hard-stop every live worker (shutdown past the drain deadline)."""
        killed = sum(worker.process.is_alive() for worker in self._live)
        for worker in self._live:
            worker.stop()
        self._live.clear()
        return killed


__all__ = ["SupervisorConfig", "WorkerSupervisor"]
