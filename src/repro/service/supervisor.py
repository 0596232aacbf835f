"""The worker-pool supervisor: subprocess isolation, retries, breakers.

Each job attempt runs in a **fresh subprocess** — the only isolation
that survives a segfault, an OOM kill, or a poisoned interpreter. The
supervisor watches the attempt from the parent event loop:

* **result** on the pipe → success;
* process **exit without a result** → crash;
* **heartbeats stop** while the process lives → hang (the worker beats
  on a side thread, so a wedged analysis is detected, not awaited);
* the attempt outlives its **hard deadline** (request budget + slack) →
  timeout.

The watch wakes on the event loop when the result pipe turns readable
or the process exits; the hang and hard-cap deadlines are its only
timers, so a finished attempt is seen as soon as its result lands.

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
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.robust.retry import RetryPolicy
from repro.service.breaker import BreakerBoard
from repro.service.protocol import JobRecord, degraded_result


def _default_context() -> multiprocessing.context.BaseContext:
    # fork is dramatically cheaper than spawn (the parent already has
    # repro imported) and the worker only computes and writes to a pipe.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX fallback
        return multiprocessing.get_context("spawn")


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


@dataclass
class AttemptOutcome:
    """What one subprocess attempt produced."""

    result: dict[str, Any] | None = None
    failure: str | None = None  # "crash" | "hang" | "timeout"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.result is not None


class WorkerSupervisor:
    """Runs job attempts in subprocesses and supervises them."""

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        breakers: BreakerBoard | None = None,
        counters: dict[str, int] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.breakers = breakers if breakers is not None else BreakerBoard()
        self.counters = counters if counters is not None else {}
        self._clock = clock
        self._ctx = _default_context()
        self._rng = random.Random(0xC0FFEE)
        self._live: set[multiprocessing.process.BaseProcess] = set()

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
            attempt_payload["heartbeat_interval"] = self.config.heartbeat_interval
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

    async def _run_attempt(self, payload: Mapping[str, Any]) -> AttemptOutcome:
        """One subprocess attempt, watched to completion or death."""
        from repro.service.worker import worker_entry

        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_entry, args=(child_conn, dict(payload)), daemon=True
        )
        process.start()
        self._live.add(process)
        child_conn.close()
        options = payload.get("options", {})
        hard_cap = (
            float(options.get("cumulative_limit", 30.0))
            + float(options.get("chaos_sleep_s", 0.0) or 0.0)
            + self.config.hard_timeout_grace
        )
        started = self._clock()
        last_beat = started
        result: dict[str, Any] | None = None
        # Wake when the pipe has data or EOF, or the process exits; the
        # only timer is the nearer of the hang and hard-cap deadlines.
        # Readers are level-triggered, so data arriving between a drain
        # and the next wait still sets the event.
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        watched = (parent_conn.fileno(), process.sentinel)
        for fd in watched:
            loop.add_reader(fd, wake.set)
        try:
            while True:
                drained_eof = False
                wake.clear()
                try:
                    while parent_conn.poll(0):
                        kind, value = parent_conn.recv()
                        if kind == "hb":
                            last_beat = self._clock()
                        elif kind == "result":
                            result = value
                except (EOFError, OSError):
                    drained_eof = True
                if result is not None:
                    return AttemptOutcome(result=result)
                now = self._clock()
                if drained_eof or not process.is_alive():
                    # Dead (or pipe closed) without a result: a crash.
                    process.join(timeout=1.0)
                    return AttemptOutcome(
                        failure="crash",
                        detail=f"exitcode={process.exitcode}",
                    )
                if now - last_beat > self.config.hang_timeout:
                    self._kill(process)
                    return AttemptOutcome(
                        failure="hang",
                        detail=f"no heartbeat for {now - last_beat:.2f}s",
                    )
                if now - started > hard_cap:
                    self._kill(process)
                    return AttemptOutcome(
                        failure="timeout",
                        detail=f"exceeded hard cap of {hard_cap:.1f}s",
                    )
                deadline = min(last_beat + self.config.hang_timeout, started + hard_cap)
                try:
                    await asyncio.wait_for(wake.wait(), max(deadline - now, 0.0))
                except asyncio.TimeoutError:
                    pass
        finally:
            for fd in watched:
                loop.remove_reader(fd)
            parent_conn.close()
            if process.is_alive():
                # Usually a worker still exiting after its result landed:
                # signal it without waiting, so the loop never blocks on
                # its teardown. The next Process.start() reaps it.
                try:
                    process.kill()
                except (OSError, ValueError):
                    pass
            self._live.discard(process)

    def _kill(self, process: multiprocessing.process.BaseProcess) -> None:
        try:
            process.kill()
            process.join(timeout=1.0)
        except (OSError, ValueError):
            pass

    def kill_all(self) -> int:
        """Hard-stop every live worker (shutdown past the drain deadline)."""
        killed = 0
        for process in list(self._live):
            if process.is_alive():
                self._kill(process)
                killed += 1
            self._live.discard(process)
        return killed


__all__ = ["AttemptOutcome", "SupervisorConfig", "WorkerSupervisor"]
