"""The supervised grammar-analysis service: asyncio server + job store.

One process, one event loop, four moving parts:

* an **HTTP front** — a deliberately tiny HTTP/1.1 reader over
  :func:`asyncio.start_server` (request line, headers, ``Content-Length``
  body; one request per connection). The API is three routes:
  ``POST /v1/analyze``, ``GET /v1/jobs/<id>``, and the
  ``/healthz`` / ``/readyz`` probes;
* the **admission controller** (:mod:`repro.service.admission`) standing
  between the socket and the queue;
* an asyncio **worker pool** pulling jobs off the queue and running each
  through the :class:`~repro.service.supervisor.WorkerSupervisor`
  (subprocess isolation on forked workers kept across jobs, retries,
  circuit breakers);
* the **journal** (:mod:`repro.service.journal`): every state change is
  appended before it is acknowledged, so ``kill -9`` at any instant
  loses at most the in-flight line and a restart resumes every
  non-terminal job.

Submissions carrying an identical fingerprint (grammar + options) while
a matching job is still live are **coalesced** onto that job instead of
queued twice; repeat submissions after completion re-run, usually on a
worker kept from an earlier job, and ride the warm automaton cache,
which the per-job phase metrics make visible (a cache-warm run has no
``automaton`` build span).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.perf.metrics import MetricsCollector
from repro.robust.budget import CancellationToken
from repro.robust.faults import install_from_env, registry
from repro.robust.ledger import ReplayStats
from repro.service.admission import (
    Admitted,
    AdmissionConfig,
    AdmissionController,
    Decision,
    Rejected,
    Shed,
)
from repro.service.breaker import BreakerBoard
from repro.service.journal import JobJournal, resumable
from repro.service.protocol import (
    AnalyzeRequest,
    JobRecord,
    JobState,
    ProtocolError,
)
from repro.service.supervisor import SupervisorConfig, WorkerSupervisor

#: Cap on the longest ``?wait=`` a client may request (seconds).
MAX_WAIT_S = 120.0


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service needs to boot."""

    host: str = "127.0.0.1"
    port: int = 8777
    workers: int = 2
    journal_path: str = "service-journal.jsonl"
    cache_dir: str | None = None
    drain_timeout: float = 10.0
    max_body_bytes: int = 1024 * 1024
    fsync_journal: bool = False
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)


class AnalysisService:
    """Job store, queue, worker pool, and probes — the service brain."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self.config = config or ServiceConfig()
        self._clock = clock
        self._wall = wall
        self.token = CancellationToken()
        self.breakers = BreakerBoard(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self.supervisor = WorkerSupervisor(
            self.config.supervisor, breakers=self.breakers
        )
        self.admission = AdmissionController(
            self.config.admission, token=self.token, clock=clock
        )
        self.journal = JobJournal(
            self.config.journal_path, fsync=self.config.fsync_journal
        )
        self.jobs: dict[str, JobRecord] = {}
        self.queue: asyncio.Queue[str] = asyncio.Queue()
        self.events: dict[str, asyncio.Event] = {}
        self.metrics = MetricsCollector(clock=clock)
        self.replay_stats = ReplayStats()
        self.resumed = 0
        self.coalesced = 0
        self.draining = False
        self._running: set[str] = set()
        self._worker_tasks: list[asyncio.Task[None]] = []

    # ------------------------------------------------------------------ #
    # Lifecycle

    async def start(self) -> None:
        """Replay the journal, resume unfinished work, start the pool."""
        records, self.replay_stats = self.journal.replay()
        for record in records.values():
            if record.state.terminal:
                self.jobs[record.id] = record
        for record in resumable(records):
            requeued = record.advance(JobState.QUEUED, self._wall())
            self._journal(requeued)
            self.events[requeued.id] = asyncio.Event()
            self.queue.put_nowait(requeued.id)
            self.resumed += 1
        for index in range(max(1, self.config.workers)):
            self._worker_tasks.append(
                asyncio.create_task(
                    self._worker_loop(), name=f"service-worker-{index}"
                )
            )

    async def shutdown(self, drain_timeout: float | None = None) -> dict[str, int]:
        """Drain under a deadline, checkpoint the rest, stop everything."""
        self.draining = True
        self.token.cancel("service shutting down")
        deadline = (
            drain_timeout if drain_timeout is not None else self.config.drain_timeout
        )
        drained = True
        try:
            await asyncio.wait_for(self.queue.join(), timeout=max(deadline, 0.0))
        except asyncio.TimeoutError:
            drained = False
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks.clear()
        killed = self.supervisor.kill_all()
        checkpointed = 0
        for job in list(self.jobs.values()):
            if not job.state.terminal:
                # Back to queued: the next boot's resume pass re-runs it.
                self._journal(job.advance(JobState.QUEUED, self._wall()))
                checkpointed += 1
        self.journal.rotate(self.jobs.values())
        return {
            "drained": int(drained),
            "checkpointed": checkpointed,
            "workers_killed": killed,
        }

    # ------------------------------------------------------------------ #
    # Submission

    def submit(
        self, request: AnalyzeRequest
    ) -> tuple[Decision, JobRecord | None, bool]:
        """Admission-check *request*; returns (decision, job, coalesced)."""
        decision = self.admission.decide(request, self.queue.qsize())
        if not isinstance(decision, Admitted):
            return decision, None, False
        clamped = AnalyzeRequest(
            grammar=request.grammar, name=request.name, options=decision.options
        )
        for job in self.jobs.values():
            if (
                not job.state.terminal
                and job.request.fingerprint == clamped.fingerprint
            ):
                self.coalesced += 1
                return decision, job, True
        job = JobRecord.new(clamped, self._wall())
        self._journal(job)
        self.events[job.id] = asyncio.Event()
        self.queue.put_nowait(job.id)
        return decision, job, False

    async def wait_for(self, job_id: str, timeout: float) -> JobRecord | None:
        """Block until *job_id* reaches a terminal state (or timeout)."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state.terminal:
            return job
        event = self.events.get(job_id)
        if event is not None:
            try:
                await asyncio.wait_for(event.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass
        return self.jobs.get(job_id)

    # ------------------------------------------------------------------ #
    # The worker loop

    def _journal(self, record: JobRecord) -> None:
        self.jobs[record.id] = record
        self.journal.append(record)

    def _payload(self, job: JobRecord) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "grammar": job.request.grammar,
            "name": job.request.name,
            "options": job.request.options.to_json(),
            "faults": [spec.to_json() for spec in registry().specs],
        }
        if self.config.cache_dir:
            payload["cache_dir"] = self.config.cache_dir
        return payload

    async def _worker_loop(self) -> None:
        while True:
            job_id = await self.queue.get()
            try:
                job = self.jobs.get(job_id)
                if job is None or job.state.terminal:
                    continue
                started = self._clock()
                job = job.advance(JobState.RUNNING, self._wall())
                self._journal(job)
                self._running.add(job_id)
                try:
                    ok, result, attempts = await self.supervisor.run_job(
                        job, self._payload(job)
                    )
                finally:
                    self._running.discard(job_id)
                self._finish(job, ok, result, attempts)
                self.admission.observe_job_seconds(self._clock() - started)
                self.journal.maybe_rotate(self.jobs.values())
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 — keep the pool alive
                job = self.jobs.get(job_id)
                if job is not None and not job.state.terminal:
                    self._finish(
                        job,
                        False,
                        {
                            "ok": False,
                            "error": f"{type(error).__qualname__}: {error}",
                        },
                        job.attempts,
                    )
            finally:
                self.queue.task_done()

    def _finish(
        self, job: JobRecord, ok: bool, result: dict[str, Any], attempts: int
    ) -> None:
        if ok:
            state = JobState.COMPLETED
            error = None
            self._merge_phases(result.get("phases") or {})
        elif result.get("permanent"):
            state = JobState.FAILED
            error = str(result.get("error", "permanent failure"))
        else:
            state = JobState.DEGRADED
            degradation = result.get("degradation") or {}
            error = str(
                degradation.get("reason")
                or result.get("error")
                or "degraded without detail"
            )
        final = job.advance(
            state, self._wall(), attempts=attempts, result=result, error=error
        )
        self._journal(final)
        event = self.events.get(job.id)
        if event is not None:
            event.set()

    def _merge_phases(self, phases: Mapping[str, Any]) -> None:
        for path, cell in phases.items():
            existing = self.metrics.spans.get(path)
            count = int(cell.get("count", 0))
            total = float(cell.get("total_s", 0.0))
            if existing is None:
                self.metrics.spans[path] = [count, total]
            else:
                existing[0] += count
                existing[1] += total

    # ------------------------------------------------------------------ #
    # Probes

    def healthz(self) -> dict[str, Any]:
        by_state: dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "queue_depth": self.queue.qsize(),
            "running": len(self._running),
            "jobs": by_state,
            "resumed": self.resumed,
            "coalesced": self.coalesced,
            "admission": self.admission.counters(),
            "retries": dict(sorted(self.supervisor.counters.items())),
            "breakers": {
                "open": self.breakers.open_count,
                "states": self.breakers.states(),
            },
            "journal": {
                **self.journal.info(),
                "replay": {
                    "lines": self.replay_stats.lines,
                    "applied": self.replay_stats.applied,
                    "torn": self.replay_stats.torn,
                },
            },
            "phases": {
                path: {"count": count, "total_s": round(total, 6)}
                for path, (count, total) in sorted(self.metrics.spans.items())
            },
        }

    def readyz(self) -> tuple[int, dict[str, Any]]:
        if self.draining:
            return 503, {"ready": False, "reason": "draining"}
        return 200, {"ready": True}


# ---------------------------------------------------------------------- #
# The HTTP front


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response_bytes(
    status: int, body: Mapping[str, Any], headers: Mapping[str, str] | None = None
) -> bytes:
    payload = json.dumps(body, separators=(",", ":")).encode()
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + payload


async def _read_request(
    reader: asyncio.StreamReader, max_body: int
) -> tuple[str, str, bytes] | tuple[None, int, str]:
    """Parse one HTTP/1.1 request; returns (method, target, body) or
    (None, status, reason) when the request itself is malformed."""
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        return None, 400, "request line too long"
    if not request_line:
        return None, 400, "empty request"
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        return None, 400, "malformed request line"
    method, target = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return None, 400, "malformed Content-Length"
    if content_length < 0:
        return None, 400, "malformed Content-Length"
    if content_length > max_body:
        return None, 413, f"body exceeds {max_body} bytes"
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            return None, 400, "body shorter than Content-Length"
    return method, target, body


async def _handle_analyze(
    service: AnalysisService, query: Mapping[str, list[str]], body: bytes
) -> tuple[int, dict[str, Any], dict[str, str]]:
    try:
        data = json.loads(body.decode() or "{}")
        if not isinstance(data, dict):
            raise ProtocolError("request body must be a JSON object")
        request = AnalyzeRequest.from_json(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        return 400, {"error": f"malformed JSON body: {error}"}, {}
    except ProtocolError as error:
        return 400, {"error": str(error)}, {}
    decision, job, coalesced = service.submit(request)
    if isinstance(decision, Rejected):
        return decision.status, {"error": decision.reason}, {}
    if isinstance(decision, Shed):
        return (
            503,
            {"error": decision.reason, "retry_after_s": decision.retry_after},
            {"Retry-After": str(decision.retry_after)},
        )
    assert job is not None
    wait_s = 0.0
    if "wait" in query:
        raw = (query["wait"] or ["0"])[0]
        try:
            wait_s = min(max(float(raw), 0.0), MAX_WAIT_S)
        except ValueError:
            wait_s = MAX_WAIT_S if raw in ("true", "yes", "") else 0.0
    if wait_s > 0.0:
        waited = await service.wait_for(job.id, wait_s)
        if waited is not None:
            job = waited
    status = 200 if job.state.terminal else 202
    payload = job.public_json()
    payload["href"] = f"/v1/jobs/{job.id}"
    if coalesced:
        payload["coalesced"] = True
    return status, payload, {}


def make_handler(
    service: AnalysisService,
) -> Callable[[asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]]:
    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await _read_request(reader, service.config.max_body_bytes)
            if parsed[0] is None:
                _, status, reason = parsed
                writer.write(_response_bytes(int(status), {"error": str(reason)}))
            else:
                method, target, body = parsed
                split = urlsplit(str(target))
                path = split.path
                query = parse_qs(split.query)
                status, payload, headers = await _route(
                    service, str(method), path, query, bytes(body)
                )
                writer.write(_response_bytes(status, payload, headers))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as error:  # noqa: BLE001 — connection fault boundary
            try:
                writer.write(
                    _response_bytes(
                        500, {"error": f"{type(error).__qualname__}: {error}"}
                    )
                )
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    return handle


async def _route(
    service: AnalysisService,
    method: str,
    path: str,
    query: Mapping[str, list[str]],
    body: bytes,
) -> tuple[int, dict[str, Any], dict[str, str]]:
    if path == "/v1/analyze":
        if method != "POST":
            return 405, {"error": "use POST"}, {}
        return await _handle_analyze(service, query, body)
    if path.startswith("/v1/jobs/"):
        if method != "GET":
            return 405, {"error": "use GET"}, {}
        job = service.jobs.get(path[len("/v1/jobs/") :])
        if job is None:
            return 404, {"error": "no such job"}, {}
        return 200, job.public_json(), {}
    if path == "/healthz":
        return 200, service.healthz(), {}
    if path == "/readyz":
        status, payload = service.readyz()
        return status, payload, {}
    return 404, {"error": f"no such route: {path}"}, {}


# ---------------------------------------------------------------------- #
# CLI entry


async def _serve(config: ServiceConfig) -> int:
    service = AnalysisService(config)
    await service.start()
    server = await asyncio.start_server(
        make_handler(service), config.host, config.port
    )
    bound = server.sockets[0].getsockname()
    print(f"listening on http://{bound[0]}:{bound[1]}", flush=True)
    if service.resumed:
        print(f"resumed {service.resumed} journaled job(s)", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    hooked: list[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            hooked.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    try:
        await stop.wait()
        print("shutting down: draining queue", flush=True)
        server.close()
        await server.wait_closed()
        summary = await service.shutdown()
        print(
            "shutdown complete: "
            f"drained={bool(summary['drained'])} "
            f"checkpointed={summary['checkpointed']} "
            f"workers_killed={summary['workers_killed']}",
            flush=True,
        )
    finally:
        for signum in hooked:
            loop.remove_signal_handler(signum)
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """``repro-conflicts serve`` — boot the analysis service."""
    parser = argparse.ArgumentParser(
        prog="repro-conflicts serve",
        description="Serve grammar analyses over HTTP with supervision, "
        "admission control, and crash-safe resume.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8777, help="0 picks an ephemeral port"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--journal", default="service-journal.jsonl")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--drain-timeout", type=float, default=10.0)
    parser.add_argument("--breaker-threshold", type=int, default=3)
    parser.add_argument("--breaker-cooldown", type=float, default=30.0)
    parser.add_argument(
        "--global-time-budget",
        type=float,
        default=None,
        help="shed all new work this many seconds after boot",
    )
    parser.add_argument("--hang-timeout", type=float, default=5.0)
    parser.add_argument("--retry-attempts", type=int, default=3)
    parser.add_argument("--fsync-journal", action="store_true")
    args = parser.parse_args(argv)
    # Faults travel by environment so chaos tests can poison a server
    # subprocess; malformed specs should fail loudly at boot, not later.
    install_from_env()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        journal_path=args.journal,
        cache_dir=args.cache_dir,
        drain_timeout=args.drain_timeout,
        fsync_journal=args.fsync_journal,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        admission=AdmissionConfig(
            max_queue=args.queue_limit,
            global_time_budget=args.global_time_budget,
        ),
        supervisor=replace(
            SupervisorConfig(),
            hang_timeout=args.hang_timeout,
            retry=replace(SupervisorConfig().retry, max_attempts=args.retry_attempts),
        ),
    )
    try:
        return asyncio.run(_serve(config))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr, flush=True)
        return 130


__all__ = [
    "AnalysisService",
    "ServiceConfig",
    "make_handler",
    "serve_main",
]
