"""One forked-worker executor: the only place ``repro`` starts processes.

Parallel explanation (``--jobs N``), the campaign scheduler and the
service supervisor all run on :class:`Worker`: a child forked with the
``fork`` start method, so it inherits what the parent built instead of
receiving it pickled. It takes one task at a time over its own pipe, so
the parent always knows which task a dead, silent or overdue worker
held, and may heartbeat while the task runs. The parent turns what it
sees into one :class:`Outcome`: a result, a **crash** (death or EOF
without a result), a **hang** (no heartbeat for ``hang_timeout``) or a
**timeout** (the task outlived its limit). Retry policy stays with the
callers.

A worker lives on from task to task, so a child first detaches every
socket it inherited except its own pipe: the other workers' pipes and,
in the service, the listening socket, open client connections and the
event loop's self-pipe. Otherwise a client whose connection was open at
the fork would never see EOF. Children ignore SIGINT, so a terminal's
``^C`` reaches only the parent, and are stopped by a kill.
:func:`run_pool` is the synchronous side; the service watches
:attr:`Worker.fds` from its event loop instead.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import stat
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterator

from repro.robust.budget import CancellationToken

#: Seconds between cancellation-token checks while a synchronous caller waits.
POLL_SECONDS = 0.05

_CONTEXT = multiprocessing.get_context("fork")


@dataclass
class Outcome:
    """What one task produced: its result, or how its worker failed."""

    result: Any = None
    failure: str | None = None  # "crash" | "hang" | "timeout"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failure is None


def _drop_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but *keep* at ``/dev/null``.

    Overwriting instead of closing keeps each descriptor number taken, so
    a stale socket object the child collects later closes nothing of its
    own. Plain pipes (process sentinels) and the standard streams stay.
    """
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/dev/fd"):
            fd = int(name)
            if fd <= 2 or fd in (keep, null):
                continue
            try:
                inherited = stat.S_ISSOCK(os.fstat(fd).st_mode)
            except OSError:
                continue  # the listing's own descriptor, closed by now
            if inherited:
                os.dup2(null, fd, inheritable=False)
    finally:
        os.close(null)


def _serve(conn, function, setup, heartbeat) -> None:
    """The child's loop: receive a task, beat while it runs, send its result.

    A worker orphaned by its parent's death (``kill -9``) exits: idle, its
    pipe is at EOF; busy, its send fails.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _drop_inherited_sockets(conn.fileno())

    def beat(stop: threading.Event) -> None:
        try:
            while True:
                conn.send(("hb", None))
                if stop.wait(heartbeat):
                    return
        except (OSError, ValueError):
            return  # the parent closed the pipe

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return  # the parent is gone
        if setup is not None:
            setup(task)
        stop = threading.Event()
        beater = None
        if heartbeat is not None:
            beater = threading.Thread(target=beat, args=(stop,), daemon=True)
            beater.start()
        result = function(task)
        stop.set()
        if beater is not None:
            beater.join()  # no heartbeat trails the result into the next task
        try:
            conn.send(("result", result))
        except OSError:
            return  # the parent is gone


class Worker:
    """One forked child that runs ``function(task)`` for each task it is sent.

    Args:
        function: Runs in the child; its return value is pickled back.
        setup: Runs in the child before each task's first heartbeat, so
            it can wedge the worker silently (the service's ``worker``
            fault point).
        heartbeat: Seconds between heartbeats while a task runs;
            ``None`` sends none.
        hang_timeout: Heartbeat silence, in seconds, that is a hang.
    """

    def __init__(
        self,
        function: Callable[[Any], Any],
        *,
        setup: Callable[[Any], None] | None = None,
        heartbeat: float | None = None,
        hang_timeout: float = math.inf,
    ) -> None:
        self._conn, child = _CONTEXT.Pipe()
        self.process = _CONTEXT.Process(
            target=_serve,
            args=(child, function, setup, heartbeat),
            daemon=True,
        )
        self.process.start()
        child.close()
        self._hang_timeout = hang_timeout
        self._time_limit = math.inf
        self._started = self._last_beat = 0.0

    @property
    def fds(self) -> tuple[int, int]:
        """The pipe and the exit sentinel: each turns readable on news."""
        return self._conn.fileno(), self.process.sentinel

    def submit(self, task: Any, time_limit: float = math.inf) -> None:
        """Hand the idle worker *task*; it times out after *time_limit* s."""
        self._conn.send(task)
        self._time_limit = time_limit
        self._started = self._last_beat = time.monotonic()

    def deadline(self) -> float:
        """When the held task hangs or times out, on the monotonic clock."""
        return min(
            self._last_beat + self._hang_timeout, self._started + self._time_limit
        )

    def check(self) -> Outcome | None:
        """Read what the child sent: the held task's outcome, once it has one.

        A hung or overdue worker is killed; a failed one is reaped. The
        pipe stays open until :meth:`stop`, so an event loop can stop
        watching it first.
        """
        closed = False
        try:
            while self._conn.poll(0):
                kind, value = self._conn.recv()
                if kind == "result":
                    return Outcome(result=value)
                self._last_beat = time.monotonic()
        except (EOFError, OSError):
            closed = True
        # The exit sentinel turns readable a few ms before the pipe's EOF
        # and before the child can be reaped: either one means a crash.
        if closed or wait([self.process.sentinel], 0):
            self.process.join(1.0)
            return Outcome(failure="crash", detail=f"exitcode={self.process.exitcode}")
        now = time.monotonic()
        if now - self._last_beat > self._hang_timeout:
            return self._killed("hang", f"no heartbeat for {now - self._last_beat:.2f}s")
        if now - self._started > self._time_limit:
            return self._killed(
                "timeout", f"exceeded hard cap of {self._time_limit:.1f}s"
            )
        return None

    def _killed(self, failure: str, detail: str) -> Outcome:
        self.process.kill()
        self.process.join(1.0)
        return Outcome(failure=failure, detail=detail)

    def stop(self, reap: bool = True) -> None:
        """Kill the child and close the pipe; *reap* also waits for its exit
        (without it, the next worker's start reaps the child)."""
        self.process.kill()
        if reap:
            self.process.join(1.0)
        self._conn.close()


def run_pool(
    function: Callable[[Any], Any],
    size: int,
    feed: Callable[[int], Any],
    token: CancellationToken | None = None,
) -> Iterator[tuple[int, Any, Outcome]]:
    """Run tasks on up to *size* persistent workers: the synchronous side.

    ``feed(slot)`` is asked for the next task whenever worker *slot* is
    idle; ``None`` means nothing for now, and it is asked again after
    the next task ends. Yields ``(slot, task, outcome)`` as each task
    ends, until none is left; an outcome is a result or a crash. Workers
    fork on first use; a slot whose worker crashed gets a fresh one.
    Once *token* fires the iteration ends, with the unfinished tasks
    unyielded. Every worker is killed when the iteration ends or is
    closed, so callers close it (``contextlib.closing``) rather than
    leave that to garbage collection.
    """
    workers: list[Worker | None] = [None] * size
    held: dict[int, tuple[Worker, Any]] = {}
    try:
        while token is None or not token.cancelled:
            for slot in range(size):
                if slot in held:
                    continue
                task = feed(slot)
                if task is None:
                    break
                worker = workers[slot] = workers[slot] or Worker(function)
                worker.submit(task)
                held[slot] = worker, task
            if not held:
                return
            wait(
                [fd for worker, _ in held.values() for fd in worker.fds],
                None if token is None else POLL_SECONDS,
            )
            for slot, (worker, task) in list(held.items()):
                outcome = worker.check()
                if outcome is None:
                    continue
                del held[slot]
                if not outcome.ok:
                    worker.stop()
                    workers[slot] = None
                yield slot, task, outcome
    finally:
        for worker in workers:
            if worker is not None:
                worker.stop()


__all__ = ["POLL_SECONDS", "Outcome", "Worker", "run_pool"]
