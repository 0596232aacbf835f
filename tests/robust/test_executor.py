"""The synchronous side of the forked-worker executor.

Each test drives :func:`run_pool` or a lone :class:`Worker` to one of
the four outcomes — result, crash, hang, timeout — and checks that no
worker outlives it. ``tests/service/test_supervisor.py`` covers the
event-loop side.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.robust.budget import CancellationToken
from repro.robust.executor import Worker, run_pool

# Starts a worker, busy or idle, then dies without stopping it.
ORPHAN = """
import os, sys, time
from repro.robust.executor import Worker
worker = Worker(time.sleep)
if sys.argv[1] == "busy":
    worker.submit(0.5)
print(worker.process.pid, flush=True)
os._exit(0)
"""


def _run(function, tasks, size=1, token=None):
    """Every ``(task, outcome)`` the pool yields, and the seconds it took."""
    queue = iter(tasks)
    started = time.monotonic()
    ended = [
        (task, outcome)
        for _, task, outcome in run_pool(
            function, size, lambda _: next(queue, None), token
        )
    ]
    return ended, time.monotonic() - started


def _watch(worker, task, time_limit=float("inf")):
    """Submit *task* to *worker*, poll until it ends: the outcome and seconds."""
    started = time.monotonic()
    worker.submit(task, time_limit)
    try:
        while (outcome := worker.check()) is None:
            time.sleep(0.02)
    finally:
        worker.stop()
    return outcome, time.monotonic() - started


@pytest.fixture(autouse=True)
def no_worker_survives():
    yield
    assert multiprocessing.active_children() == []


def _crash_on_one(task):
    if task == 1:
        os._exit(3)
    return task


def _sleep(_task):
    time.sleep(60.0)


class TestOutcomes:
    def test_results_come_from_persistent_workers(self):
        ended, _ = _run(lambda task: (task, os.getpid()), range(6), size=2)
        assert sorted(task for task, _ in ended) == list(range(6))
        assert all(outcome.ok and outcome.result[0] == task for task, outcome in ended)
        # Two workers served six tasks: each took several in turn.
        assert len({outcome.result[1] for _, outcome in ended}) <= 2

    def test_crash_names_the_task_and_a_fresh_worker_goes_on(self):
        ended, _ = _run(_crash_on_one, [0, 1, 2])
        outcomes = dict(ended)
        assert outcomes[1].failure == "crash"
        assert outcomes[1].detail == "exitcode=3"
        assert outcomes[0].result == 0 and outcomes[2].result == 2

    def test_silent_worker_is_a_hang(self):
        # The setup step runs before the first heartbeat: a worker
        # wedged there is alive and silent.
        worker = Worker(
            lambda task: task, setup=_sleep, heartbeat=0.05, hang_timeout=0.3
        )
        outcome, elapsed = _watch(worker, 7)
        assert outcome.failure == "hang"
        assert outcome.detail.startswith("no heartbeat for ")
        assert 0.3 <= elapsed < 10.0

    def test_overdue_task_is_a_timeout_even_while_beating(self):
        worker = Worker(_sleep, heartbeat=0.05, hang_timeout=5.0)
        outcome, elapsed = _watch(worker, 7, time_limit=0.3)
        assert outcome.failure == "timeout"
        assert outcome.detail == "exceeded hard cap of 0.3s"
        assert 0.3 <= elapsed < 5.0


class TestCancellation:
    def test_token_fired_mid_task_kills_the_busy_workers(self):
        token = CancellationToken()
        timer = threading.Timer(0.3, token.cancel)
        timer.start()
        ended, elapsed = _run(_sleep, [0, 1, 2], size=2, token=token)
        assert ended == []
        assert 0.3 <= elapsed < 5.0

    def test_pre_cancelled_token_forks_nothing(self):
        token = CancellationToken()
        token.cancel()
        fed = []
        assert list(run_pool(_sleep, 2, fed.append, token)) == []
        assert fed == []


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("state", ["idle", "busy"])
def test_worker_outliving_its_parent_exits(state):
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen(
        [sys.executable, "-c", ORPHAN, state], env=env, stdout=subprocess.PIPE, text=True
    ) as parent:
        pid = int(parent.stdout.readline())
        parent.wait(timeout=60)
    deadline = time.monotonic() + 10.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = _running(pid)
    if alive:
        os.kill(pid, signal.SIGKILL)
    assert not alive
