#!/usr/bin/env python3
"""CI smoke sweep for the grammar-analysis service.

Boots the real server as a subprocess (the same entry CI users run:
``repro-conflicts serve``) and drives the full supervised lifecycle over
actual HTTP:

1. a healthy grammar completes, and a repeat submission proves the warm
   automaton cache (no ``automaton`` build phase the second time) and
   runs on the worker kept from the first job;
2. a poison grammar — crash-injected via ``REPRO_FAULTS`` with a
   ``match`` filter — exhausts its retries, trips its circuit breaker,
   and is breaker-rejected on resubmission, while healthy traffic keeps
   flowing;
3. SIGTERM drains the server: it exits 0 with no tracebacks and leaves
   no worker process running;
4. ``kill -9`` mid-job, then a restart on the same journal, resumes the
   interrupted job to completion with no duplicate side effects.

Exits nonzero (with a diagnostic) on the first failed check.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEALTHY = """
%grammar healthy
%start S
S : T | S T ;
T : X | Y ;
X : 'a' ;
Y : 'a' 'a' 'b' ;
"""

POISON = HEALTHY.replace("%grammar healthy", "%grammar poison").replace(
    "'b'", "'c'"
)

SLOW_OPTIONS = {"chaos_sleep_s": 30.0}


#: Every live server subprocess, so an aborting check can reap them.
#: Without this, fail() used to sys.exit() over running servers: the
#: orphans kept appending to journals inside a directory the sweep was
#: tearing down, stranding half-written journal temp files (and the
#: server processes themselves) behind the exiting script.
_LIVE_SERVERS: list["Server"] = []


def _reap_servers() -> None:
    for server in _LIVE_SERVERS:
        if server.process.poll() is None:
            server.process.kill()
            try:
                server.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    _reap_servers()
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"  ok: {message}")


def _state(pid: int) -> tuple[int, str] | None:
    """A process's parent pid and state letter (from Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return int(fields[1]), fields[0]


def _running(pid: int) -> bool:
    state = _state(pid)
    return state is not None and state[1] != "Z"


def _workers(server_pid: int) -> list[int]:
    """The server's running child processes: its forked workers."""
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        state = _state(int(entry)) if entry.isdigit() else None
        if state is not None and state[0] == server_pid and state[1] != "Z":
            found.append(int(entry))
    return found


class Server:
    """One ``repro-conflicts serve`` subprocess."""

    def __init__(self, workdir: str, extra_env: dict | None = None, **flags):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        args = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--journal",
            os.path.join(workdir, "journal.jsonl"),
            "--cache-dir",
            os.path.join(workdir, "cache"),
        ]
        for flag, value in flags.items():
            args.extend([f"--{flag.replace('_', '-')}", str(value)])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        env.update(extra_env or {})
        self.process = subprocess.Popen(
            args,
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        _LIVE_SERVERS.append(self)
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.time() + 30.0
        assert self.process.stdout is not None
        while time.time() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("listening on http://"):
                return int(line.rsplit(":", 1)[1])
        out, err = self.process.communicate(timeout=5)
        fail(f"server never announced its port.\nstdout:{out}\nstderr:{err}")
        raise AssertionError  # unreachable

    def request(self, method: str, path: str, body: dict | None = None):
        url = f"http://127.0.0.1:{self.port}{path}"
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(url, data=data, method=method)
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def analyze(self, grammar: str, name: str, wait: float = 90.0, **options):
        body = {"grammar": grammar, "name": name}
        if options:
            body["options"] = options
        return self.request("POST", f"/v1/analyze?wait={wait}", body)

    def stop(self, sig=signal.SIGTERM, timeout: float = 30.0):
        self.process.send_signal(sig)
        try:
            out, err = self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, err = self.process.communicate()
            fail("server did not exit after signal")
        if self in _LIVE_SERVERS:
            _LIVE_SERVERS.remove(self)
        return self.process.returncode, out, err


def phase_healthy_and_cache(workdir: str) -> None:
    print("phase 1: healthy grammar + warm cache")
    server = Server(workdir)
    workers: list[int] = []
    try:
        status, first = server.analyze(HEALTHY, "healthy")
        check(status == 200, f"healthy analysis returns 200 (got {status})")
        check(first["state"] == "completed", "healthy job completes")
        check(first["result"]["conflicts"] == 1, "conflict is reported")
        phases = first["result"]["phases"]
        check(
            any(p == "automaton" or p.startswith("automaton/") for p in phases),
            "cold run builds the automaton",
        )
        status, second = server.analyze(HEALTHY, "healthy")
        check(second["state"] == "completed", "repeat submission completes")
        phases = second["result"]["phases"]
        check(
            not any(p == "automaton" or p.startswith("automaton/") for p in phases),
            "warm run has no automaton build phase (cache hit)",
        )
        check("cache/decode" in phases, "warm run decoded the cached entry")
        status, health = server.request("GET", "/healthz")
        check(status == 200, "/healthz answers")
        for key in ("queue_depth", "breakers", "retries", "admission"):
            check(key in health, f"/healthz reports {key}")
        check(
            health["retries"].get("workers.reused", 0) >= 1,
            "repeat submission ran on a kept worker",
        )
        workers = _workers(server.process.pid)
        check(
            bool(workers) or not os.path.isdir("/proc"),
            f"the kept worker waits idle ({len(workers)} worker(s) running)",
        )
    finally:
        code, out, err = server.stop()
        check(code == 0, f"clean SIGTERM exit (got {code})")
        check("Traceback" not in err, "no tracebacks on stderr")
        check("shutdown complete" in out, "drain reported on stdout")
        check(
            not any(_running(pid) for pid in workers),
            "no worker outlives the server after SIGTERM",
        )


def phase_poison_breaker(workdir: str) -> None:
    print("phase 2: poison grammar trips its breaker; fleet stays healthy")
    faults = json.dumps(
        [
            {
                "point": "worker",
                "kind": "crash",
                "count": 1000000,
                "match": "poison",
            }
        ]
    )
    server = Server(
        workdir,
        extra_env={"REPRO_FAULTS": faults},
        retry_attempts=2,
        breaker_threshold=2,
        breaker_cooldown=300,
    )
    try:
        status, poisoned = server.analyze(POISON, "poison")
        check(poisoned["state"] == "degraded", "poison job degrades, not lost")
        check(
            poisoned["result"]["degradation"]["error_type"] == "RetriesExhausted",
            "degradation names exhausted retries",
        )
        status, rejected = server.analyze(POISON, "poison")
        check(
            rejected["result"]["degradation"]["error_type"] == "CircuitBreakerOpen",
            "resubmission is breaker-rejected",
        )
        check(rejected["attempts"] == 0, "breaker rejection burns no workers")
        status, healthy = server.analyze(HEALTHY, "healthy")
        check(healthy["state"] == "completed", "healthy traffic unaffected")
        _, health = server.request("GET", "/healthz")
        check(health["breakers"]["open"] >= 1, "/healthz shows the open breaker")
        check(
            health["retries"].get("failure.crash", 0) >= 2,
            "/healthz shows crash retry counters",
        )
    finally:
        code, _, err = server.stop()
        check(code == 0, f"clean exit with a tripped breaker (got {code})")
        check("Traceback" not in err, "no tracebacks on stderr")


def phase_kill9_resume(workdir: str) -> None:
    print("phase 3: kill -9 mid-job, restart resumes the journal")
    server = Server(workdir, drain_timeout=5)
    status, accepted = server.analyze(
        HEALTHY, "interrupted", wait=0, **SLOW_OPTIONS
    )
    check(status == 202, "slow job accepted")
    job_id = accepted["id"]
    deadline = time.time() + 30.0
    while time.time() < deadline:
        _, snapshot = server.request("GET", f"/v1/jobs/{job_id}")
        if snapshot["state"] == "running":
            break
        time.sleep(0.1)
    check(snapshot["state"] == "running", "job reached running before the kill")
    server.process.kill()  # SIGKILL: no drain, no checkpoint
    server.process.wait(timeout=10)

    restarted = Server(workdir)
    try:
        _, replayed = restarted.request("GET", f"/v1/jobs/{job_id}")
        check(
            replayed["state"] in ("queued", "running", "completed"),
            f"journal resumed the interrupted job (state={replayed['state']})",
        )
        deadline = time.time() + 120.0
        while time.time() < deadline:
            _, final = restarted.request("GET", f"/v1/jobs/{job_id}")
            if final["state"] not in ("queued", "running"):
                break
            time.sleep(0.5)
        check(
            final["state"] == "completed",
            f"resumed job completed (state={final['state']})",
        )
        _, health = restarted.request("GET", "/healthz")
        check(health["resumed"] == 1, "exactly one job was resumed (no dupes)")
    finally:
        code, _, err = restarted.stop()
        check(code == 0, f"clean exit after resume (got {code})")
        check("Traceback" not in err, "no tracebacks on stderr")


def main() -> int:
    # The resumed job re-runs its synthetic sleep; keep it short enough
    # for CI but long enough to straddle the kill.
    SLOW_OPTIONS["chaos_sleep_s"] = 8.0
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as workdir:
        phase_healthy_and_cache(os.path.join(workdir, "p1"))
        phase_poison_breaker(os.path.join(workdir, "p2"))
        phase_kill9_resume(os.path.join(workdir, "p3"))
    print("service smoke sweep: all phases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
