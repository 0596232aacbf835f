"""The service workload: a seeded Poisson open loop against ``serve``.

One client process keeps at most two connections open: a submitter that
sends each ``POST /v1/analyze`` (without ``wait``) at its due time, and a
poller that reads ``GET /v1/jobs/<id>`` until the job is terminal.
Latency runs from the due time to the job's terminal ``updated_at``, so
a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import Context, import_seconds, percentile
from tracing import Tracer, layer_metrics, preload, robust_metrics
from workloads import E1, ServiceWorkload

#: Set-ups (server boot plus warm-up) timed before the open loop and
#: again after it; set-up time is their median. Spreading them over the
#: run keeps a few seconds of host slowdown from moving the median.
SETUP_REPEATS = 3

#: Fewest jobs per run, so that at least ten lie beyond the 90th percentile.
MIN_JOBS = 100

#: Pause between polling sweeps; latency comes from the server's own
#: timestamps, so polling slower only spares the server's CPU.
POLL_S = 0.05

#: Longest the loop waits for the last jobs after the final arrival.
DRAIN_S = 60.0

_TOKEN = re.compile(r"'(?:[^'\\]|\\.)+'|\"(?:[^\"\\]|\\.)+\"|%\w+|[A-Za-z_][\w'-]*")


@dataclass(frozen=True)
class Submission:
    due: float  # seconds after the loop starts
    base: str
    name: str
    text: str
    new: bool  # first time this text is sent


def _conflict_keys(grammar) -> list[tuple]:
    """The conflict set, independent of state numbering."""
    from repro.automaton import build_automaton

    automaton = build_automaton(grammar, grammar.table_algorithm)
    return sorted(
        (
            c.terminal.name,
            c.kind.value,
            c.reduce_item.production.index,
            c.reduce_item.dot,
            c.other_item.production.index,
            c.other_item.dot,
        )
        for c in automaton.conflicts
    )


def _rename(text: str, nonterminals: set[str], tag: str) -> str:
    """Rename every nonterminal consistently; quoted terminals are untouched."""

    def replace(match: re.Match) -> str:
        token = match.group()
        return f"{token}_{tag}" if token in nonterminals else token

    header, body = text.split("\n", 1)
    assert header.startswith("%grammar ")
    return f"%grammar {tag}\n" + _TOKEN.sub(replace, body)


@dataclass(frozen=True)
class Inputs:
    warmup: list[Submission]  # one fresh variant per base, sent before timing
    schedule: list[Submission]  # the timed open loop


def make_inputs(workload: ServiceWorkload, seed: int, seconds: float) -> Inputs:
    """The warm-up, the arrival schedule and grammar texts for *seed*.

    The warm-up sends one fresh variant of every base at once, so that
    the server's lazy set-up is done before timing; its texts are never
    sent again. In the timed loop every base grammar gets the same number of
    submissions, a share ``new_share`` of them fresh variants
    (nonterminals renamed) and the rest resends of a text of that base
    already sent in the loop; the seed decides their order, which texts
    are resent, and the arrival times. Arrivals are a Poisson process
    conditioned on its count: sorted uniform times over ``count / rate``
    seconds. Every variant must load to its base's conflict set, or
    set-up fails.
    """
    from repro.corpus import load
    from repro.grammar import load_grammar
    from repro.grammar.emit import dump_grammar

    rng = random.Random(seed)
    references: dict[str, tuple] = {}

    def variant(base: str, due: float, tag: str) -> Submission:
        if base not in references:
            grammar = load(base)
            references[base] = (
                dump_grammar(grammar),
                {n.name for n in grammar.nonterminals},
                _conflict_keys(grammar),
            )
        text, nonterminals, expected = references[base]
        text = _rename(text, nonterminals, tag)
        got = _conflict_keys(load_grammar(text, name=tag))
        if got != expected:
            raise RuntimeError(
                f"variant {tag} of {base} has {len(got)} conflicts, registry "
                f"grammar has {len(expected)}: set-up refuses it"
            )
        return Submission(due, base, f"{base}.{tag}", text, True)

    warmup = [variant(base, 0.0, f"s{seed}w{i}") for i, base in enumerate(workload.bases)]

    per_base = round(1 / workload.new_share)
    jobs = max(MIN_JOBS, workload.rate * seconds)
    rounds = math.ceil(jobs / (per_base * len(workload.bases)))
    order = [base for base in workload.bases for _ in range(rounds * per_base)]
    rng.shuffle(order)
    fresh_at: set[int] = set()
    for base in workload.bases:
        positions = [i for i, name in enumerate(order) if name == base]
        fresh_at.add(positions[0])  # a base's first submission has nothing to resend
        fresh_at.update(rng.sample(positions[1:], rounds - 1))
    span = len(order) / workload.rate
    dues = sorted(rng.uniform(0.0, span) for _ in order)

    sent: dict[str, list[Submission]] = {}
    schedule = []
    for position, (base, due) in enumerate(zip(order, dues)):
        if position not in fresh_at:
            earlier = rng.choice(sent[base])
            schedule.append(Submission(due, base, earlier.name, earlier.text, False))
            continue
        submission = variant(base, due, f"s{seed}n{position}")
        sent.setdefault(base, []).append(submission)
        schedule.append(submission)
    return Inputs(warmup, schedule)


# ---------------------------------------------------------------------- #
# The server


class Server:
    """One ``python -m repro serve`` subprocess with a fresh journal and cache."""

    def __init__(self, ctx: Context, workload: ServiceWorkload, name: str) -> None:
        self.dir = ctx.fresh(name)
        self.journal = self.dir / "journal.jsonl"
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        env.pop("REPRO_FAULTS", None)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--workers", str(workload.workers),
                "--journal", str(self.journal),
                "--cache-dir", str(self.dir / "cache"),
            ],
            cwd=self.dir, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.port = self._await_port()
        self._output = threading.Thread(target=self._drain_stdout, daemon=True)
        self._output.start()

    def _await_port(self) -> int:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(match.group(1))

    def _drain_stdout(self) -> None:
        assert self.process.stdout is not None
        for _ in self.process.stdout:
            pass

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def await_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became ready")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        output = getattr(self, "_output", None)
        if output is not None:
            output.join(timeout=10)  # the server has exited: its stdout is at EOF
        if self.process.stdout is not None:
            self.process.stdout.close()


def _setup(ctx: Context, workload: ServiceWorkload, warmup: list[Submission], name: str):
    """Boot a server and run the warm-up through it."""
    started = time.perf_counter()
    server = Server(ctx, workload, name)
    try:
        server.await_ready()
        loop = open_loop(server, warmup, poll_health=False)
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - started, server, loop.outcomes


# ---------------------------------------------------------------------- #
# The open loop


@dataclass
class Outcome:
    submission: Submission
    sent_at: float = 0.0  # monotonic
    lateness: float = 0.0
    accept_s: float = 0.0
    status: int = 0
    job: dict | None = None
    latency: float | None = None
    round_trip: float | None = None


@dataclass
class LoopResult:
    outcomes: list[Outcome]
    queue_depth_max: int = 0
    journal_lines: list[str] = field(default_factory=list)


def open_loop(server: Server, schedule: list[Submission], poll_health: bool) -> LoopResult:
    outcomes = [Outcome(s) for s in schedule]
    pending: dict[str, list[Outcome]] = {}
    lock = threading.Lock()
    submitted = threading.Event()
    result = LoopResult(outcomes)
    start = time.monotonic() + 0.2
    wall_offset = time.time() - time.monotonic()

    def submit() -> None:
        try:
            for outcome in outcomes:
                due = start + outcome.submission.due
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                outcome.sent_at = time.monotonic()
                outcome.lateness = outcome.sent_at - due
                status, body = server.request(
                    "POST", "/v1/analyze",
                    {"grammar": outcome.submission.text, "name": outcome.submission.name},
                )
                outcome.accept_s = time.monotonic() - outcome.sent_at
                outcome.status = status
                if status in (200, 202):
                    with lock:
                        pending.setdefault(body["id"], []).append(outcome)
        finally:
            submitted.set()

    submitter = threading.Thread(target=submit, daemon=True)
    submitter.start()
    deadline = start + (schedule[-1].due if schedule else 0.0) + DRAIN_S
    last_health = 0.0
    while time.monotonic() < deadline:
        with lock:
            waiting = list(pending)
        if not waiting and submitted.is_set():
            break
        for job_id in waiting:
            status, job = server.request("GET", f"/v1/jobs/{job_id}")
            if status == 200 and job["state"] in ("completed", "degraded", "failed", "cancelled"):
                with lock:
                    done = pending.pop(job_id)
                for outcome in done:
                    outcome.job = job
                    due_wall = start + outcome.submission.due + wall_offset
                    outcome.latency = job["updated_at"] - due_wall
                    outcome.round_trip = job["updated_at"] - (outcome.sent_at + wall_offset)
        if poll_health and time.monotonic() - last_health > POLL_S:
            last_health = time.monotonic()
            health = server.request("GET", "/healthz")[1]
            result.queue_depth_max = max(result.queue_depth_max, health["queue_depth"])
        time.sleep(POLL_S)
    submitter.join(timeout=DRAIN_S)
    result.journal_lines = server.journal.read_text().splitlines()
    return result


def _problem(outcome: Outcome) -> str | None:
    if outcome.status not in (200, 202):
        return f"HTTP {outcome.status}"
    job = outcome.job
    if job is None:
        return "never reached a terminal state"
    if job["state"] != "completed":
        return f"ended {job['state']}: {job.get('error')}"
    summary = job["result"]["summary"]
    pin = E1[outcome.submission.base]
    tally = (summary["conflicts"], summary["unifying"], summary["nonunifying"], summary["timeouts"])
    expected = (pin.conflicts, pin.unifying, pin.nonunifying, pin.timeouts)
    if tally != expected:
        return f"u/n/t tally {tally} != E1 {expected}"
    if any(
        r.get("rung") == "unifying" and r.get("verified") is not True
        for r in summary.get("reports", ())
    ):
        return "unifying report not verified"
    return None


def check(outcomes: list[Outcome]) -> list[str]:
    """Every job completed, verified, with its base grammar's E1 tally."""
    errors = []
    for index, outcome in enumerate(outcomes):
        problem = _problem(outcome)
        if problem is not None:
            errors.append(f"job {index} ({outcome.submission.name}): {problem}")
    return errors


def _boot(ctx: Context, workload: ServiceWorkload, warmup: list[Submission], label: str):
    """Set up SETUP_REPEATS times; keep the last server running."""
    times, warmups = [], []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        seconds, server, outcomes = _setup(ctx, workload, warmup, f"server-{label}{index}")
        times.append(seconds)
        warmups.extend(outcomes)
    return times, server, warmups


def run_untraced(ctx: Context, workload: ServiceWorkload) -> dict:
    ctx.use_source_tree()
    inputs = make_inputs(workload, ctx.seed, ctx.seconds)
    schedule = inputs.schedule
    setups, server, warmups = _boot(ctx, workload, inputs.warmup, "before")
    try:
        loop = open_loop(server, schedule, poll_health=False)
    finally:
        server.stop()
    after, server, late_warmups = _boot(ctx, workload, inputs.warmup, "after")
    server.stop()
    setups += after
    warmups += late_warmups
    outcomes = loop.outcomes
    errors = check(warmups + outcomes)
    latencies = [o.latency for o in outcomes if o.latency is not None]
    cold = [o.latency for o in outcomes if o.latency is not None and o.submission.new]
    warm = [o.latency for o in outcomes if o.latency is not None and not o.submission.new]
    lateness = [o.lateness for o in outcomes]
    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_s": sum(cold),
        "warm_sweep_s": sum(warm),
        "latency_mean_s": statistics.fmean(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "peak_rss_mb": ctx.peak_child_rss_mb(),
    }
    ctx.note(
        f"{len(outcomes)} timed jobs at {workload.rate}/s ({len(cold)} new texts, "
        f"{len(warm)} resent), latency p50 {percentile(latencies, 50):.4f}s; "
        f"{len(warmups)} warm-up jobs over {len(setups)} set-ups; generator lateness "
        f"p50 {percentile(lateness, 50) * 1e3:.2f} ms, max {max(lateness) * 1e3:.2f} ms"
    )
    return {"metrics": metrics, "attempted": len(warmups) + len(outcomes),
            "failed": len(errors), "errors": errors}


# ---------------------------------------------------------------------- #
# Traced run


def _payload(submission: Submission, cache: Path) -> dict:
    return {"grammar": submission.text, "name": submission.name, "options": {},
            "cache_dir": str(cache)}


def _replay(ctx: Context, schedule: list[Submission], tracer: Tracer):
    """Run every job in-process, untraced and traced in turn, each on its own cache."""
    from repro.service import worker

    untraced_cache, traced_cache = ctx.fresh("replay-untraced"), ctx.fresh("replay-traced")
    untraced, traced = [], []
    for index, submission in enumerate(schedule):
        started = time.perf_counter()
        worker.run_analysis(_payload(submission, untraced_cache))
        untraced.append(time.perf_counter() - started)
        tracer.install()
        try:
            started = time.perf_counter()
            with tracer.request(f"job-{index}", "service.job"):
                worker.run_analysis(_payload(submission, traced_cache))
            traced.append(time.perf_counter() - started)
        finally:
            tracer.uninstall()
    return untraced, traced


def _fork_seconds(ctx: Context, schedule: list[Submission]) -> list[float]:
    """Supervised attempt minus in-process time, once per base grammar."""
    cache = ctx.fresh("fork")
    firsts: dict[str, Submission] = {}
    for submission in schedule:
        firsts.setdefault(submission.base, submission)
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("forkprobe.py"))],
        input=json.dumps([_payload(s, cache) for s in firsts.values()]),
        env=dict(os.environ, PYTHONPATH=str(ctx.root / "src")),
        cwd=ctx.work, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(probe.stdout)


def _journal_append(ctx: Context, lines: list[str]) -> tuple[float, float]:
    """Median seconds per ``JobJournal.append`` of the run's own records."""
    from repro.service.journal import JobJournal
    from repro.service.protocol import JobRecord

    records = [JobRecord.from_json(json.loads(line)) for line in lines if line.strip()]
    journal = JobJournal(ctx.fresh("journal") / "journal.jsonl")
    seconds = []
    for record in records:
        started = time.perf_counter()
        journal.append(record)
        seconds.append(time.perf_counter() - started)
    jobs = len({record.id for record in records})
    size = journal.path.stat().st_size
    return statistics.median(seconds), size / max(jobs, 1)


def run_traced(ctx: Context, workload: ServiceWorkload) -> dict:
    ctx.use_source_tree()
    preload()
    inputs = make_inputs(workload, ctx.seed, ctx.seconds)
    schedule = inputs.schedule
    _, server, warmups = _setup(ctx, workload, inputs.warmup, "server-traced")
    try:
        loop = open_loop(server, schedule, poll_health=True)
    finally:
        server.stop()
    outcomes = loop.outcomes
    errors = check(warmups + outcomes)

    fork = _fork_seconds(ctx, schedule)
    tracer = Tracer()
    untraced, traced = _replay(ctx, schedule, tracer)

    metrics = layer_metrics(tracer)
    metrics.update(robust_metrics(o.job["result"]["summary"] for o in outcomes if _completed(o)))
    metrics["cli.import_s"] = import_seconds(ctx)
    metrics["service.accept_s"] = statistics.median(o.accept_s for o in outcomes)
    metrics["service.overhead_s"] = statistics.median(
        o.round_trip - _phase_total(o.job["result"]) for o in outcomes if _completed(o)
    )
    metrics["service.worker_s"] = statistics.median(tracer.durations("service.worker"))
    metrics["service.fork_s"] = statistics.median(fork)
    append_s, bytes_per_job = _journal_append(ctx, loop.journal_lines)
    metrics["service.journal_append_s"] = append_s
    metrics["service.journal_bytes_per_job"] = bytes_per_job
    metrics["service.queue_depth_max"] = loop.queue_depth_max
    metrics["trace.overhead_s"] = sum(traced) - sum(untraced)
    for layer, seconds in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = seconds
    tracer.write(
        ctx.trace_path(),
        {"workload": workload.name, "seed": ctx.seed,
         "traced_replay_s": sum(traced), "untraced_replay_s": sum(untraced)},
    )
    ctx.note(
        f"in-process replay of {len(schedule)} jobs: traced {sum(traced):.3f}s vs "
        f"untraced {sum(untraced):.3f}s; {len(tracer.spans)} spans written to "
        f"{ctx.trace_path().name}"
    )
    return {"metrics": metrics, "attempted": len(warmups) + len(outcomes),
            "failed": len(errors), "errors": errors}


def _completed(outcome: Outcome) -> bool:
    return outcome.job is not None and outcome.job["state"] == "completed"


def _phase_total(result: dict) -> float:
    """Seconds the worker reports in its outermost phase spans."""
    phases = result.get("phases") or {}
    return sum(
        cell["total_s"]
        for path, cell in phases.items()
        if not any(path.startswith(other + "/") for other in phases if other != path)
    )
