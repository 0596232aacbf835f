"""The CLI workloads: sweeps of ``python -m repro --corpus G`` invocations.

The untraced run starts the real entry point as a subprocess for every
invocation, so CLI start-up counts. The traced run calls the same entry
point, ``repro.cli.main``, in this process with the layer wrappers of
:mod:`tracing` installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import Context, import_seconds, percentile
from tracing import SERVICE_METRICS, Tracer, layer_metrics, preload, robust_metrics
from workloads import E1, CliWorkload

#: Set-ups timed before the first pass and after every pass; set-up time
#: is their median. Spreading them over the run keeps a few seconds of
#: host slowdown from moving the median, as it does when all run at once.
SETUP_REPEATS = 5


@dataclass
class Invocation:
    grammar: str
    seconds: float
    returncode: int
    stdout: str
    report: dict | None


@dataclass
class Checker:
    """Output checks against the E1 pins and the paper's counterexamples."""

    workload: CliWorkload
    errors: list[str] = field(default_factory=list)

    def check(self, run: Invocation, label: str) -> bool:
        problems = []
        pin = E1[run.grammar]
        report = run.report
        if run.returncode != 0:
            problems.append(f"exit code {run.returncode}")
        if report is None:
            problems.append("no robust report")
        else:
            tally = (
                report["conflicts"],
                report["unifying"],
                report["nonunifying"],
                report["timeouts"],
            )
            expected = (pin.conflicts, pin.unifying, pin.nonunifying, pin.timeouts)
            if self.workload.pin_split:
                if tally != expected:
                    problems.append(f"u/n/t tally {tally} != E1 {expected}")
            elif tally[0] != pin.conflicts or tally[1] != 0 or sum(tally[1:]) != tally[0]:
                problems.append(f"tally {tally}: want {pin.conflicts} conflicts, u = 0")
            if not report.get("complete"):
                problems.append("robust report incomplete")
            unverified = [
                entry
                for entry in report.get("reports", ())
                if entry.get("rung") == "unifying" and entry.get("verified") is not True
            ]
            if unverified:
                problems.append(f"{len(unverified)} unifying reports not verified")
        for example in self.workload.verbatim.get(run.grammar, ()):
            if example not in run.stdout.splitlines():
                problems.append(f"missing verbatim counterexample {example!r}")
        for problem in problems:
            self.errors.append(f"{label} {run.grammar}: {problem}")
        return not problems


def _env(ctx: Context) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.root / "src")
    env.pop("REPRO_FAULTS", None)
    return env


def _argv(workload: CliWorkload, grammar: str, cache: Path, report: Path) -> list[str]:
    return [
        "--corpus", grammar,
        "--cache-dir", str(cache),
        "--robust-report", str(report),
        *workload.flags,
    ]


def _read_report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _setup(ctx: Context, workload: CliWorkload, env: dict[str, str]) -> float:
    """Prepare a workspace and bring the CLI up until it answers."""
    started = time.perf_counter()
    space = ctx.work / "setup"
    shutil.rmtree(space, ignore_errors=True)
    space.mkdir(parents=True)
    listing = subprocess.run(
        [sys.executable, "-m", "repro", "--list-corpus"],
        env=env, cwd=space, capture_output=True, text=True, timeout=60,
    )
    known = {line.split()[0] for line in listing.stdout.splitlines() if line.strip()}
    missing = [g for g in workload.grammars if g not in known]
    if listing.returncode != 0 or missing:
        raise RuntimeError(f"corpus listing failed or lacks {missing}")
    return time.perf_counter() - started


def _subprocess_pass(
    ctx: Context, workload: CliWorkload, order: list[str], cache: Path, env: dict[str, str]
) -> list[Invocation]:
    runs = []
    for grammar in order:
        report = ctx.work / "report.json"
        report.unlink(missing_ok=True)
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro", *_argv(workload, grammar, cache, report)],
            env=env, cwd=ctx.work, capture_output=True, text=True, timeout=170,
        )
        seconds = time.perf_counter() - started
        runs.append(
            Invocation(grammar, seconds, done.returncode, done.stdout, _read_report(report))
        )
    return runs


def run_untraced(ctx: Context, workload: CliWorkload) -> dict:
    env = _env(ctx)
    setups = [_setup(ctx, workload, env) for _ in range(SETUP_REPEATS)]
    order = list(workload.grammars)
    random.Random(ctx.seed).shuffle(order)
    checker = Checker(workload)
    cold_sums, warm_sums, latencies = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        iteration = time.perf_counter()
        cache = ctx.work / f"cache-{len(cold_sums)}"
        shutil.rmtree(cache, ignore_errors=True)
        for label, sums in (("cold", cold_sums), ("warm", warm_sums)):
            runs = _subprocess_pass(ctx, workload, order, cache, env)
            sums.append(sum(run.seconds for run in runs))
            latencies.extend(run.seconds for run in runs)
            attempted += len(runs)
            failed += sum(not checker.check(run, label) for run in runs)
            setups.extend(_setup(ctx, workload, env) for _ in range(SETUP_REPEATS))
        spent = time.perf_counter() - iteration
        if time.perf_counter() - started + spent > ctx.seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(cold_sums),
        "warm_sweep_s": statistics.median(warm_sums),
        "latency_mean_s": statistics.fmean(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "peak_rss_mb": ctx.peak_child_rss_mb(),
    }
    ctx.note(
        f"{len(cold_sums)} cold+warm iteration(s) of {len(order)} invocations; "
        f"{len(setups)} set-ups; "
        f"latency over {len(latencies)} invocations, p50 {percentile(latencies, 50):.4f}s"
    )
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": checker.errors}


# ---------------------------------------------------------------------- #
# Traced run


def _invoke(
    ctx: Context, workload: CliWorkload, grammar: str, cache: Path, tracer: Tracer | None,
    label: str,
) -> Invocation:
    """One ``repro.cli.main`` call in this process, traced when *tracer* is given."""
    from repro import cli

    report = ctx.work / "report.json"
    report.unlink(missing_ok=True)
    out = io.StringIO()
    request = contextlib.nullcontext()
    if tracer is not None:
        tracer.install()
        request = tracer.request(f"{label}/{grammar}", "cli.invocation")
    try:
        started = time.perf_counter()
        with request, contextlib.redirect_stdout(out):
            code = cli.main(_argv(workload, grammar, cache, report))
        seconds = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Invocation(grammar, seconds, code, out.getvalue(), _read_report(report))


def run_traced(ctx: Context, workload: CliWorkload) -> dict:
    ctx.use_source_tree()
    preload()
    from repro.corpus import all_specs

    all_specs()  # corpus modules load on first use; not part of any pass
    order = list(workload.grammars)
    random.Random(ctx.seed).shuffle(order)
    checker = Checker(workload)

    # Untraced and traced cold invocations alternate, each on its own
    # cache, so a drift in host speed falls on both sides alike.
    tracer = Tracer()
    untraced_cache, cache = ctx.fresh("cache-untraced"), ctx.fresh("cache-traced")
    untraced, cold = [], []
    for grammar in order:
        untraced.append(_invoke(ctx, workload, grammar, untraced_cache, None, "cold"))
        cold.append(_invoke(ctx, workload, grammar, cache, tracer, "cold"))
    warm = [_invoke(ctx, workload, grammar, cache, tracer, "warm") for grammar in order]
    runs = [("cold", run) for run in untraced + cold] + [("warm", run) for run in warm]
    failed = sum(not checker.check(run, label) for label, run in runs)

    metrics = layer_metrics(tracer)
    metrics.update(robust_metrics(run.report for run in cold + warm if run.report))
    metrics["cli.import_s"] = import_seconds(ctx)
    # The service layer does not run on a CLI workload.
    metrics.update(dict.fromkeys(SERVICE_METRICS, 0.0))
    traced_s = sum(run.seconds for run in cold)
    untraced_s = sum(run.seconds for run in untraced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    for layer, seconds in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = seconds
    tracer.write(
        ctx.trace_path(),
        {"workload": workload.name, "seed": ctx.seed,
         "traced_cold_s": traced_s, "untraced_cold_s": untraced_s},
    )
    ctx.note(
        f"traced cold pass {traced_s:.3f}s vs untraced {untraced_s:.3f}s in-process; "
        f"{len(tracer.spans)} spans written to {ctx.trace_path().name}"
    )
    return {"metrics": metrics, "attempted": len(runs), "failed": failed,
            "errors": checker.errors}
