"""Deterministic benchmark runner and regression gate (``python -m repro.perf.bench``).

Three subcommands:

``run``
    Execute the benchmark suite — per corpus grammar, automaton
    construction plus a full finder pass, repeated ``--repeats`` times —
    and write a schema-versioned JSON report of per-grammar, per-phase
    **medians** (medians, not means: one GC pause or scheduler hiccup
    must not move the committed baseline). Phase timings come straight
    from the metrics layer's span tree, so the benchmark measures
    exactly what ``--profile`` reports.

``compare``
    Diff a current report against a committed baseline. A phase fails
    the gate only when it regressed by more than ``--threshold`` (a
    *ratio*, default 2.0 — CI runners are noisy; small drifts are not
    regressions) **and** by more than ``--min-delta`` seconds (ratios of
    microsecond phases are meaningless). Timings are normalised by each
    report's calibration constant first, so a baseline recorded on a
    fast machine does not fail every run on a slow one.

``cache-check``
    The automaton-cache acceptance gate: measures an in-process cold
    build vs a cached load of a large grammar and fails unless the
    speedup is at least ``--min-speedup`` (default 2.0).

The default grammar set is the *fast* corpus subset — every conflict
resolves well under a second, so results are stable and a CI run takes
seconds, not minutes. ``--all`` runs the whole corpus in one process;
heavy grammars get the reduced Table-1 budgets either way. Sharded
full-corpus runs go through the campaign's ``bench:<name>`` units
(:mod:`repro.campaign`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any

SCHEMA = "repro.perf.bench/1"

#: Corpus grammars whose finder pass is comfortably sub-second per
#: conflict: stable timings, suitable for the per-PR CI gate.
FAST_GRAMMARS = [
    "figure1",
    "figure3",
    "figure7",
    "abcd",
    "simp2",
    "xi",
    "eqn",
    "SQL.1",
    "SQL.2",
    "C.2",
    "Java.3",
    "stackexc01",
    "stackovf01",
    "nonlalr01",
    "nonlalr02",
    "nonlalr03-genuine",
]

#: Span paths promoted into the report (missing ones are skipped).
PHASES = [
    "automaton",
    "automaton/lr0",
    "automaton/lookaheads",
    "analysis",
    "analysis/sr",
    "analysis/walk",
    "conflicts",
    "explain",
    "explain/lasg",
    "explain/search",
    "explain/verify",
    "explain/nonunifying",
]

#: Counters promoted into the report.
COUNTERS = [
    "automaton.states",
    "automaton.items",
    "automaton.conflicts",
    "search.configurations.explored",
    "lasg.vertices.materialized",
    "lasg.vertices.estimated_full",
]


def calibrate(rounds: int = 60_000) -> float:
    """Seconds for a fixed CPU-bound workload on this machine.

    Used to normalise timings across machines in ``compare``: what
    matters is how a phase moved *relative to the host's speed*, not the
    absolute number a faster or slower runner produces.
    """
    digest = b"repro.perf.bench calibration"
    start = time.perf_counter()
    for _ in range(rounds):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - start


def _bench_grammar(
    name: str, repeats: int, time_limit: float, cumulative_limit: float
) -> dict[str, Any]:
    from repro.core.finder import CounterexampleFinder
    from repro.corpus import registry
    from repro.perf import metrics

    grammar = registry.load(name)
    phase_samples: dict[str, list[float]] = {}
    totals: list[float] = []
    counters: dict[str, int] = {}
    conflicts = 0
    for _ in range(repeats):
        with metrics.collecting() as collector:
            started = time.perf_counter()
            from repro.automaton.lalr import build_lalr

            automaton = build_lalr(grammar)
            finder = CounterexampleFinder(
                automaton,
                time_limit=time_limit,
                cumulative_limit=cumulative_limit,
            )
            summary = finder.explain_all()
            totals.append(time.perf_counter() - started)
        conflicts = summary.num_conflicts
        for phase in PHASES:
            total = collector.span_total(phase)
            if collector.span_count(phase):
                phase_samples.setdefault(phase, []).append(total)
        # Counters are deterministic; the last repeat's values stand.
        counters = {
            key: collector.counters[key]
            for key in COUNTERS
            if key in collector.counters
        }
    # Cache-entry footprint: what an AutomatonCache entry for this
    # grammar costs on disk. Deterministic, so it rides on the last repeat.
    from repro.automaton.serialize import dump_automaton

    cache_entry_bytes = len(dump_automaton(automaton).encode("utf-8"))
    # Static ambiguity verdicts: deterministic (node-budget-only walks),
    # timed in their own collection so finder totals stay comparable
    # against pre-analysis baselines.
    from repro.analysis import analyze_conflicts

    with metrics.collecting() as analysis_collector:
        verdicts = analyze_conflicts(automaton)
    ambiguity_verdicts = {"unambiguous": 0, "ambiguous": 0, "inconclusive": 0}
    for verdict in verdicts.values():
        ambiguity_verdicts[verdict.verdict.value] += 1
    for phase in ("analysis/sr", "analysis/walk"):
        if analysis_collector.span_count(phase):
            phase_samples.setdefault(phase, []).append(
                analysis_collector.span_total(phase)
            )
    return {
        "conflicts": conflicts,
        "ambiguity_verdicts": ambiguity_verdicts,
        "cache_entry_bytes": cache_entry_bytes,
        "total_s": round(statistics.median(totals), 6),
        "phases": {
            phase: round(statistics.median(samples), 6)
            for phase, samples in sorted(phase_samples.items())
        },
        "counters": counters,
    }


def run_suite(
    grammars: list[str],
    repeats: int = 3,
    time_limit: float = 1.0,
    cumulative_limit: float = 30.0,
) -> dict[str, Any]:
    """Run the suite and return the (JSON-ready) report dictionary."""
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "repeats": repeats,
        "time_limit": time_limit,
        "cumulative_limit": cumulative_limit,
        "calibration_s": round(calibrate(), 6),
        "grammars": {},
    }
    for name in grammars:
        report["grammars"][name] = _bench_grammar(
            name, repeats, time_limit, cumulative_limit
        )
    return report


# ---------------------------------------------------------------------- #
# compare


def compare_reports(
    baseline: dict[str, Any],
    current: dict[str, Any],
    threshold: float = 2.0,
    min_delta: float = 0.05,
) -> tuple[list[str], list[str]]:
    """Regressions and informational lines between two reports.

    Returns ``(failures, lines)``: *failures* is non-empty when some
    phase regressed beyond both the ratio threshold and the absolute
    floor; *lines* is a human-readable table of every comparison.
    """
    for report in (baseline, current):
        if report.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported bench schema {report.get('schema')!r} "
                f"(expected {SCHEMA!r})"
            )
    # Normalise to the baseline machine's speed.
    scale = baseline.get("calibration_s", 1.0) / max(
        current.get("calibration_s", 1.0), 1e-9
    )
    failures: list[str] = []
    lines: list[str] = [
        f"calibration: baseline={baseline.get('calibration_s')}s "
        f"current={current.get('calibration_s')}s scale={scale:.2f}",
        f"{'grammar':14s} {'phase':22s} {'base':>9s} {'curr':>9s} {'norm':>9s} ratio",
    ]
    for name, base_entry in sorted(baseline.get("grammars", {}).items()):
        curr_entry = current.get("grammars", {}).get(name)
        if curr_entry is None:
            lines.append(f"{name:14s} (missing from current report)")
            continue
        pairs = [("total", base_entry["total_s"], curr_entry["total_s"])]
        pairs += [
            (phase, base_value, curr_entry["phases"].get(phase))
            for phase, base_value in base_entry.get("phases", {}).items()
        ]
        for phase, base_value, curr_value in pairs:
            if curr_value is None:
                continue
            normalised = curr_value * scale
            ratio = normalised / base_value if base_value > 0 else float("inf")
            flag = ""
            if ratio > threshold and normalised - base_value > min_delta:
                flag = "  << REGRESSION"
                failures.append(
                    f"{name}/{phase}: {base_value:.4f}s -> {normalised:.4f}s "
                    f"(x{ratio:.2f}, threshold x{threshold})"
                )
            lines.append(
                f"{name:14s} {phase:22s} {base_value:9.4f} {curr_value:9.4f} "
                f"{normalised:9.4f} x{ratio:.2f}{flag}"
            )
    return failures, lines


# ---------------------------------------------------------------------- #
# improved


def assert_improved(
    baseline: dict[str, Any],
    current: dict[str, Any],
    targets: list[tuple[str, str]],
    min_ratio: float = 1.5,
) -> tuple[list[str], list[str]]:
    """Check that each ``(grammar, phase)`` target got *faster* by ≥ ratio.

    The inverse gate of :func:`compare_reports`: where ``compare`` fails
    on regressions anywhere, ``improved`` fails unless specific phases
    beat the baseline by at least ``min_ratio`` (calibration-normalised).
    Used to lock an optimisation's win into CI so it cannot silently
    erode back.
    """
    for report in (baseline, current):
        if report.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported bench schema {report.get('schema')!r} "
                f"(expected {SCHEMA!r})"
            )
    scale = baseline.get("calibration_s", 1.0) / max(
        current.get("calibration_s", 1.0), 1e-9
    )
    failures: list[str] = []
    lines: list[str] = [
        f"calibration: baseline={baseline.get('calibration_s')}s "
        f"current={current.get('calibration_s')}s scale={scale:.2f}",
    ]
    for grammar, phase in targets:
        base_entry = baseline.get("grammars", {}).get(grammar)
        curr_entry = current.get("grammars", {}).get(grammar)
        if base_entry is None or curr_entry is None:
            failures.append(f"{grammar}: missing from a report")
            continue
        base_value = (
            base_entry["total_s"]
            if phase == "total"
            else base_entry.get("phases", {}).get(phase)
        )
        curr_value = (
            curr_entry["total_s"]
            if phase == "total"
            else curr_entry.get("phases", {}).get(phase)
        )
        if base_value is None or curr_value is None:
            failures.append(f"{grammar}/{phase}: missing from a report")
            continue
        normalised = curr_value * scale
        ratio = base_value / max(normalised, 1e-9)
        ok = ratio >= min_ratio
        lines.append(
            f"{grammar:14s} {phase:22s} {base_value:.4f}s -> {normalised:.4f}s "
            f"speedup x{ratio:.2f} (required x{min_ratio}) "
            f"{'OK' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"{grammar}/{phase}: only x{ratio:.2f} faster than baseline "
                f"(required x{min_ratio})"
            )
    return failures, lines


# ---------------------------------------------------------------------- #
# cache-check


def cache_check(grammar_name: str = "Java.1", min_speedup: float = 2.0) -> int:
    """Cold-build vs cached-load gate; returns a process exit code."""
    import tempfile

    from repro.automaton.lalr import build_lalr
    from repro.corpus import registry
    from repro.perf.cache import AutomatonCache, build_automaton_cached

    grammar = registry.load(grammar_name)
    with tempfile.TemporaryDirectory() as tmp:
        cache = AutomatonCache(tmp)
        build_automaton_cached(grammar, cache, "lalr")  # populate

        start = time.perf_counter()
        automaton = build_lalr(grammar)
        _ = automaton.conflicts
        build_s = time.perf_counter() - start

        start = time.perf_counter()
        cached = build_automaton_cached(grammar, cache, "lalr")
        load_s = time.perf_counter() - start

        assert cache.hits >= 1 and len(cached.states) == len(automaton.states)
    speedup = build_s / max(load_s, 1e-9)
    status = "OK" if speedup >= min_speedup else "FAIL"
    print(
        f"cache-check [{grammar_name}]: build={build_s:.3f}s "
        f"cached={load_s:.3f}s speedup=x{speedup:.1f} "
        f"(required x{min_speedup}) {status}"
    )
    return 0 if speedup >= min_speedup else 1


# ---------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Deterministic benchmark runner and regression gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the suite and write a JSON report")
    run_p.add_argument("--out", type=Path, required=True, help="output JSON path")
    run_p.add_argument("--repeats", type=int, default=3)
    run_p.add_argument("--time-limit", type=float, default=1.0)
    run_p.add_argument("--cumulative-limit", type=float, default=30.0)
    run_p.add_argument(
        "--grammars", nargs="*", default=None, help="override the grammar set"
    )
    run_p.add_argument(
        "--all", action="store_true", help="benchmark the whole corpus"
    )

    cmp_p = sub.add_parser("compare", help="gate a report against a baseline")
    cmp_p.add_argument("baseline", type=Path)
    cmp_p.add_argument("current", type=Path)
    cmp_p.add_argument("--threshold", type=float, default=2.0)
    cmp_p.add_argument("--min-delta", type=float, default=0.05)

    imp_p = sub.add_parser(
        "improved", help="assert specific phases beat a baseline by ≥ ratio"
    )
    imp_p.add_argument("baseline", type=Path)
    imp_p.add_argument("current", type=Path)
    imp_p.add_argument("--min-ratio", type=float, default=1.5)
    imp_p.add_argument(
        "--target",
        action="append",
        default=None,
        metavar="GRAMMAR:PHASE",
        help="grammar:phase pair that must have improved (repeatable); "
        "default: C.2:explain/lasg Java.3:explain/lasg",
    )

    chk_p = sub.add_parser("cache-check", help="automaton-cache speedup gate")
    chk_p.add_argument("--grammar", default="Java.1")
    chk_p.add_argument("--min-speedup", type=float, default=2.0)

    args = parser.parse_args(argv)

    if args.command == "run":
        if args.all:
            from repro.corpus import registry

            grammars = [spec.name for spec in registry.all_specs()]
        else:
            grammars = args.grammars or FAST_GRAMMARS
        report = run_suite(
            grammars,
            repeats=args.repeats,
            time_limit=args.time_limit,
            cumulative_limit=args.cumulative_limit,
        )
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out} ({len(report['grammars'])} grammars)")
        return 0

    if args.command == "compare":
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
        failures, lines = compare_reports(
            baseline, current, threshold=args.threshold, min_delta=args.min_delta
        )
        print("\n".join(lines))
        if failures:
            print("\nbenchmark regressions detected:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("\nno regressions beyond threshold")
        return 0

    if args.command == "improved":
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
        raw_targets = args.target or ["C.2:explain/lasg", "Java.3:explain/lasg"]
        targets = [
            (entry.split(":", 1)[0], entry.split(":", 1)[1]) for entry in raw_targets
        ]
        failures, lines = assert_improved(
            baseline, current, targets, min_ratio=args.min_ratio
        )
        print("\n".join(lines))
        if failures:
            print("\nrequired improvements not met:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("\nall required improvements hold")
        return 0

    return cache_check(grammar_name=args.grammar, min_speedup=args.min_speedup)


if __name__ == "__main__":
    raise SystemExit(main())
