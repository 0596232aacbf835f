"""Command-line interface: explain a grammar's conflicts, CUP-style.

Usage::

    repro-conflicts GRAMMAR.y [options]
    repro-conflicts serve [options]
    repro-conflicts campaign {plan,run,warm,merge} [options]
    python -m repro GRAMMAR.y [options]
    python -m repro --corpus figure1

Prints one report per conflict, in the format of the paper's Figure 11.
``serve`` boots the supervised analysis service (see docs/SERVICE.md);
``campaign`` drives sharded, resumable verification campaigns (see
docs/CAMPAIGN.md).

A campaign interrupted by SIGINT/SIGTERM cancels *structurally*: the
in-flight conflict finishes degrading to a stub (with ``--jobs N`` the
workers are stopped instead), the remaining conflicts are stubbed with a
recorded cancellation, any ``--robust-report`` is still flushed (partial
but well-formed), and the exit code is 130.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time

from repro.core import safe_format_report, summary_to_json
from repro.grammar import GrammarError, load_grammar_file, normalize_algorithm

#: Human-readable construction names for the no-conflict summary line.
_ALGORITHM_LABELS = {
    "lalr": "LALR(1)",
    "ielr": "LR(1) (minimal construction)",
    "lr1": "LR(1) (canonical construction)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-conflicts",
        description=(
            "Explain every LALR parsing conflict in a grammar with a "
            "unifying or nonunifying counterexample "
            "(Isradisaikul & Myers, PLDI 2015)."
        ),
    )
    parser.add_argument("grammar", nargs="?", help="grammar file (yacc-like syntax)")
    parser.add_argument(
        "--corpus",
        metavar="NAME",
        help="analyse a built-in corpus grammar (e.g. figure1, SQL.2) instead",
    )
    parser.add_argument(
        "--list-corpus", action="store_true", help="list corpus grammar names"
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-conflict unifying-search budget (default: 5, as in the paper)",
    )
    parser.add_argument(
        "--cumulative-limit",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="total unifying-search budget (default: 120, as in the paper)",
    )
    parser.add_argument(
        "--extendedsearch",
        action="store_true",
        help="do not restrict the search to the shortest lookahead-sensitive path",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the independent Earley validation of unifying counterexamples",
    )
    parser.add_argument(
        "--table-algorithm",
        metavar="ALG",
        help=(
            "table construction: lalr (default), ielr (minimal LR(1): split "
            "only the states whose merging manufactures conflicts), or lr1 "
            "(canonical); overrides the grammar's %%algorithm directive"
        ),
    )
    parser.add_argument(
        "--provenance",
        action="store_true",
        help=(
            "annotate each conflict with its provenance: genuine LR(1) "
            "conflict vs LALR merge artifact (naming the minimal-LR(1) "
            "states the offending state splits into)"
        ),
    )
    parser.add_argument(
        "--ambiguity",
        action="store_true",
        help=(
            "annotate each conflict with a static ambiguity verdict from "
            "a bounded SR-automaton pair walk: proved unambiguous, proved "
            "ambiguous (with a witness sentence), or inconclusive"
        ),
    )
    parser.add_argument(
        "--states",
        action="store_true",
        help="also print the LALR automaton (states, items, lookaheads)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print structural grammar metrics before the conflict reports",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    perf = parser.add_argument_group("performance & profiling")
    perf.add_argument(
        "--profile",
        action="store_true",
        help=(
            "collect phase timings and counters (automaton build, search, "
            "verification, ...) and print the profile after the summary"
        ),
    )
    perf.add_argument(
        "--profile-json",
        metavar="FILE",
        help="write the collected profile as JSON to FILE ('-' for stdout)",
    )
    perf.add_argument(
        "--jobs",
        type=_non_negative_int,
        metavar="N",
        help=(
            "explain conflicts in parallel over N worker processes "
            "(0 = CPU count); reports are merged in conflict order, so "
            "the output is identical to a serial run's"
        ),
    )
    perf.add_argument(
        "--cache-dir",
        nargs="?",
        const="",
        metavar="DIR",
        help=(
            "enable the content-addressed automaton cache; DIR defaults "
            "to $REPRO_CACHE_DIR or ~/.cache/repro/automatons. Repeat "
            "runs on an unchanged grammar skip LALR construction"
        ),
    )
    robust = parser.add_argument_group("resource governance")
    robust.add_argument(
        "--max-configurations",
        type=int,
        default=2_000_000,
        metavar="N",
        help=(
            "hard cap on configurations per unifying search, also bounding "
            "the LASG and backward-walk stages (default: 2000000)"
        ),
    )
    robust.add_argument(
        "--retry-timed-out",
        action="store_true",
        help=(
            "after the main pass, re-search timed-out conflicts with the "
            "leftover cumulative budget split among them"
        ),
    )
    robust.add_argument(
        "--robust-report",
        metavar="FILE",
        help=(
            "write the per-conflict degradation report (ladder rung, stage "
            "failures, stub details) as JSON to FILE ('-' for stdout); in "
            "this mode the exit code is 0 when every conflict was explained "
            "at some ladder rung, 1 only when the report is incomplete"
        ),
    )
    fuzz = parser.add_argument_group("differential fuzzing")
    fuzz.add_argument(
        "--fuzz",
        type=int,
        metavar="N",
        help=(
            "run N differential fuzzing iterations (random grammars through "
            "the oracle, finder, and validator) instead of analysing a grammar"
        ),
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed for --fuzz; iteration i uses seed S+i (default: 0)",
    )
    fuzz.add_argument(
        "--fuzz-report",
        metavar="FILE",
        help="also write the full fuzz report to FILE",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing grammars as generated, without minimisation",
    )
    lint = parser.add_argument_group("static lint")
    lint.add_argument(
        "--lint",
        action="store_true",
        help=(
            "run the static grammar lint passes instead of the conflict "
            "explainer (see docs/LINTING.md for the rule catalog)"
        ),
    )
    lint.add_argument(
        "--lint-format",
        choices=("text", "json", "sarif"),
        default="text",
        metavar="FMT",
        help="lint output format: text, json, or sarif (default: text)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("info", "warning", "error"),
        default="error",
        metavar="SEV",
        help=(
            "exit nonzero when any diagnostic is at or above this severity "
            "(default: error)"
        ),
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this lint rule (repeatable)",
    )
    lint.add_argument(
        "--no-rule",
        action="append",
        metavar="ID",
        help="skip this lint rule (repeatable)",
    )
    return parser


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import run_fuzz_campaign

    if args.fuzz <= 0:
        print("error: --fuzz requires a positive iteration count", file=sys.stderr)
        return 2

    def progress(done: int, total: int, report) -> None:
        if args.quiet:
            return
        stride = max(1, total // 10)
        if done % stride == 0 or done == total:
            print(
                f"  fuzz {done}/{total}: {report.conflicts} conflicts, "
                f"{report.counterexamples_validated} validated, "
                f"{len(report.fatal_failures)} fatal failures",
                flush=True,
            )

    report = run_fuzz_campaign(
        args.fuzz,
        seed=args.seed,
        progress=progress,
        shrink=not args.no_shrink,
    )
    text = report.describe()
    print(text)
    if args.fuzz_report:
        try:
            with open(args.fuzz_report, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as error:
            print(f"error: cannot write fuzz report: {error}", file=sys.stderr)
            return 2
    return 0 if report.ok else 1


def _run_lint(
    args: argparse.Namespace, grammar, source_path: str | None, cache
) -> int:
    from repro.lint import LintConfig, LintContext, Severity, render, run_lint

    config = LintConfig(
        enabled=frozenset(args.rule) if args.rule else None,
        disabled=frozenset(args.no_rule or ()),
    )
    context = LintContext(grammar, source_path=source_path, cache=cache)
    try:
        report = run_lint(
            grammar, config=config, source_path=source_path, context=context
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    print(render(report, args.lint_format))
    threshold = Severity.parse(args.fail_on)
    return 1 if report.should_fail(threshold) else 0


def _emit_profile(args: argparse.Namespace, collector) -> None:
    """Print / write the collected profile, if profiling was requested."""
    if collector is None:
        return
    from repro.perf import metrics

    metrics.disable()
    if args.profile:
        print(collector.render())
        hotspots = collector.hotspots(5)
        if hotspots:
            print("top hotspots (exclusive time):")
            for path, exclusive, total in hotspots:
                print(f"  {path:<28} {exclusive:>9.4f}s  (inclusive {total:.4f}s)")
    if args.profile_json:
        document = json.dumps(collector.to_json(), indent=2, sort_keys=True)
        if args.profile_json == "-":
            print(document)
        else:
            try:
                with open(args.profile_json, "w", encoding="utf-8") as handle:
                    handle.write(document + "\n")
            except OSError as error:
                print(f"error: cannot write profile: {error}", file=sys.stderr)


def _non_negative_int(text: str) -> int:
    """argparse type for counts where 0 has a meaning and < 0 has none."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _install_cancel_handlers(token) -> dict | None:
    """Route SIGINT/SIGTERM into *token*; returns the displaced handlers.

    Signal handlers may only be installed from the main thread; embedded
    callers (tests driving :func:`main` from a worker thread) simply skip
    the installation and keep their own handling.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous: dict = {}

    def handler(signum: int, frame) -> None:
        token.cancel(f"received {signal.Signals(signum).name}")

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover — exotic platforms
            pass
    return previous


def _restore_cancel_handlers(previous: dict | None) -> None:
    for signum, handler in (previous or {}).items():
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover
            pass


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        from repro.service.app import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import campaign_main

        return campaign_main(argv[1:])
    args = build_parser().parse_args(argv)

    collector = None
    if args.profile or args.profile_json:
        from repro.perf import metrics

        collector = metrics.enable()
    try:
        return _run(args)
    finally:
        _emit_profile(args, collector)


def _run(args: argparse.Namespace) -> int:
    if args.fuzz is not None:
        return _run_fuzz(args)

    if args.list_corpus:
        from repro.corpus import all_specs

        for spec in all_specs():
            marker = "ambiguous" if spec.ambiguous else "unambiguous"
            print(f"{spec.name:16} [{spec.category}] {marker}  {spec.notes}")
        return 0

    if args.corpus:
        from repro.corpus import load as load_corpus

        try:
            grammar = load_corpus(args.corpus)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.grammar:
        try:
            grammar = load_grammar_file(args.grammar)
        except (OSError, GrammarError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        print("error: provide a grammar file or --corpus NAME", file=sys.stderr)
        return 2

    cache = None
    if args.cache_dir is not None:
        from repro.perf.cache import AutomatonCache

        cache = AutomatonCache(args.cache_dir or None)

    if args.lint:
        source_path = args.grammar if not args.corpus else None
        return _run_lint(args, grammar, source_path, cache)

    if args.metrics:
        from repro.grammar import GrammarMetrics

        print(f"metrics: {GrammarMetrics.of(grammar).describe()}")

    try:
        algorithm = normalize_algorithm(
            args.table_algorithm
            if args.table_algorithm is not None
            else grammar.table_algorithm
        )
    except GrammarError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.perf.cache import build_automaton_cached

    automaton = build_automaton_cached(grammar, cache, algorithm)
    if args.states:
        print(automaton)

    conflicts = automaton.conflicts
    if not conflicts:
        label = _ALGORITHM_LABELS.get(algorithm, algorithm)
        print(f"grammar {grammar.name!r}: no conflicts — {label}")
        if args.robust_report:
            from repro.core import FinderSummary

            # A conflict-free grammar still gets a (vacuously complete)
            # robust report, so report consumers never miss a file.
            status = _write_robust_report(
                args.robust_report, FinderSummary(grammar_name=grammar.name)
            )
            if status is not None:
                return status
        return 0

    from repro.perf.parallel import explain_all_parallel
    from repro.robust.budget import CancellationToken

    token = CancellationToken()
    handlers = _install_cancel_handlers(token)
    started = time.monotonic()
    try:
        summary = explain_all_parallel(
            automaton,
            jobs=1 if args.jobs is None else args.jobs,
            token=token,
            time_limit=args.time_limit,
            cumulative_limit=args.cumulative_limit,
            extended_search=args.extendedsearch,
            verify=not args.no_verify,
            max_configurations=args.max_configurations,
            retry_timed_out=args.retry_timed_out,
        )
    finally:
        _restore_cancel_handlers(handlers)
    elapsed = time.monotonic() - started

    if args.provenance or args.ambiguity:
        from repro.lint import LintContext

        context = LintContext(grammar, automaton=automaton, cache=cache)
        for report in summary.reports:
            if args.provenance:
                report.provenance = context.provenance.get(report.conflict)
            if args.ambiguity:
                report.ambiguity = context.ambiguity_verdicts.get(report.conflict)

    if not args.quiet:
        for report in summary.reports:
            print(safe_format_report(report))
            print()
    extras = ""
    if summary.num_stub:
        extras += f", {summary.num_stub} stubs"
    if summary.num_degraded:
        extras += f", {summary.num_degraded} degraded"
    if summary.num_retried:
        extras += (
            f", {summary.num_retry_upgraded}/{summary.num_retried} "
            "retries upgraded"
        )
    print(
        f"grammar {grammar.name!r}: {summary.num_conflicts} conflicts — "
        f"{summary.num_unifying} unifying, {summary.num_nonunifying} nonunifying, "
        f"{summary.num_timeout} timed out{extras} ({elapsed:.2f}s)"
    )

    if args.robust_report:
        # The robust contract: degradation is reported in-band, so the
        # exit code tracks report *completeness*, not conflict presence.
        # An interrupted campaign still flushes its (partial) report
        # before reporting the conventional 130.
        status = _write_robust_report(args.robust_report, summary)
        if status is not None:
            return status
        if token.cancelled:
            print(f"interrupted: {token.reason}", file=sys.stderr)
            return 130
        return 0 if summary.complete else 1
    if token.cancelled:
        print(f"interrupted: {token.reason}", file=sys.stderr)
        return 130
    return 1


def _write_robust_report(destination: str, summary) -> int | None:
    """Write the robust report; returns an exit code only on I/O failure."""
    document = json.dumps(summary_to_json(summary), indent=2)
    if destination == "-":
        print(document)
        return None
    try:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    except OSError as error:
        print(f"error: cannot write robust report: {error}", file=sys.stderr)
        return 2
    return None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
