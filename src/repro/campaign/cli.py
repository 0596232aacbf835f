"""``repro-conflicts campaign`` — plan, run, warm, and merge campaigns.

Subcommands::

    campaign plan  [spec flags] [--shard k/M]     list the work units
    campaign run   [spec flags] --out DIR         run (or resume) shards
    campaign warm  [spec flags] --cache-dir DIR   pre-populate the cache
    campaign merge SHARD.json... --out REPORT     merge + gate

``run`` executes either **one** shard of an M-way campaign
(``--shard k/M`` — the CI matrix shape) or **all** shards locally
(``--shards M --jobs W`` — the work-stealing fleet shape). Both
checkpoint every unit to per-shard ledgers in ``--out``, so re-running
the identical command after a crash resumes instead of restarting.

``merge`` folds shard result files into the canonical byte-stable
campaign report and exits non-zero when the gate fails (unit errors,
fatal fuzz failures, flakes, pinned-counter drift, or a cold cache when
``--min-cache-hit-shards`` demands warmth).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaign.report import (
    MergeError,
    check_report,
    merge_shard_documents,
    render_report,
    render_summary_markdown,
)
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.units import (
    CampaignSpec,
    parse_shard,
    plan_units,
    select_shard,
)


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    spec = parser.add_argument_group("campaign spec")
    spec.add_argument(
        "--spec",
        type=Path,
        default=None,
        help="JSON spec file; overrides the individual spec flags",
    )
    spec.add_argument("--fuzz-iterations", type=int, default=0)
    spec.add_argument("--fuzz-seed", type=int, default=0)
    spec.add_argument(
        "--corpus", nargs="*", default=None, metavar="NAME",
        help="corpus grammars to sweep (lint + ambiguity + provenance)",
    )
    spec.add_argument(
        "--bench", nargs="*", default=None, metavar="NAME",
        help="grammars to benchmark ('FAST' expands to the fast suite)",
    )
    spec.add_argument("--time-limit", type=float, default=0.3)
    spec.add_argument("--cumulative-limit", type=float, default=2.0)
    spec.add_argument("--oracle-samples", type=int, default=4)
    spec.add_argument("--max-lr1-states", type=int, default=2_000)
    spec.add_argument("--verify-step-budget", type=int, default=50_000)
    spec.add_argument("--bench-repeats", type=int, default=1)


def _split_names(values) -> list[str]:
    """Flatten name arguments, accepting both spaces and commas."""
    names: list[str] = []
    for value in values or ():
        names.extend(part for part in value.split(",") if part)
    return names


def _validate_grammar_names(spec: CampaignSpec) -> None:
    """Reject unknown corpus/bench grammar names before any unit runs.

    A typo'd name would otherwise surface late as an error *unit* deep
    into a shard; failing the whole invocation up front (exit 2) is the
    CI-friendly behaviour.
    """
    from repro.corpus import registry

    known = {entry.name for entry in registry.all_specs()}
    unknown = [
        name for name in (*spec.corpus, *spec.bench) if name not in known
    ]
    if unknown:
        raise ValueError(
            "unknown grammar name(s): "
            + ", ".join(sorted(set(unknown)))
            + " (see repro-conflicts --list-corpus)"
        )


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    if args.spec is not None:
        spec = CampaignSpec.from_json(json.loads(args.spec.read_text()))
    else:
        bench = _split_names(args.bench)
        if "FAST" in bench:
            from repro.perf.bench import FAST_GRAMMARS

            bench = [g for g in bench if g != "FAST"] + list(FAST_GRAMMARS)
        spec = CampaignSpec(
            fuzz_iterations=args.fuzz_iterations,
            fuzz_seed=args.fuzz_seed,
            corpus=tuple(_split_names(args.corpus)),
            bench=tuple(bench),
            time_limit=args.time_limit,
            cumulative_limit=args.cumulative_limit,
            oracle_samples=args.oracle_samples,
            max_lr1_states=args.max_lr1_states,
            verify_step_budget=args.verify_step_budget,
            bench_repeats=args.bench_repeats,
        )
    _validate_grammar_names(spec)
    return spec


# ---------------------------------------------------------------------- #
# Subcommands


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.shard:
        selection = select_shard(spec, parse_shard(args.shard))
        units = selection.units
        print(f"campaign {spec.digest()} {selection.name}: {len(units)} units")
    else:
        units = plan_units(spec)
        print(f"campaign {spec.digest()}: {len(units)} units")
    for unit in units:
        print(f"  {unit.id}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)

    def progress(shard_name: str, unit_id: str, result) -> None:
        print(
            f"[{shard_name}] {unit_id}: {result.outcome} "
            f"({result.telemetry.get('elapsed_s', 0):.2f}s)",
            flush=True,
        )

    scheduler = CampaignScheduler(
        spec,
        args.out,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        retries=args.retries,
        fsync=args.fsync,
        progress=progress if not args.quiet else None,
    )
    try:
        if args.shard:
            paths = [scheduler.run_shard(parse_shard(args.shard))]
        else:
            paths = scheduler.run_local(args.shards)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    errors = 0
    for path in paths:
        document = json.loads(path.read_text())
        bad = sum(
            1 for unit in document["units"].values() if unit["outcome"] != "ok"
        )
        errors += bad
        print(
            f"wrote {path} ({len(document['units'])} units, {bad} errored, "
            f"{document['telemetry']['resumed']} resumed, "
            f"{document['telemetry']['stolen']} stolen)"
        )
    return 1 if errors else 0


def _cmd_warm(args: argparse.Namespace) -> int:
    from repro.corpus import registry
    from repro.lint import LintContext
    from repro.perf.cache import AutomatonCache, build_automaton_cached

    spec = _spec_from_args(args)
    names = list(dict.fromkeys([*spec.corpus, *spec.bench]))
    if not names:
        names = [grammar_spec.name for grammar_spec in registry.all_specs()]
    cache = AutomatonCache(args.cache_dir)
    for name in names:
        grammar = registry.load(name)
        automaton = build_automaton_cached(grammar, cache)
        # Reading the verdicts stores them in the cache entry.
        LintContext(grammar, automaton=automaton, cache=cache).ambiguity_verdicts
    print(
        f"warmed {args.cache_dir}: {len(names)} grammars, "
        f"{cache.hits} hits / {cache.misses} misses"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    documents = []
    for path in args.shards:
        try:
            documents.append(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as error:
            print(f"error: cannot read shard file {path}: {error}", file=sys.stderr)
            return 2
    expect = {}
    if args.expect_file:
        try:
            expect.update(json.loads(Path(args.expect_file).read_text()))
        except (OSError, ValueError) as error:
            print(f"error: cannot read --expect-file: {error}", file=sys.stderr)
            return 2
    for pin in args.expect or ():
        key, _, value = pin.partition("=")
        if not _:
            print(f"error: malformed --expect {pin!r} (want path=value)",
                  file=sys.stderr)
            return 2
        expect[key] = json.loads(value)
    try:
        report, telemetry = merge_shard_documents(documents)
    except MergeError as error:
        print(f"merge error: {error}", file=sys.stderr)
        return 2

    rendered = render_report(report)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)
    if args.telemetry_out:
        Path(args.telemetry_out).write_text(
            json.dumps(telemetry, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {args.telemetry_out}")
    if args.summary_out:
        summary = render_summary_markdown(report, telemetry)
        with open(args.summary_out, "a", encoding="utf-8") as handle:
            handle.write(summary + "\n")
        print(f"appended summary to {args.summary_out}")

    failures = []
    if args.check:
        failures = check_report(report, expect=expect)
        if args.min_cache_hit_shards:
            warm = sum(
                1
                for shard in telemetry["shards"].values()
                if shard.get("cache_hits", 0) > 0
            )
            if warm < args.min_cache_hit_shards:
                failures.append(
                    f"only {warm} shard(s) hit the automaton cache "
                    f"(require >= {args.min_cache_hit_shards}) — cache "
                    "sharing across shards is broken"
                )
    if failures:
        print("campaign gate failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if args.check:
        print("campaign gate passed")
    return 0


# ---------------------------------------------------------------------- #


def campaign_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-conflicts campaign",
        description="Sharded, resumable verification campaigns "
        "(see docs/CAMPAIGN.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan_p = sub.add_parser("plan", help="list a campaign's work units")
    _add_spec_arguments(plan_p)
    plan_p.add_argument("--shard", default=None, metavar="k/M")
    plan_p.set_defaults(func=_cmd_plan)

    run_p = sub.add_parser("run", help="run or resume campaign shards")
    _add_spec_arguments(run_p)
    run_p.add_argument("--out", type=Path, required=True,
                       help="ledger + shard-result directory")
    shape = run_p.add_mutually_exclusive_group()
    shape.add_argument("--shard", default=None, metavar="k/M",
                       help="run only shard k of M (CI matrix mode)")
    shape.add_argument("--shards", type=int, default=1,
                       help="run all M shards locally with work stealing")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    run_p.add_argument("--cache-dir", default=None,
                       help="shared automaton-cache directory")
    run_p.add_argument("--retries", type=int, default=0,
                       help="re-run a unit this many times after an error")
    run_p.add_argument("--fsync", action="store_true",
                       help="fsync every ledger append")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    warm_p = sub.add_parser("warm", help="pre-populate the automaton cache")
    _add_spec_arguments(warm_p)
    warm_p.add_argument("--cache-dir", required=True)
    warm_p.set_defaults(func=_cmd_warm)

    merge_p = sub.add_parser("merge", help="merge shard files; gate the result")
    merge_p.add_argument("shards", nargs="+", metavar="SHARD.json")
    merge_p.add_argument("--out", type=Path, default=None,
                         help="merged report path (default: stdout)")
    merge_p.add_argument("--telemetry-out", type=Path, default=None)
    merge_p.add_argument("--summary-out", type=Path, default=None,
                         help="append a markdown summary (GITHUB_STEP_SUMMARY)")
    merge_p.add_argument("--check", action="store_true",
                         help="fail on errors, fatal fuzz failures, flakes")
    merge_p.add_argument("--expect", action="append", default=None,
                         metavar="PATH=VALUE",
                         help="pin an aggregate counter, e.g. "
                         "corpus.conflicts=42 (repeatable)")
    merge_p.add_argument("--expect-file", type=Path, default=None,
                         help="JSON file of pinned counters "
                         "({\"fuzz.conflicts\": 12, ...})")
    merge_p.add_argument("--min-cache-hit-shards", type=int, default=0,
                         help="require at least N shards with cache hits")
    merge_p.set_defaults(func=_cmd_merge)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


__all__ = ["campaign_main"]
