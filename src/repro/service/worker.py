"""The analysis worker: one request in, one JSON result out.

:func:`run_analysis` is the pure core — request payload in, JSON-ready
result out — shared by unit tests (in-process) and the supervisor's
:class:`~repro.robust.executor.Worker`, which sends heartbeats while it
runs. :func:`prepare_attempt` runs in that worker first, before any
heartbeat:

* **fault arming**: the payload carries serialized
  :class:`~repro.robust.faults.FaultSpec` entries plus per-point arrival
  offsets (the supervisor passes the job's attempt count), so a
  ``count``-bounded crash spec fires on exactly the planned attempts,
  whether an attempt runs on a fresh worker or on one kept from an
  earlier job;
* the ``worker`` injection point at entry translates
  :class:`~repro.robust.faults.InjectedCrash` into ``os._exit(3)`` (a
  genuine hard death — no cleanup, no result) and
  :class:`~repro.robust.faults.InjectedHang` into a heartbeat-free
  sleep, the two failure modes the supervisor must detect from outside.

Results always carry ``ok`` and, on failure, ``permanent``: a grammar
syntax error is permanent (retrying cannot parse it), an unexpected
internal error is transient (a retry on a healthy worker may succeed).
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, Mapping

# The analysis imports sit at module level on purpose: the supervisor
# imports this module in the server before it forks, so every worker
# inherits them instead of importing them again on each job.
from repro.core import CounterexampleFinder, safe_format_report, summary_to_json
from repro.grammar import GrammarError, load_grammar, normalize_algorithm
from repro.perf import metrics
from repro.perf.cache import AutomatonCache, build_automaton_cached
from repro.robust.faults import (
    FaultSpec,
    InjectedCrash,
    InjectedHang,
    fire,
    registry,
)

#: Exit code a crash-injected worker dies with (visible to the
#: supervisor as a non-zero ``exitcode`` without a result).
CRASH_EXIT_CODE = 3


def run_analysis(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Analyse one grammar request; never raises.

    The payload mirrors :class:`~repro.service.protocol.AnalyzeRequest`
    plus service context (``cache_dir``). Returns a result dict with
    per-phase metrics — a cache-warm request shows no ``automaton``
    build phase, which is how the service's metrics surface cache hits,
    and no ``explain/search`` for the conflicts the entry explains.
    """
    options = payload.get("options", {})
    sleep_s = float(options.get("chaos_sleep_s", 0.0) or 0.0)
    if sleep_s > 0.0:
        time.sleep(sleep_s)
    try:
        with metrics.collecting() as collector:
            grammar = load_grammar(
                payload["grammar"], name=str(payload.get("name", "grammar"))
            )
            algorithm = normalize_algorithm(
                options.get("table_algorithm") or grammar.table_algorithm
            )
            cache_dir = payload.get("cache_dir")
            cache = AutomatonCache(cache_dir) if cache_dir else None
            automaton = build_automaton_cached(grammar, cache, algorithm)
            # Lint and the ambiguity block read one artifact set, so the
            # walk runs at most once (and not at all on a warm cache).
            context = None
            if options.get("lint") or options.get("ambiguity"):
                from repro.lint import LintContext

                context = LintContext(grammar, automaton=automaton, cache=cache)
            lint_findings: list[dict[str, Any]] | None = None
            if options.get("lint"):
                from repro.lint import run_lint

                lint_findings = [
                    diagnostic.as_dict()
                    for diagnostic in run_lint(grammar, context=context).diagnostics
                ]
            finder = CounterexampleFinder(
                automaton,
                time_limit=float(options.get("time_limit", 2.0)),
                cumulative_limit=float(options.get("cumulative_limit", 30.0)),
                verify=bool(options.get("verify", True)),
                max_configurations=int(options.get("max_configurations", 500_000)),
                cache=cache,
            )
            summary = finder.explain_all()
            ambiguity: list[dict[str, Any]] | None = None
            if options.get("ambiguity") and context and automaton.conflicts:
                ambiguity = [
                    {
                        "state": conflict.state_id,
                        "terminal": conflict.terminal.name,
                        "verdict": verdict.verdict.value,
                        "witness": (
                            [t.name for t in verdict.witness]
                            if verdict.witness is not None
                            else None
                        ),
                    }
                    for conflict, verdict in context.ambiguity_verdicts.items()
                ]
            reports = [safe_format_report(report) for report in summary.reports]
        result: dict[str, Any] = {
            "ok": True,
            "grammar": grammar.name,
            "algorithm": algorithm,
            "conflicts": summary.num_conflicts,
            "summary": summary_to_json(summary),
            "reports": reports,
            "phases": _phases(collector),
        }
        if lint_findings is not None:
            result["lint"] = lint_findings
        if ambiguity is not None:
            result["ambiguity"] = ambiguity
        return result
    except GrammarError as error:
        return {"ok": False, "permanent": True, "error": str(error)}
    except Exception as error:  # noqa: BLE001 — the worker fault boundary
        return {
            "ok": False,
            "permanent": False,
            "error": f"{type(error).__qualname__}: {error}",
            "traceback": traceback.format_exc(),
        }


def _phases(collector: metrics.MetricsCollector) -> dict[str, Any]:
    return {
        path: {"count": count, "total_s": round(total, 6)}
        for path, (count, total) in sorted(collector.spans.items())
    }


# ---------------------------------------------------------------------- #
# Subprocess entry


def prepare_attempt(payload: Mapping[str, Any]) -> None:
    """Arm the attempt's fault plan, then pass the ``worker`` injection point.

    The registry is reset first: a forked worker inherits the parent's
    registry (installed specs *and* arrival counts), a kept worker holds
    its previous attempt's, and the payload's plan — specs plus
    attempt-seeded arrival offsets — must be the only thing armed here.
    """
    registry().reset()
    specs = payload.get("faults") or []
    if specs:
        registry().install(*(FaultSpec.from_json(spec) for spec in specs))
    offsets = payload.get("fault_arrivals") or {}
    if offsets:
        registry().seed_arrivals(
            {str(point): int(offset) for point, offset in offsets.items()}
        )
    try:
        fire("worker", context=str(payload.get("name", "")))
    except InjectedCrash:
        os._exit(CRASH_EXIT_CODE)
    except InjectedHang:
        # A wedged worker: alive, silent. No heartbeat has been sent, so
        # the supervisor's hang detector must reap us.
        time.sleep(3600.0)
        os._exit(CRASH_EXIT_CODE)


__all__ = ["CRASH_EXIT_CODE", "prepare_attempt", "run_analysis"]
