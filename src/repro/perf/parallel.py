"""Opt-in parallel per-conflict explanation (forked workers).

Conflicts are embarrassingly parallel: each explanation reads the
automaton and produces an independent
:class:`~repro.core.finder.FinderReport`. :func:`explain_all_parallel`
serves the cache hits in the parent, fans the misses' indices out to
workers (:func:`~repro.robust.executor.run_pool`) forked after the
automaton and a worker-side finder exist, so they inherit both, stores each
report at its conflict's index, and hands the list to the parent
finder's :meth:`~repro.core.finder.CounterexampleFinder.finish`, exactly
as a serial run ends. Formatted reports carry no timing, so the output
is byte-identical to a serial run's.

* Each worker's copy of the worker-side finder starts with nothing of
  the cumulative budget spent, so ``jobs=N`` may spend up to ``N x
  cumulative_limit`` of search time.
* Once the cancellation token fires, the pool kills the workers; the
  reports collected so far are kept and every other conflict gets the
  Cancelled stub, so the summary stays complete.
* When profiling is active in the parent, each task ships back its
  worker-side metrics delta, which the parent merges (span totals then
  aggregate CPU time across workers).

See ``docs/PERFORMANCE.md`` ("Parallel explanation").
"""

from __future__ import annotations

import os
from contextlib import closing
from typing import TYPE_CHECKING, Any

from repro.automaton.lalr import LALRAutomaton, build_lalr
from repro.core.finder import CounterexampleFinder, FinderReport, FinderSummary
from repro.grammar import Grammar
from repro.perf import metrics
from repro.robust.budget import CancellationToken
from repro.robust.degrade import Stage
from repro.robust.errors import Cancelled

if TYPE_CHECKING:
    from repro.perf.cache import AutomatonCache


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means the CPU count."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0")
    return jobs


def explain_all_parallel(
    source: Grammar | LALRAutomaton,
    jobs: int | None = None,
    token: CancellationToken | None = None,
    cache: AutomatonCache | None = None,
    **finder_kwargs: Any,
) -> FinderSummary:
    """Parallel drop-in for :meth:`CounterexampleFinder.explain_all`.

    Args:
        source: A grammar or a prebuilt automaton.
        jobs: Worker process count; ``None``/``0`` uses the CPU count,
            ``1`` falls back to the serial finder in-process (no pool).
        token: Cooperative cancellation, polled by the parent; see the
            module notes.
        cache: The automaton cache whose stored explanations the
            parent serves (see the module notes).
        **finder_kwargs: Forwarded to :class:`CounterexampleFinder` in
            the parent and every worker (``time_limit``, ``verify``,
            ``retry_timed_out``, ...).

    Returns:
        A :class:`FinderSummary` whose ``reports`` are in conflict order,
        finished by the same :meth:`CounterexampleFinder.finish` as the
        serial path.
    """
    jobs = resolve_jobs(jobs)
    automaton = source if isinstance(source, LALRAutomaton) else build_lalr(source)
    finder = CounterexampleFinder(automaton, token=token, cache=cache, **finder_kwargs)
    conflicts = automaton.conflicts
    if jobs == 1 or len(conflicts) <= 1:
        return finder.explain_all()
    reports: list[FinderReport | None] = [
        finder.serve(index) for index in range(len(conflicts))
    ]
    pending = [index for index, report in enumerate(reports) if report is None]
    if not pending:
        return finder.finish(reports)

    # Imported here: the serial path (and CLI start-up) skips multiprocessing.
    from repro.robust.executor import run_pool

    # Each forked worker gets its own copy, with no budget spent yet.
    worker_finder = CounterexampleFinder(automaton, **finder_kwargs)
    collector = metrics.active()

    def explain(index: int) -> tuple[FinderReport, dict[str, Any] | None]:
        if collector is None:
            return worker_finder.explain(conflicts[index]), None
        with metrics.collecting() as delta:
            report = worker_finder.explain(conflicts[index])
        return report, delta.to_json()

    queue = iter(pending)
    pool = run_pool(explain, min(jobs, len(pending)), lambda _: next(queue, None), token)
    with metrics.span("parallel/pool"), closing(pool):
        for _, index, outcome in pool:
            if not outcome.ok:
                raise RuntimeError(
                    f"explanation worker died ({outcome.failure}: {outcome.detail})"
                )
            reports[index], delta = outcome.result
            if collector is not None and delta is not None:
                collector.merge(metrics.MetricsCollector.from_json(delta))
    metrics.count(
        "parallel.tasks", sum(reports[index] is not None for index in pending)
    )

    if None in reports:
        assert token is not None
        error = Cancelled(token.reason or "cancelled", stage=Stage.LASG.value)
        reports = [
            report if report is not None else finder.cancelled_report(conflict, error)
            for report, conflict in zip(reports, conflicts)
        ]
    return finder.finish(reports)
