"""Opt-in parallel per-conflict explanation (process pool).

Conflicts are embarrassingly parallel: each explanation touches the
automaton read-only and produces an independent
:class:`~repro.core.finder.FinderReport`. This module fans the conflict
list of one grammar out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and merges the results **in conflict order**, so the output is
deterministic and — because formatted reports carry no timing — byte-
identical to a serial run's.

Design notes:

* Workers receive the automaton as the serialized full-automaton payload
  (:func:`repro.automaton.serialize.dump_automaton`) through the pool
  initializer, decoded once per worker — not per task, and never through
  pickling the live object graph.
* Tasks are conflict *indices* (tiny); only the finished report crosses
  the process boundary coming back. :class:`~repro.grammar.Symbol` and
  :class:`~repro.core.derivation.Derivation` define ``__reduce__`` so
  interning, cached hashes, and the ``DOT`` sentinel survive the trip.
* The per-grammar *cumulative* search budget applies **per worker**: a
  run with ``jobs=N`` may spend up to ``N x cumulative_limit`` of search
  time in the worst case. This errs on the side of finding more unifying
  counterexamples; serial-equivalent accounting would need a shared
  clock across processes for no user-visible benefit.
* With an automaton cache, the parent's finder serves the conflicts whose
  explanations the cache entry stores before the pool starts; only the
  misses go to the workers, and no pool starts when nothing missed.
* The parent builds one :class:`~repro.core.finder.CounterexampleFinder`
  and hands it the merged, conflict-ordered reports:
  :meth:`~repro.core.finder.CounterexampleFinder.finish` runs the
  budget-escalating retry round (``retry_timed_out``) and aggregates,
  exactly as at the end of a serial run.
* A :class:`~repro.robust.budget.CancellationToken` is honoured by the
  parent: it polls the token while waiting, and once it fires it cancels
  the pending tasks and terminates the workers. As in a serial run, the
  reports collected so far are kept and every later conflict gets the
  Cancelled stub, so the summary stays complete. Workers ignore SIGINT
  and take SIGTERM's default action, so a process-group ``^C`` reaches
  only the parent, which then stops them.
* When profiling is active in the parent, each task also ships back its
  worker-side metrics delta, which the parent merges — span totals and
  counters therefore aggregate CPU time across workers (wall-clock
  speedup shows up as ``explain`` span total exceeding elapsed time).
"""

from __future__ import annotations

import os
import signal
from typing import TYPE_CHECKING, Any

from repro.automaton.lalr import LALRAutomaton, build_lalr
from repro.core.finder import CounterexampleFinder, FinderReport, FinderSummary
from repro.grammar import Grammar
from repro.perf import metrics
from repro.robust.budget import CancellationToken
from repro.robust.degrade import Stage
from repro.robust.errors import Cancelled

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.perf.cache import AutomatonCache

#: Seconds between cancellation-token polls while waiting on workers.
POLL_SECONDS = 0.05

# Per-process worker state, populated by the pool initializer.
_WORKER_FINDER: CounterexampleFinder | None = None
_WORKER_COLLECT: bool = False


def _init_worker(
    payload: str, finder_kwargs: dict[str, Any], collect: bool
) -> None:
    """Pool initializer: decode the automaton, build this worker's finder."""
    global _WORKER_FINDER, _WORKER_COLLECT
    from repro.automaton.serialize import load_automaton

    # A forked worker inherits the parent's signal handlers; cancellation
    # is the parent's job, which terminates workers with SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    automaton = load_automaton(payload)
    _WORKER_FINDER = CounterexampleFinder(automaton, **finder_kwargs)
    _WORKER_COLLECT = collect


def _explain_index(index: int) -> tuple[FinderReport, dict[str, Any] | None]:
    """Explain conflict *index*; returns the report and a metrics delta."""
    assert _WORKER_FINDER is not None, "worker initializer did not run"
    conflict = _WORKER_FINDER.conflicts[index]
    if _WORKER_COLLECT:
        with metrics.collecting() as collector:
            report = _WORKER_FINDER.explain(conflict)
        return report, collector.to_json()
    return _WORKER_FINDER.explain(conflict), None


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

    # Imported here: the serial path (and CLI start-up) skips the cost.
    from concurrent.futures import ProcessPoolExecutor

    from repro.automaton.serialize import dump_automaton

    with metrics.span("parallel/encode"):
        payload = dump_automaton(automaton)
    collector = metrics.active()

    with metrics.span("parallel/pool"):
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            initializer=_init_worker,
            initargs=(payload, finder_kwargs, collector is not None),
        ) as pool:
            futures = [pool.submit(_explain_index, index) for index in pending]
            # Collected in submission order: reports come back in conflict
            # order no matter which worker finishes first.
            for index, future in zip(pending, futures):
                outcome = _result_unless_cancelled(future, token)
                if outcome is None:
                    _stop(pool)
                    break
                reports[index], delta = outcome
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


def _result_unless_cancelled(
    future: Future, token: CancellationToken | None
) -> tuple[FinderReport, dict[str, Any] | None] | None:
    """The task's result, or ``None`` once *token* has fired."""
    import concurrent.futures as futures

    while token is None or not token.cancelled:
        try:
            return future.result(timeout=POLL_SECONDS)
        except futures.TimeoutError:
            continue
        except futures.BrokenExecutor:
            if token is None or not token.cancelled:
                raise
            # A worker killed by the same process-group signal.
    return None


def _stop(pool: ProcessPoolExecutor) -> None:
    """Drop queued tasks and terminate the workers running the others."""
    # ProcessPoolExecutor has no public way to stop running tasks before
    # Python 3.14; its worker processes are in ``_processes``. Joining the
    # executor afterwards lets its manager thread wind down before exit.
    for process in list((pool._processes or {}).values()):
        process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)
