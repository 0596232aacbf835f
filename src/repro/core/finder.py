"""Top-level counterexample finder (paper §6 policy, fault-isolated).

For each conflict the finder walks a guarded pipeline:

1. compute the shortest lookahead-sensitive path to the conflict reduce
   item (needed both for the nonunifying construction and to restrict the
   unifying search's reverse transitions);
2. run the unifying search with a per-conflict time limit (default 5 s);
3. on success, optionally cross-check the counterexample with the
   independent Earley oracle (the sentential form must have >= 2 distinct
   derivations from the unifying nonterminal);
4. on failure or timeout, fall back to a nonunifying counterexample built
   from the path.

A cumulative budget (default 2 minutes) covers all unifying searches for
one grammar; once it is spent, remaining conflicts get nonunifying
counterexamples immediately, as in the paper's implementation.

Every stage runs inside :func:`repro.robust.degrade.run_guarded`, so a
stage failure — budget overrun, injected fault, or genuine bug — never
kills the run. Instead the conflict degrades down the three-rung ladder

    unifying → nonunifying → conflict stub

and the failure is recorded as a
:class:`~repro.robust.degrade.DegradedExplanation` on the report entry.
The *conflict stub* rung always succeeds: it reports the conflict state,
items, lookaheads, and whatever prefix was computed before the failure.
With ``retry_timed_out``, conflicts whose unifying search timed out are
re-searched once afterwards with the leftover cumulative budget split
among them. :meth:`CounterexampleFinder.finish` runs that retry round and
aggregates; the serial pass and the parallel merge both end with it.

With an automaton cache, decided explanations are stored in the
automaton's cache entry; a later run with the same options serves them
without the LASG or the search, re-proving them with Earley, and charges
their stored seconds to the cumulative budget, as the first run did.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.walk import ConflictAmbiguity
from repro.automaton.conflicts import Conflict
from repro.automaton.ielr import ConflictProvenance
from repro.automaton.lalr import LALRAutomaton, build_lalr
from repro.core.counterexample import ConflictStub, Counterexample
from repro.core.lasg import (
    LASGEdge,
    LookaheadSensitiveGraph,
    path_prefix_symbols,
    path_states,
)
from repro.core.nonunifying import NonunifyingBuilder
from repro.core.search import SearchStats, UnifyingSearch
from repro.grammar import Grammar
from repro.parsing.earley import DerivationBudgetExceeded, EarleyParser
from repro.perf import metrics
from repro.robust.budget import Budget, CancellationToken
from repro.robust.degrade import (
    DegradedExplanation,
    Rung,
    Stage,
    degradation_from,
    run_guarded,
)
from repro.robust.errors import Cancelled
from repro.robust.faults import fire, registry

if TYPE_CHECKING:
    from repro.perf.cache import AutomatonCache

#: Version of the stored explanations; bump it when the search or the
#: nonunifying builder can explain a conflict differently.
EXPLANATION_VERSION = 1


@dataclass
class FinderReport:
    """Everything the finder knows about one conflict's explanation."""

    conflict: Conflict
    counterexample: Counterexample | None
    unifying_time: float
    timed_out: bool
    stats: SearchStats | None = None
    verified: bool | None = None
    #: The ladder rung the explanation landed on.
    rung: Rung = Rung.NONUNIFYING
    #: Present exactly when ``rung is Rung.STUB`` (``counterexample`` is
    #: then ``None``).
    stub: ConflictStub | None = None
    #: One entry per stage failure survived while explaining this
    #: conflict (fault injections, budget overruns, internal errors).
    degradations: list[DegradedExplanation] = field(default_factory=list)
    #: Whether a budget-escalating retry upgraded this report.
    retried: bool = False
    #: Provenance verdict (genuine LR(1) conflict vs LALR merge
    #: artifact), attached after the fact from
    #: :attr:`repro.lint.context.LintContext.provenance`; ``None`` unless
    #: provenance analysis ran.
    provenance: ConflictProvenance | None = None
    #: Static ambiguity verdict from the SR pair walk, attached after
    #: the fact from :attr:`repro.lint.context.LintContext.ambiguity_verdicts`;
    #: ``None`` unless ambiguity analysis ran.
    ambiguity: ConflictAmbiguity | None = None

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)


@dataclass
class FinderSummary:
    """Aggregate results for a grammar (the columns of Table 1)."""

    grammar_name: str
    num_conflicts: int = 0
    num_unifying: int = 0
    num_nonunifying: int = 0
    num_timeout: int = 0
    #: Conflicts answered nonunifying *without* running the unifying
    #: search because the cumulative budget was already spent — the
    #: parenthesised count in the paper's Table 1 (e.g. Java.2's "(983)").
    num_skipped_search: int = 0
    #: Conflicts that fell to the stub rung (no counterexample at all).
    num_stub: int = 0
    #: Conflicts with at least one recorded stage degradation.
    num_degraded: int = 0
    #: Timed-out conflicts re-searched by the retry pass, and how many of
    #: those retries found (and verified) a unifying counterexample.
    num_retried: int = 0
    num_retry_upgraded: int = 0
    degraded_by_stage: dict[str, int] = field(default_factory=dict)
    total_time: float = 0.0
    reports: list[FinderReport] = field(default_factory=list)

    @property
    def average_time(self) -> float:
        """Paper's "Average time": total over conflicts answered in time."""
        answered = self.num_unifying + self.num_nonunifying
        return self.total_time / answered if answered else float("nan")

    @property
    def complete(self) -> bool:
        """Every conflict has an entry at *some* ladder rung."""
        return all(
            report.counterexample is not None or report.stub is not None
            for report in self.reports
        )


class CounterexampleFinder:
    """Finds an explanation for every conflict of a grammar — always."""

    def __init__(
        self,
        source: Grammar | LALRAutomaton,
        time_limit: float = 5.0,
        cumulative_limit: float = 120.0,
        extended_search: bool = False,
        verify: bool = True,
        max_configurations: int = 2_000_000,
        verify_step_budget: int | None = 1_000_000,
        retry_timed_out: bool = False,
        token: CancellationToken | None = None,
        cache: AutomatonCache | None = None,
    ) -> None:
        """
        Args:
            source: A grammar or a prebuilt automaton.
            time_limit: Per-conflict unifying-search budget in seconds
                (the paper uses 5 s); also bounds the LASG, nonunifying,
                and verification stages individually.
            cumulative_limit: Total unifying-search budget per grammar
                (the paper uses 2 minutes).
            extended_search: Do not restrict reverse transitions to the
                shortest lookahead-sensitive path (``-extendedsearch``).
            verify: Cross-check unifying counterexamples with the Earley
                oracle; unverifiable candidates are demoted to the
                nonunifying fallback.
            max_configurations: Hard cap per unifying search (also used as
                the node cap for the LASG and backward-walk stages).
            verify_step_budget: Step cap for the Earley verification pass;
                a candidate whose ambiguity cannot be confirmed within the
                budget is demoted like any other unverifiable one. Highly
                ambiguous cyclic grammars otherwise make the exhaustive
                derivation count blow up.
            retry_timed_out: After the main pass, re-search timed-out
                conflicts once with the leftover cumulative budget split
                among them (budget escalation beyond ``time_limit``).
            token: Cooperative cancellation; once cancelled, in-flight
                work stops and remaining conflicts get stub entries, so
                the summary stays complete.
            cache: The automaton cache whose entry stores and serves
                decided explanations (see the module notes); not read
                or written while a fault spec is armed.
        """
        if isinstance(source, LALRAutomaton):
            self.automaton = source
        else:
            self.automaton = build_lalr(source)
        self.grammar = self.automaton.grammar
        self.time_limit = time_limit
        self.cumulative_limit = cumulative_limit
        self.extended_search = extended_search
        self.verify = verify
        self.verify_step_budget = verify_step_budget
        self.max_configurations = max_configurations
        self.retry_timed_out = retry_timed_out
        self.token = token
        # Wall-clock bound for the structural stages (LASG, nonunifying
        # build, verification): bounded, so a hung stage cannot wedge the
        # run, but generous, because those stages normally finish in
        # milliseconds and a (near) zero *search* budget is a legitimate
        # "nonunifying only" mode that must not starve them.
        self._stage_limit = max(4 * time_limit, 10.0)

        # One lookahead-sensitive graph per finder: its skeleton memo is
        # shared across this finder's conflicts (including the nonunifying
        # builder's path computations) and is released with the finder —
        # nothing outlives it.
        self.graph = LookaheadSensitiveGraph(self.automaton)
        self.nonunifying = NonunifyingBuilder(self.automaton, graph=self.graph)
        self._earley = EarleyParser(self.grammar)
        self._unifying_budget_spent = 0.0
        self.cache = cache
        #: The explanation block's key: every option that can change an
        #: outcome. Per conflict, the block's entry (looked up once), and
        #: the conflict indices served from it.
        self._key = {"version": EXPLANATION_VERSION, "options": dict(
            time_limit=time_limit, cumulative_limit=cumulative_limit,
            max_configurations=max_configurations, verify=verify,
            extended_search=extended_search,
        )}
        self._stored: list[Any] | None = None
        self._served: set[int] = set()

    # ------------------------------------------------------------------ #

    @property
    def conflicts(self) -> list[Conflict]:
        return self.automaton.conflicts

    def _stage_budget(self, stage: str) -> Budget:
        """A fresh budget for one structural stage."""
        return Budget(
            time_limit=self._stage_limit,
            max_nodes=self.max_configurations,
            token=self.token,
            stage=stage,
        )

    def explain(self, conflict: Conflict) -> FinderReport:
        """Produce an explanation for one conflict — at some ladder rung.

        Never raises except for :class:`~repro.robust.errors.Cancelled`
        (propagated so :meth:`explain_all` can finish the report with
        stubs) and ``KeyboardInterrupt``/``SystemExit``.
        """
        with metrics.span("explain"):
            return self._explain(conflict)

    def _caching(self) -> bool:
        return self.cache is not None and not registry().active

    def serve(self, index: int) -> FinderReport | None:
        """Conflict *index*'s stored explanation, or ``None`` on a miss.

        With ``verify`` on, a unifying counterexample is re-proved by
        Earley; a failed check or an entry that does not decode is a
        miss. A hit charges its stored search seconds to the cumulative
        budget; once that is spent, nothing is served (nor searched).
        """
        if not self._caching() or self._unifying_budget_spent >= self.cumulative_limit:
            return None
        if self._stored is None:
            assert self.cache is not None
            self._stored = self.cache.get_block(
                self.grammar, self.automaton, "explanations", self._key
            ) or [None] * len(self.conflicts)
        entry = self._stored[index]
        report = None if entry is None else self._replay(self.conflicts[index], entry)
        metrics.count("explain.cache.miss" if report is None else "explain.cache.hit")
        if report is not None:
            self._served.add(index)
            self._unifying_budget_spent += float(entry["elapsed"])
        return report

    def _replay(self, conflict: Conflict, entry: dict[str, Any]) -> FinderReport | None:
        with metrics.span("explain"):
            started = time.monotonic()
            try:
                example = Counterexample.from_json(entry, conflict, self.grammar)
                stats = SearchStats(
                    int(entry["explored"]), int(entry["enqueued"]),
                    float(entry["elapsed"]), exhausted=not example.unifying,
                )
            except (KeyError, IndexError, TypeError, ValueError, RecursionError):
                return None
            verified = True if example.unifying and self.verify else None
            if entry.get("verified") != verified or not 0 <= stats.elapsed < float("inf"):
                return None
            if verified:
                with metrics.span("verify"):
                    try:
                        checked = run_guarded(Stage.VERIFY, self._verify, example)
                    except Cancelled:
                        return None  # the search path stubs the conflict
                if not (checked.ok and checked.value):
                    return None
        return FinderReport(
            conflict=conflict,
            counterexample=example,
            unifying_time=time.monotonic() - started,
            timed_out=False,
            stats=stats,
            verified=verified,
            rung=Rung.UNIFYING if example.unifying else Rung.NONUNIFYING,
        )

    def _store(self, reports: list[FinderReport]) -> None:
        """Write the decided explanations among *reports* to the cache
        entry, when some were not served from it (see :func:`_decided`)."""
        if not self._caching() or self._stored is None:
            return
        entries = [
            self._stored[index] if index in self._served else _decided(report)
            for index, report in enumerate(reports)
        ]
        fresh = sum(entry is not None for entry in entries) - len(self._served)
        if not fresh:
            return
        assert self.cache is not None
        try:
            written = self.cache.put_block(
                self.grammar, self.automaton, "explanations", self._key, entries
            )
        except OSError:
            return  # a read-only cache directory must not fail the run
        if written is not None:
            metrics.count("explain.cache.stored", fresh)

    def _explain(self, conflict: Conflict) -> FinderReport:
        started = time.monotonic()
        degradations: list[DegradedExplanation] = []

        # Rung 0 prerequisite: the shortest lookahead-sensitive path.
        path: list[LASGEdge] | None = None
        with metrics.span("lasg"):
            outcome = run_guarded(
                Stage.LASG,
                self.graph.shortest_path,
                conflict,
                budget=self._stage_budget("lasg"),
            )
        if outcome.ok:
            path = outcome.value
        else:
            assert outcome.degraded is not None
            degradations.append(outcome.degraded)

        # Rung 1: the unifying search (skipped entirely once the
        # cumulative budget is spent, as in the paper).
        stats: SearchStats | None = None
        counterexample: Counterexample | None = None
        verified: bool | None = None
        budget_left = self.cumulative_limit - self._unifying_budget_spent
        if path is not None and budget_left > 0:
            stats, counterexample, verified = self._unifying(
                conflict, path, min(self.time_limit, budget_left), degradations
            )
        timed_out = stats is not None and stats.timed_out

        # Rung 2: the nonunifying fallback.
        if counterexample is None and path is not None:
            with metrics.span("nonunifying"):
                fallback = run_guarded(
                    Stage.NONUNIFYING,
                    self.nonunifying.build,
                    conflict,
                    path=path,
                    budget=self._stage_budget("nonunifying"),
                )
            if fallback.ok:
                counterexample = fallback.value
                if timed_out:
                    counterexample = Counterexample(
                        conflict=counterexample.conflict,
                        unifying=False,
                        nonterminal=counterexample.nonterminal,
                        derivation1=counterexample.derivation1,
                        derivation2=counterexample.derivation2,
                        timed_out=True,
                    )
            else:
                assert fallback.degraded is not None
                degradations.append(fallback.degraded)

        # Rung 3: the conflict stub — always succeeds.
        stub: ConflictStub | None = None
        if counterexample is None:
            stub = self._stub(conflict, path)
            rung = Rung.STUB
        elif counterexample.unifying:
            rung = Rung.UNIFYING
        else:
            rung = Rung.NONUNIFYING

        return FinderReport(
            conflict=conflict,
            counterexample=counterexample,
            unifying_time=time.monotonic() - started,
            timed_out=timed_out,
            stats=stats,
            verified=verified,
            rung=rung,
            stub=stub,
            degradations=degradations,
        )

    def _unifying(
        self,
        conflict: Conflict,
        path: list[LASGEdge],
        time_limit: float,
        degradations: list[DegradedExplanation],
    ) -> tuple[SearchStats | None, Counterexample | None, bool | None]:
        """Rung 1: search under guard, charge the cumulative budget, verify.

        Returns ``(stats, counterexample, verified)``. ``stats`` is
        ``None`` when the search itself failed; ``counterexample`` is the
        unifying candidate only if it passed verification (or
        verification is off). Stage failures are appended to
        *degradations*.
        """
        allowed = None if self.extended_search else path_states(path)
        search = UnifyingSearch(
            self.automaton,
            conflict,
            allowed_prepend_states=allowed,
            budget=Budget(
                time_limit=time_limit,
                max_nodes=self.max_configurations,
                token=self.token,
                stage="search",
            ),
        )
        with metrics.span("search"):
            outcome = run_guarded(Stage.SEARCH, search.run)
        if not outcome.ok:
            degradations.append(outcome.degraded)
            return None, None, None
        result = outcome.value
        self._unifying_budget_spent += result.stats.elapsed
        candidate = result.counterexample
        if candidate is None or not self.verify:
            return result.stats, candidate, None
        with metrics.span("verify"):
            checked = run_guarded(Stage.VERIFY, self._verify, candidate)
        if not checked.ok:
            degradations.append(checked.degraded)
            return result.stats, None, None
        return result.stats, candidate if checked.value else None, checked.value

    def _stub(
        self, conflict: Conflict, path: list[LASGEdge] | None
    ) -> ConflictStub:
        automaton = self.automaton
        node = automaton.lr0.index.id_of(conflict.state_id, conflict.reduce_item)
        lookaheads = automaton.terminal_table.view(automaton.masks_by_id[node])
        return ConflictStub(
            conflict=conflict,
            lookaheads=lookaheads,
            prefix=path_prefix_symbols(path) if path is not None else None,
        )

    # ------------------------------------------------------------------ #

    def explain_all(self) -> FinderSummary:
        """Explain every conflict; aggregates the Table 1 statistics.

        Completes even under cancellation: conflicts not reached before
        the token fired are reported as stubs with a recorded
        degradation, so the summary always covers every conflict.
        """
        conflicts = self.conflicts
        reports: list[FinderReport] = []
        try:
            # In conflict order, hits interleaved with searches, so each
            # search sees the cumulative budget it saw on the first run.
            for index, conflict in enumerate(conflicts):
                served = self.serve(index)
                reports.append(served if served is not None else self.explain(conflict))
        except Cancelled as error:
            for conflict in conflicts[len(reports):]:
                reports.append(self.cancelled_report(conflict, error))
        return self.finish(reports)

    def finish(self, reports: list[FinderReport]) -> FinderSummary:
        """Retry timed-out conflicts if enabled, then fold the Table 1 summary.

        *reports* holds one entry per conflict, in conflict order; the
        retry round upgrades entries in place. The cumulative budget
        already spent is what the reports' searches took, so the
        outcome is the same whether this finder or pool workers
        produced them. The decided explanations are then stored.
        """
        retried = upgraded = 0
        if self.retry_timed_out and not (self.token and self.token.cancelled):
            self._unifying_budget_spent = sum(
                report.stats.elapsed for report in reports if report.stats is not None
            )
            retried, upgraded = self._retry_round(reports)
        summary = FinderSummary(
            grammar_name=self.grammar.name,
            num_conflicts=len(reports),
            num_retried=retried,
            num_retry_upgraded=upgraded,
            reports=list(reports),
        )
        for report in reports:
            if report.degradations:
                summary.num_degraded += 1
                for degraded in report.degradations:
                    stage = degraded.stage.value
                    summary.degraded_by_stage[stage] = (
                        summary.degraded_by_stage.get(stage, 0) + 1
                    )
            if report.rung is Rung.UNIFYING:
                summary.num_unifying += 1
            elif report.rung is Rung.STUB:
                summary.num_stub += 1
            elif report.timed_out:
                summary.num_timeout += 1
            else:
                summary.num_nonunifying += 1
                if report.stats is None:
                    summary.num_skipped_search += 1
            if not report.timed_out:
                summary.total_time += report.unifying_time
        self._store(reports)
        return summary

    def cancelled_report(
        self, conflict: Conflict, error: Cancelled
    ) -> FinderReport:
        """The stub entry for a conflict the cancelled run never finished."""
        try:
            stage = Stage(error.stage) if error.stage else Stage.LASG
        except ValueError:
            stage = Stage.LASG
        return FinderReport(
            conflict=conflict,
            counterexample=None,
            unifying_time=0.0,
            timed_out=False,
            rung=Rung.STUB,
            stub=self._stub(conflict, None),
            degradations=[degradation_from(stage, error)],
        )

    def _retry_round(self, reports: list[FinderReport]) -> tuple[int, int]:
        """Re-search timed-out conflicts once; returns ``(retried, upgraded)``.

        The leftover cumulative budget is split evenly among the
        timed-out conflicts, escalating each retry's time limit beyond
        the original per-conflict cap when plenty is left. A retry that
        finds (and verifies) a unifying counterexample upgrades the
        report entry in place.
        """
        leftover = self.cumulative_limit - self._unifying_budget_spent
        candidates = [
            index
            for index, report in enumerate(reports)
            if report.timed_out and report.rung is not Rung.UNIFYING
        ]
        if leftover <= 0 or not candidates:
            return 0, 0
        per_conflict = leftover / len(candidates)
        retried = upgraded = 0
        for index in candidates:
            if self.cumulative_limit - self._unifying_budget_spent <= 0:
                break
            report = reports[index]
            path_outcome = run_guarded(
                Stage.LASG,
                self.graph.shortest_path,
                report.conflict,
                budget=self._stage_budget("lasg"),
            )
            if not path_outcome.ok:
                continue
            retried += 1
            stats, counterexample, verified = self._unifying(
                report.conflict, path_outcome.value, per_conflict,
                report.degradations,
            )
            if counterexample is None:
                continue
            reports[index] = FinderReport(
                conflict=report.conflict,
                counterexample=counterexample,
                unifying_time=report.unifying_time + stats.elapsed,
                timed_out=False,
                stats=stats,
                verified=verified,
                rung=Rung.UNIFYING,
                degradations=report.degradations,
                retried=True,
            )
            upgraded += 1
        return retried, upgraded

    # ------------------------------------------------------------------ #

    def _verify(self, candidate: Counterexample) -> bool:
        """Independent validation of a unifying counterexample.

        Checks that both derivations yield the same sentential form and
        that the Earley oracle finds at least two derivations of it from
        the unifying nonterminal, under the per-conflict time limit.
        """
        fire("verify")
        yield1 = candidate.example1_symbols()
        yield2 = candidate.example2_symbols()
        if yield1 != yield2:
            return False
        nonterminal = candidate.nonterminal
        assert nonterminal is not None
        try:
            return self._earley.is_ambiguous_form(
                nonterminal,
                yield1,
                step_budget=self.verify_step_budget,
                budget=Budget(
                    time_limit=self._stage_limit,
                    token=self.token,
                    stage="verify",
                ),
            )
        except DerivationBudgetExceeded:
            return False


def _decided(report: FinderReport) -> dict[str, Any] | None:
    """The stored form of *report* if its outcome cannot depend on the
    clock, the load or faults: a unifying counterexample, or a nonunifying
    one after an exhausted search. ``None`` for timeouts, configuration-cap
    stops, skipped searches, stubs, retried and degraded reports."""
    stats, example = report.stats, report.counterexample
    if stats is None or example is None or report.degradations or report.retried:
        return None
    if not (example.unifying or stats.exhausted):
        return None
    return {**example.to_json(), "verified": report.verified, "explored": stats.explored,
            "enqueued": stats.enqueued, "elapsed": stats.elapsed}


def explain_conflicts(
    grammar: Grammar,
    time_limit: float = 5.0,
    cumulative_limit: float = 120.0,
    extended_search: bool = False,
) -> list[str]:
    """Convenience wrapper: formatted CUP-style reports for every conflict."""
    from repro.core.report import safe_format_report

    finder = CounterexampleFinder(
        grammar,
        time_limit=time_limit,
        cumulative_limit=cumulative_limit,
        extended_search=extended_search,
    )
    summary = finder.explain_all()
    return [safe_format_report(report) for report in summary.reports]
