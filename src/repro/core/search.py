"""The outward unifying-counterexample search (§5.2, §5.4).

The search starts from the conflict items themselves — not from the start
state — and grows configurations outward with the successor moves of
:mod:`repro.core.configurations`. Configurations are explored in order of
increasing cost (Dijkstra-style, with duplicate suppression), which is
how the paper postpones unproductive repeated production steps (§5.4,
third observation).

The frontier is Dial's bucket queue: one FIFO list per total cost,
drained lowest cost first. Every move costs a positive integer, so a
successor always lands in a later bucket than the one being drained,
and popping buckets in cost order and each bucket in insertion order
visits configurations in exactly the ``(cost, insertion counter)`` order
of a binary heap — the same configurations in the same order, without
a heap entry tuple or a ``log n`` sift per configuration.

Production steps, forward and reverse, cost 50 where every other move
costs 1, and they are most of what a search enqueues. An explored
configuration's step successors all belong in bucket ``cost + 50``, so
the search files the configuration itself in a *deferred* list for that
bucket and generates its steps when the bucket comes due: at the start
of the level below it, before any cost-1 move can file into it. The
steps then enter the bucket in the order and at the place the heap
would have put them, after every push the heap would have seen first,
so the same configurations are explored in the same order. The one
difference: a step whose configuration a cheaper move reached while it
waited is dropped, where the heap would have enqueued it and later
popped it as stale. Explored counts, accepted costs and derivations
agree with the heap's on every conflicted corpus grammar and 20 fuzz
seeds (``tests/core/test_search_equivalence.py``). What changes is
memory and work: a search stopped by its budget never generates the
steps of buckets it did not reach, which were most of its
configurations. ``SearchStats.enqueued`` counts steps when they are
generated, so it matches the heap's count once the frontier runs dry.

Success is a configuration whose two item sequences have the form
``[? -> … • A …, ? -> … A • …]`` with a single derivation of the same
nonterminal ``A`` on both sides: ``A`` is the unifying nonterminal and
the two derivations prove the ambiguity.

The search is

* **sound**: an accepted configuration's two derivations derive the same
  sentential form by construction (all prepended/appended symbols are
  shared between the parsers);
* **complete** for ambiguous grammars when given unlimited time and
  ``allowed_prepend_states=None``; restricting reverse transitions to the
  shortest lookahead-sensitive path (the default, §6) trades completeness
  for speed;
* **non-terminating** on some unambiguous grammars — callers must bound
  it with ``time_limit``/``max_configurations``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.automaton.conflicts import Conflict
from repro.automaton.lalr import LALRAutomaton
from repro.core.configurations import (
    ALL_MOVES,
    OTHER_MOVES,
    STEP_MOVES,
    UNFOLDED,
    Configuration,
    SuccessorGenerator,
)
from repro.core.counterexample import Counterexample
from repro.grammar import Nonterminal
from repro.perf import metrics
from repro.robust.budget import Budget
from repro.robust.errors import BudgetExhausted, SearchTimeout
from repro.robust.faults import fire


@dataclass
class SearchStats:
    """Instrumentation for benchmarks and the ablation study."""

    explored: int = 0
    #: Configurations enqueued; deferred production steps count when
    #: generated (see the module docstring).
    enqueued: int = 0
    elapsed: float = 0.0
    timed_out: bool = False
    exhausted: bool = False
    #: Why the search stopped early, when it did ("timeout", "budget").
    stopped_reason: str | None = None


@dataclass
class SearchResult:
    """Outcome of one unifying search."""

    counterexample: Counterexample | None
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def succeeded(self) -> bool:
        return self.counterexample is not None


class UnifyingSearch:
    """Cost-ordered outward search for a unifying counterexample."""

    def __init__(
        self,
        automaton: LALRAutomaton,
        conflict: Conflict,
        allowed_prepend_states: frozenset[int] | None = None,
        time_limit: float = 5.0,
        max_configurations: int = 2_000_000,
        max_cost: float | None = 5_000.0,
        budget: Budget | None = None,
    ) -> None:
        """
        Args:
            automaton: The LALR automaton.
            conflict: The conflict to explain.
            allowed_prepend_states: Restrict reverse transitions to these
                states (pass the shortest lookahead-sensitive path states;
                ``None`` = full search, the paper's ``-extendedsearch``).
            time_limit: Wall-clock budget in seconds (paper default: 5 s).
            max_configurations: Hard cap on explored configurations.
            max_cost: Configurations beyond this cost are not expanded; a
                search that drains the frontier under this ceiling reports
                ``exhausted`` — "eligible configurations ran out" (§6).
                Pass ``None`` for the unbounded semi-decision procedure.
            budget: A prebuilt :class:`~repro.robust.budget.Budget`; when
                given it overrides ``time_limit``/``max_configurations``
                (the finder passes one so cancellation and the cumulative
                budget are shared across stages).
        """
        self.automaton = automaton
        self.conflict = conflict
        self.generator = SuccessorGenerator(
            automaton, conflict, allowed_prepend_states
        )
        self.time_limit = time_limit
        self.max_configurations = max_configurations
        self.max_cost = max_cost
        self.budget = budget

    # ------------------------------------------------------------------ #

    def run(self) -> SearchResult:
        """Run the search to acceptance, exhaustion, or timeout.

        Budget overruns never escape: a deadline expiry or configuration
        cap is folded into ``stats.timed_out``/``stats.stopped_reason``
        (cancellation, which must stop the whole run, does propagate).
        """
        fire("search")
        stats = SearchStats()
        started = time.monotonic()
        budget = self.budget or Budget(
            time_limit=self.time_limit,
            max_nodes=self.max_configurations,
            stage="search",
        )
        budget.start()

        generator = self.generator
        initial = generator.initial()
        #: configuration -> cheapest cost it was enqueued at
        best_cost: dict[Configuration, int] = {initial: 0}
        #: total cost -> configurations enqueued at that cost, in order
        buckets: dict[int, list[Configuration]] = {0: [initial]}
        pending = 1

        # Loop-local bindings: this loop runs once per explored
        # configuration (tens of thousands per conflict on grammars like
        # SQL.1), so global and attribute loads are paid for up front.
        best_cost_get = best_cost.get
        best_cost_setdefault = best_cost.setdefault
        buckets_get = buckets.get
        successors_of = generator.successors
        accept = self._accept
        max_cost = self.max_cost
        if max_cost is None:
            max_cost = float("inf")
        charge = budget.charge
        poll = budget.poll
        move_costs = range(generator.max_move_cost + 1)
        # Production steps cost more than any other move. A configuration's
        # step successors all land in bucket `cost + step_cost`, so the
        # configuration itself waits in `deferred` for that bucket and its
        # steps are generated when the bucket comes due: just before any
        # other move can file into it, which keeps its FIFO order.
        step_cost = generator.step_cost
        lead = generator.other_cost
        deferred: dict[int, list[Configuration]] = {}
        now_moves = ALL_MOVES if step_cost is None else OTHER_MOVES
        explored = enqueued = 0
        cost = -1
        stopped: str | None = None

        def overrun() -> str | None:
            """Why the budget stops the search now, if it does."""
            try:
                poll("search")
            except SearchTimeout:
                return "timeout"
            except BudgetExhausted:
                # Preserve the historical accounting: hitting the
                # configuration cap counts as a timeout in Table 1.
                return "budget"
            return None

        def enqueue(moves, after: list[int]) -> None:
            nonlocal enqueued, pending
            for _label, delta, successor in moves:
                new_cost = after[delta]
                if new_cost > max_cost:
                    continue
                known = len(best_cost)
                previous = best_cost_setdefault(successor, new_cost)
                if len(best_cost) == known:
                    if new_cost >= previous:
                        continue
                    best_cost[successor] = new_cost
                enqueued += 1
                pending += 1
                bucket_at = buckets_get(new_cost)
                if bucket_at is None:
                    buckets[new_cost] = [successor]
                else:
                    bucket_at.append(successor)

        while (pending or deferred) and stopped is None:
            cost += 1
            due = deferred.pop(cost + lead, None)
            if due is not None:
                assert step_cost is not None
                at_due = [cost + lead] * (step_cost + 1)
                for parent in due:
                    # A due list can hold a whole level's configurations:
                    # keep the deadline in view while generating it.
                    stopped = overrun()
                    if stopped is not None:
                        break
                    enqueue(successors_of(parent, STEP_MOVES), at_due)
                if stopped is not None:
                    break
            bucket = buckets.pop(cost, None)
            if bucket is None:
                continue
            pending -= len(bucket)
            # ``after[delta]`` is ``cost + delta``, one int object shared
            # by every successor filed from this bucket.
            after = [cost + delta for delta in move_costs]
            for config in bucket:
                explored += 1
                charge()
                stopped = overrun()
                if stopped is not None:
                    break

                if best_cost_get(config) < cost:
                    continue  # superseded by a cheaper copy

                if not config.flags & UNFOLDED:
                    accepted = accept(config)
                    if accepted is not None:
                        stats.explored, stats.enqueued = explored, enqueued
                        stats.elapsed = time.monotonic() - started
                        self._record_stats(stats)
                        accepted = Counterexample(
                            conflict=accepted.conflict,
                            unifying=True,
                            nonterminal=accepted.nonterminal,
                            derivation1=accepted.derivation1,
                            derivation2=accepted.derivation2,
                            search_cost=float(cost),
                        )
                        return SearchResult(accepted, stats)

                enqueue(successors_of(config, now_moves), after)
                if step_cost is not None and cost + step_cost <= max_cost:
                    waiting = deferred.get(cost + step_cost)
                    if waiting is None:
                        deferred[cost + step_cost] = [config]
                    else:
                        waiting.append(config)

        stats.explored, stats.enqueued = explored, enqueued
        if stopped is not None:
            stats.timed_out = True
            stats.stopped_reason = stopped
        else:
            stats.exhausted = True
        stats.elapsed = time.monotonic() - started
        self._record_stats(stats)
        return SearchResult(None, stats)

    @staticmethod
    def _record_stats(stats: SearchStats) -> None:
        """Mirror the run's totals into the metrics layer (when active)."""
        if metrics.active() is None:
            return
        metrics.count("search.configurations.explored", stats.explored)
        metrics.count("search.configurations.enqueued", stats.enqueued)
        if stats.timed_out:
            metrics.count("search.timeouts")

    # ------------------------------------------------------------------ #

    def _accept(self, config: Configuration) -> Counterexample | None:
        """Check the acceptance form of §5.4 and build the counterexample."""
        if not (config.complete1 and config.complete2):
            return None
        if len(config.derivs1) != 1 or len(config.derivs2) != 1:
            return None
        length = self.generator.length
        if length(config.items1) != 2 or length(config.items2) != 2:
            return None
        derivation1 = config.derivs1[0]
        derivation2 = config.derivs2[0]
        if derivation1.children is None or derivation2.children is None:
            return None
        if derivation1.symbol != derivation2.symbol:
            return None
        if derivation1 == derivation2:
            return None  # not two distinct parses
        nonterminal = derivation1.symbol
        assert isinstance(nonterminal, Nonterminal)
        return Counterexample(
            conflict=self.conflict,
            unifying=True,
            nonterminal=nonterminal,
            derivation1=derivation1,
            derivation2=derivation2,
        )
