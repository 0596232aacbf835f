"""Tests for the lazy LASG's skeleton memo, counters and budget.

The lookahead-sensitive graph is never built whole: the shortest-path
BFS runs over ``(state, item, conflict-terminal bit)`` tuples, at most
two per ``(state, item)`` pair that can reach the conflict item. The only
memo is the per-``(state, item)`` skeleton, shared by every conflict
explained through the same graph instance (the finder keeps one per
automaton) and bounded by the automaton's size.
"""

import pytest

from repro.automaton import build_lalr
from repro.core import CounterexampleFinder
from repro.core.lasg import LookaheadSensitiveGraph
from repro.corpus.registry import get
from repro.perf import metrics
from repro.robust import Rung, Stage


@pytest.fixture
def conflicted(figure1):
    automaton = build_lalr(figure1)
    assert automaton.conflicts
    return automaton


def reaching_pairs(automaton, conflict):
    return automaton.lookups.reaching_pairs(
        automaton.states[conflict.state_id], conflict.reduce_item
    )


class TestSuccessorCache:
    def test_bounded_cache_returns_same_paths(self, conflicted):
        """A graph whose skeleton memo is warm from every conflict gives
        the same paths as fresh graphs, and the memo stays bounded by
        the pairs the searches could visit."""
        warm = LookaheadSensitiveGraph(conflicted)
        for conflict in conflicted.conflicts:
            warm.shortest_path(conflict)
        visitable = set().union(
            *(reaching_pairs(conflicted, c) for c in conflicted.conflicts)
        )
        assert 0 < len(warm._skeletons) <= len(visitable)
        for conflict in conflicted.conflicts:
            fresh = LookaheadSensitiveGraph(conflicted).shortest_path(conflict)
            again = warm.shortest_path(conflict)
            assert [str(edge) for edge in again] == [str(edge) for edge in fresh]


class TestMaterializationCounters:
    def test_materialized_is_a_fraction_of_the_estimate(self, conflicted):
        with metrics.collecting() as collector:
            graph = LookaheadSensitiveGraph(conflicted)
            for conflict in conflicted.conflicts:
                graph.shortest_path(conflict)
        materialized = collector.counters["lasg.vertices.materialized"]
        estimated = collector.counters["lasg.vertices.estimated_full"]
        assert 0 < materialized < estimated

    @pytest.mark.parametrize("name", ["figure1", "Pascal.2", "C.2"])
    def test_at_most_two_vertices_per_reaching_pair(self, name):
        """One vertex per (state, item, bit): the BFS cannot materialize
        more than twice the pairs that can reach the conflict item."""
        automaton = build_lalr(get(name).load())
        graph = LookaheadSensitiveGraph(automaton)
        for conflict in automaton.conflicts:
            with metrics.collecting() as collector:
                graph.shortest_path(conflict)
            materialized = collector.counters["lasg.vertices.materialized"]
            assert 0 < materialized <= 2 * len(reaching_pairs(automaton, conflict))


class TestBudget:
    def test_too_small_node_budget_degrades_lasg_to_stub(self, figure1):
        finder = CounterexampleFinder(build_lalr(figure1), max_configurations=2)
        conflict = finder.conflicts[0]
        # The BFS dequeues at least one vertex per path edge.
        assert len(finder.graph.shortest_path(conflict)) > 2
        report = finder.explain(conflict)
        assert report.rung is Rung.STUB
        assert report.stub is not None
        assert report.degradations[0].stage is Stage.LASG
        assert report.degradations[0].error_type == "BudgetExhausted"


class TestFinderScoping:
    def test_finder_shares_one_graph_with_the_nonunifying_builder(
        self, conflicted
    ):
        finder = CounterexampleFinder(conflicted)
        assert finder.nonunifying.graph is finder.graph

    def test_two_finders_do_not_share_memo_state(self, figure1):
        a = CounterexampleFinder(build_lalr(figure1))
        b = CounterexampleFinder(build_lalr(figure1))
        assert a.graph is not b.graph
