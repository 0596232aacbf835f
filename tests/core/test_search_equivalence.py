"""The id-based search with its bucket queue explores exactly as the reference.

:class:`~repro.core.search.UnifyingSearch` runs the moves of
:mod:`repro.core.configurations` over dense ``(state, item)`` ids and
pops configurations from a bucket queue;
:func:`search_reference.reference_search` runs the same moves over
``(state id, Item)`` tuples with a binary heap. Per conflict they must
agree on how many configurations were explored, whether the frontier
ran dry, the accepted cost and both derivations. Both run under a
configuration cap and no clock, so the comparison is exact.

The search generates a configuration's production steps only when
their bucket comes due, so a search that stops early has enqueued
fewer configurations than the heap, which pushes every successor at
once. Once the frontier runs dry every deferred step has been
generated, and the enqueued counts must agree too.
"""

import pytest

from repro.automaton import build_lalr
from repro.core.lasg import LookaheadSensitiveGraph, path_states
from repro.core.search import UnifyingSearch
from repro.corpus.registry import all_specs
from repro.robust.budget import Budget
from repro.verify import GrammarFuzzer

from search_reference import reference_search

#: Explored configurations per conflict and setting.
CAP = 1_000

#: Too slow for tier 1 under the reference (15 and 60 conflicts).
SLOW = {"C.4", "Java.4"}


def outcome(automaton, conflict, allowed):
    result = UnifyingSearch(
        automaton,
        conflict,
        allowed_prepend_states=allowed,
        budget=Budget(max_nodes=CAP, stage="search"),
    ).run()
    stats, found = result.stats, result.counterexample
    return (
        stats.explored,
        stats.exhausted,
        stats.enqueued if stats.exhausted else None,
        found and found.search_cost,
        found and found.derivation1,
        found and found.derivation2,
    )


def reference_outcome(automaton, conflict, allowed):
    ref = reference_search(automaton, conflict, allowed, CAP)
    return (
        ref.explored,
        ref.exhausted,
        ref.enqueued if ref.exhausted else None,
        ref.cost,
        ref.derivation1,
        ref.derivation2,
    )


def assert_same_searches(automaton, extended):
    graph = LookaheadSensitiveGraph(automaton)
    for conflict in automaton.conflicts:
        allowed = None if extended else path_states(graph.shortest_path(conflict))
        assert outcome(automaton, conflict, allowed) == reference_outcome(
            automaton, conflict, allowed
        ), f"conflict [{conflict}]"


def conflicted_specs():
    for spec in all_specs():
        if not build_lalr(spec.load()).conflicts:
            continue
        marks = [pytest.mark.slow] if spec.name in SLOW else []
        yield pytest.param(spec, id=spec.name, marks=marks)


CONFLICTED = list(conflicted_specs())


@pytest.mark.parametrize("spec", CONFLICTED)
def test_corpus_restricted_search_matches_reference(spec):
    assert_same_searches(build_lalr(spec.load()), extended=False)


@pytest.mark.parametrize("spec", CONFLICTED)
def test_corpus_extended_search_matches_reference(spec):
    assert_same_searches(build_lalr(spec.load()), extended=True)


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_search_matches_reference(seed):
    assert_same_searches(build_lalr(GrammarFuzzer().generate(seed)), extended=False)
