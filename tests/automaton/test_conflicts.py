"""find_conflicts reports what the old per-terminal table loop reported.

The oracle (``conflicts_reference.py``) examines every terminal of every
reduce item; :func:`~repro.automaton.tables.find_conflicts` examines
only the terminals where lookahead masks overlap. Both must give equal
lists — same conflicts, kinds and order — and the same precedence
bookkeeping (resolved count, used precedence) on every corpus grammar
under every construction and on generated grammars, and the parse
tables must carry that same list. IELR's raw signature pass
(:func:`~repro.automaton.ielr.conflict_signatures`), the second producer
of conflicts, must agree with the same per-terminal reference.
"""

from __future__ import annotations

import pytest
from conflicts_reference import (
    reference_conflicts,
    reference_precedence,
    reference_signatures,
)
from test_decode_parity import _cases

from repro.automaton import build_automaton
from repro.automaton.ielr import conflict_signatures
from repro.automaton.tables import find_conflicts
from repro.corpus import load
from repro.grammar import Terminal, load_grammar
from repro.verify.fuzz import GrammarFuzzer


def _assert_same(automaton):
    found, resolutions = find_conflicts(automaton)
    expected = reference_conflicts(automaton)
    assert found == expected
    assert [c.kind for c in found] == [c.kind for c in expected]
    assert automaton.conflicts == found
    assert automaton.resolutions == resolutions
    expected_count, expected_used = reference_precedence(automaton)
    assert len(resolutions) == expected_count
    assert automaton.used_precedence == expected_used


@pytest.mark.parametrize("name, algorithm", list(_cases()))
def test_corpus_conflicts_match_the_reference(name, algorithm):
    _assert_same(build_automaton(load(name), algorithm))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("algorithm", ["lalr", "ielr"])
def test_fuzz_conflicts_match_the_reference(seed, algorithm):
    _assert_same(build_automaton(GrammarFuzzer().generate(seed), algorithm))


@pytest.mark.parametrize(
    "name, algorithm", [case for case in _cases() if case.values[1] != "lr1"]
)
def test_corpus_signatures_match_the_reference(name, algorithm):
    automaton = build_automaton(load(name), algorithm)
    assert conflict_signatures(automaton) == reference_signatures(automaton)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("algorithm", ["lalr", "ielr"])
def test_fuzz_signatures_match_the_reference(seed, algorithm):
    automaton = build_automaton(GrammarFuzzer().generate(seed), algorithm)
    assert conflict_signatures(automaton) == reference_signatures(automaton)


def test_signatures_count_precedence_resolved_overlaps():
    grammar = load_grammar("%left '+'\n%left '*'\ne : e '+' e | e '*' e | ID ;")
    automaton = build_automaton(grammar, "lalr")
    assert automaton.conflicts == []
    assert len(conflict_signatures(automaton)) == 4
    assert conflict_signatures(automaton) == reference_signatures(automaton)


def test_precedence_bookkeeping_is_not_vacuous():
    grammar = load_grammar("%left '+'\n%left '*'\ne : e '+' e | e '*' e | ID ;")
    automaton = build_automaton(grammar, "lalr")
    _assert_same(automaton)
    assert automaton.conflicts == []
    assert len(automaton.resolutions) == 4
    assert automaton.used_precedence == {Terminal("+"), Terminal("*")}


def test_tables_share_the_conflict_list(figure1):
    automaton = build_automaton(figure1, "lalr")
    assert automaton.tables.conflicts is automaton.conflicts
