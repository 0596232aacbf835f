"""A decoded automaton behaves like the one that was built.

A cache hit (``load_automaton(dump_automaton(a))``) must give every
consumer what a fresh build gives it:

* the predecessor lists in the construction's order — the SR walk
  spends its node budget in that order, so a different order can move
  a verdict between ``ambiguous`` and ``inconclusive``;
* the ACTION/GOTO tables, built on first read from the decoded masks,
  equal to the built ones, with the conflict list shared between
  ``tables`` and ``automaton.conflicts``;
* the same walk verdicts, including on the fuzz grammars whose verdicts
  once depended on how the automaton was loaded.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_conflicts
from repro.automaton import build_automaton
from repro.automaton.serialize import DecodedAutomaton, dump_automaton, load_automaton
from repro.corpus import all_specs, load
from repro.verify.fuzz import GrammarFuzzer

#: Grammars whose canonical LR(1) collection takes a second or more (up to
#: 18 s for java-ext2, about 5 min for all of them); their ielr/lr1 rows
#: run with the slow tests.
_SLOW_LR1 = {"C.1", "C.2", "C.3", "C.4", "C.5", "Java.1", "Java.2", "Java.3",
             "Java.4", "Java.5", "java-ext1", "java-ext2", "Pascal.1",
             "Pascal.2", "Pascal.3", "Pascal.4", "Pascal.5", "SQL.1", "SQL.2",
             "SQL.3", "SQL.4", "SQL.5", "eqn"}


def _cases():
    for spec in all_specs():
        for algorithm in ("lalr", "ielr", "lr1"):
            marks = (
                [pytest.mark.slow]
                if algorithm != "lalr" and spec.name in _SLOW_LR1
                else []
            )
            yield pytest.param(spec.name, algorithm, id=f"{spec.name}-{algorithm}",
                               marks=marks)


def _predecessor_ids(automaton):
    return {
        state_id: {str(symbol): [s.id for s in sources]
                   for symbol, sources in by_symbol.items()}
        for state_id, by_symbol in automaton.lr0.predecessors.items()
    }


@pytest.mark.parametrize("name, algorithm", list(_cases()))
def test_decoded_automaton_matches_the_build(name, algorithm):
    built = build_automaton(load(name), algorithm)
    decoded = load_automaton(dump_automaton(built))
    assert isinstance(decoded, DecodedAutomaton)

    # Same lists in the same order, not just the same sets.
    assert _predecessor_ids(decoded) == _predecessor_ids(built)

    assert decoded.conflicts == built.conflicts
    assert "tables" not in decoded.__dict__
    assert decoded.tables.action == built.tables.action
    assert decoded.tables.goto == built.tables.goto
    assert decoded.tables.conflicts is decoded.conflicts
    assert decoded.tables.resolved_count == built.tables.resolved_count
    assert decoded.tables.used_precedence == built.tables.used_precedence


#: Fuzz seeds of the CI campaign units (``campaigns/ci.json``) whose walk
#: verdicts moved with the decoded predecessor order.
_ORDER_SENSITIVE_SEEDS = (14, 63, 113, 120, 148)


@pytest.mark.parametrize("seed", _ORDER_SENSITIVE_SEEDS)
def test_walk_verdicts_do_not_depend_on_decoding(seed):
    automaton = build_automaton(GrammarFuzzer().generate(seed))
    fresh = analyze_conflicts(automaton)
    decoded = analyze_conflicts(load_automaton(dump_automaton(automaton)))
    assert decoded == fresh
