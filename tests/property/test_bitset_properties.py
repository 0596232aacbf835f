"""Property-based tests: bitmask lookaheads ≡ the frozenset oracle.

The automaton's hot paths run the lookahead fixpoint over int bitmasks
(:func:`compute_lalr_lookahead_masks`); the original ``frozenset``
formulation (``tests/automaton/lalr_reference.py``) is kept as a
reference oracle. These tests fuzz small grammars and assert the two agree on
every ``(state, item)`` key — as sets, under membership, under union,
and in the name-sorted iteration order the report renderer depends on.
"""

from __future__ import annotations

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.automaton import build_lalr
from repro.grammar import END_OF_INPUT, GrammarBuilder, Terminal

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "automaton"))
from lalr_reference import compute_lalr_lookaheads  # noqa: E402

NONTERMINALS = ["n0", "n1", "n2"]
TERMINALS = ["a", "b", "c"]


@st.composite
def random_grammars(draw):
    builder = GrammarBuilder("random")
    for lhs in NONTERMINALS:
        count = draw(st.integers(min_value=1, max_value=3))
        for _ in range(count):
            length = draw(st.integers(min_value=0, max_value=3))
            rhs = [
                draw(st.sampled_from(NONTERMINALS + TERMINALS))
                for _ in range(length)
            ]
            builder.rule(lhs, rhs)
    return builder.build(start="n0")


def _views(automaton):
    """The lookahead view of every ``(state, item)`` pair, in id order."""
    index = automaton.lr0.index
    return [automaton.lookahead(*index.pair(node)) for node in range(len(index))]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(random_grammars())
def test_mask_fixpoint_matches_frozenset_oracle(grammar):
    """Same keys, same sets: the bitmask fixpoint is the oracle, faster."""
    automaton = build_lalr(grammar)
    oracle = compute_lalr_lookaheads(automaton.lr0, automaton.analysis)
    index = automaton.lr0.index
    assert [index.pair(node) for node in range(len(index))] == list(oracle)
    for mask, (key, expected) in zip(automaton.masks_by_id, oracle.items()):
        view = automaton.lookahead(*key)
        assert view == expected
        assert frozenset(view) == expected
        # Round-trip through the table agrees with the raw mask.
        assert automaton.terminal_table.mask_of(expected) == mask


@settings(max_examples=25, deadline=None, derandomize=True)
@given(random_grammars())
def test_membership_and_union_semantics(grammar):
    automaton = build_lalr(grammar)
    oracle = compute_lalr_lookaheads(automaton.lr0, automaton.analysis)
    probes = [Terminal(name) for name in TERMINALS] + [
        END_OF_INPUT,
        Terminal("NO_SUCH_TERMINAL"),
    ]
    for key, expected in oracle.items():
        view = automaton.lookahead(*key)
        for terminal in probes:
            assert (terminal in view) == (terminal in expected)
        assert (view | expected) == expected
        assert (view & expected) == expected


@settings(max_examples=25, deadline=None, derandomize=True)
@given(random_grammars())
def test_iteration_is_name_sorted(grammar):
    """Reports sort lookaheads by name; the views iterate that way natively."""
    automaton = build_lalr(grammar)
    for view in _views(automaton):
        names = [terminal.name for terminal in view]
        assert names == sorted(names)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(random_grammars())
def test_views_hash_like_frozensets(grammar):
    """Views and their frozenset equivalents collapse in sets/dict keys."""
    automaton = build_lalr(grammar)
    views = _views(automaton)
    frozensets = [frozenset(view) for view in views]
    assert set(views) == set(frozensets)
    for view, reference in zip(views, frozensets):
        assert hash(view) == hash(reference)
