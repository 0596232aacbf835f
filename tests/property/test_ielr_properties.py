"""Property-based tests on the minimal-LR(1) construction and compaction.

The headline properties the issue battery demands, each over a few
hundred sampled random grammars:

* the minimal automaton has **exactly** the canonical LR(1) raw conflict
  set (no conflict manufactured, none lost);
* state counts obey the lattice sandwich LALR <= IELR <= canonical;
* the compact serialization decodes to the identical automaton.

The LALR-relative properties hold for fully productive grammars (LR(1)
closure prunes dead items, so nonproductive regions make the canonical
collection structurally smaller than the LR(0) one); those tests skip
the occasional nonproductive sample, mirroring the guard in the
differential oracle.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.automaton import (
    LR1Automaton,
    build_ielr,
    build_lalr,
    canonical_conflict_signatures,
    conflict_signatures,
)
from repro.automaton.serialize import dump_automaton, load_automaton
from repro.grammar import GrammarBuilder

NONTERMINALS = ["n0", "n1", "n2"]
TERMINALS = ["a", "b", "c"]

MAX_LR1_STATES = 1500


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


def canonical(grammar) -> LR1Automaton | None:
    try:
        return LR1Automaton(grammar, max_states=MAX_LR1_STATES)
    except RuntimeError:
        return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_grammars())
def test_ielr_conflicts_exactly_canonical(grammar):
    """The defining property: splitting removes every manufactured
    conflict and introduces none."""
    lr1 = canonical(grammar)
    if lr1 is None:
        assume(False)
        return
    ielr = build_ielr(grammar, lr1=lr1)
    assert conflict_signatures(ielr) == canonical_conflict_signatures(lr1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_grammars())
def test_canonical_conflicts_within_lalr(grammar):
    """Merging only ever adds conflicts: canonical signatures are a
    subset of the LALR automaton's."""
    assume(not grammar.nonproductive_nonterminals)
    lr1 = canonical(grammar)
    if lr1 is None:
        assume(False)
        return
    assert canonical_conflict_signatures(lr1) <= conflict_signatures(
        build_lalr(grammar)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_grammars())
def test_state_count_sandwich(grammar):
    assume(not grammar.nonproductive_nonterminals)
    lr1 = canonical(grammar)
    if lr1 is None:
        assume(False)
        return
    lalr = build_lalr(grammar)
    ielr = build_ielr(grammar, lr1=lr1)
    assert len(lalr.states) <= len(ielr.states) <= len(lr1.states)
    if not ielr.splits:
        assert len(ielr.states) == len(lalr.states)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_grammars())
def test_compact_serialization_decodes_identically(grammar):
    """Compacted tables decode to the same action/goto/lookahead maps as
    the automaton they were written from."""
    automaton = build_lalr(grammar)
    decoded = load_automaton(dump_automaton(automaton))
    assert decoded.masks_by_id == automaton.masks_by_id
    assert len(decoded.states) == len(automaton.states)
    for original, loaded in zip(automaton.states, decoded.states):
        assert original.kernel == loaded.kernel
        assert {str(s): t.id for s, t in original.transitions.items()} == {
            str(s): t.id for s, t in loaded.transitions.items()
        }
    assert decoded.tables.goto == automaton.tables.goto
    assert decoded.tables.action == automaton.tables.action
