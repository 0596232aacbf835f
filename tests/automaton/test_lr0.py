"""Tests for the LR(0) canonical collection."""

import pytest

from repro.automaton import LR0Automaton, closure, start_item
from repro.grammar import Nonterminal, Terminal, load_grammar


@pytest.fixture
def automaton(expr_grammar):
    return LR0Automaton(expr_grammar)


class TestClosure:
    def test_start_state_closure(self, expr_grammar):
        kernel = frozenset({start_item(expr_grammar.start_production)})
        items = closure(expr_grammar, kernel)
        # START' -> . e $, e -> . e + t, e -> . t, t -> . t * f,
        # t -> . f, f -> . ( e ), f -> . ID
        assert len(items) == 7
        assert items[0].production.index == 0

    def test_closure_is_deterministic(self, expr_grammar):
        kernel = frozenset({start_item(expr_grammar.start_production)})
        assert closure(expr_grammar, kernel) == closure(expr_grammar, kernel)

    def test_closure_of_terminal_dot_adds_nothing(self, expr_grammar):
        production = next(
            p for p in expr_grammar.user_productions() if len(p.rhs) == 3
        )
        kernel = frozenset({start_item(production).advance()})
        items = closure(expr_grammar, kernel)
        # t . * f: terminal after dot, kernel only.
        if str(production.rhs[1]) == "*":
            assert len(items) == 1


class TestConstruction:
    def test_dragon_expression_grammar_state_count(self, automaton):
        # The classic LR(0) collection for this grammar has 12 states
        # (Dragon book Fig 4.31); our augmentation makes the end marker an
        # explicit symbol, adding one accept state.
        assert len(automaton) == 13

    def test_states_have_unique_kernels(self, automaton):
        kernels = [state.kernel for state in automaton]
        assert len(kernels) == len(set(kernels))

    def test_start_state_is_zero(self, automaton):
        assert automaton.start_state.id == 0
        assert automaton.states[0].items[0].production.index == 0

    def test_transitions_are_consistent(self, automaton):
        for state in automaton:
            for symbol, target in state.transitions.items():
                expected = frozenset(
                    item.advance()
                    for item in state.items
                    if item.next_symbol == symbol
                )
                assert target.kernel == expected

    def test_figure1_state_count_matches_paper(self, figure1):
        # Table 1: figure1 has 24 states.
        assert len(LR0Automaton(figure1)) == 24

    def test_figure3_state_count_matches_paper(self, figure3):
        # Table 1: figure3 has 10 states.
        assert len(LR0Automaton(figure3)) == 10

    def test_figure7_state_count_matches_paper(self, figure7):
        # Table 1: figure7 has 16 states.
        assert len(LR0Automaton(figure7)) == 16


class TestReverseEdges:
    def test_predecessors_invert_transitions(self, automaton):
        for state in automaton:
            for target in state.transitions.values():
                assert state.id in automaton.predecessors[target.id]

    def test_no_spurious_predecessors(self, automaton):
        for state in automaton:
            for predecessor in automaton.predecessors[state.id]:
                assert state in automaton.states[predecessor].transitions.values()

    def test_every_edge_into_a_state_carries_its_entry_symbol(self, automaton):
        for state in automaton:
            symbols = {
                symbol
                for source in automaton.predecessors[state.id]
                for symbol, target in automaton.states[source].transitions.items()
                if target is state
            }
            assert len(symbols) == (1 if state.id else 0)

    def test_start_state_has_no_predecessors(self, automaton):
        assert not automaton.predecessors[0]


class TestStateContents:
    def test_kernel_items_have_common_previous_symbol(self, automaton):
        # All dot>0 items of a state were produced by the same transition
        # symbol; the counterexample search relies on this.
        for state in automaton:
            previous = {
                item.previous_symbol
                for item in state.items
                if item.dot > 0
            }
            assert len(previous) <= 1

    def test_reduce_items_iterator(self, automaton):
        for state in automaton:
            assert all(item.at_end for item in state.reduce_items())

    def test_str_contains_items(self, automaton):
        text = str(automaton.start_state)
        assert "State 0" in text
        assert "•" in text
