"""Tests for parse tables, conflicts, and precedence resolution."""

import pytest

from repro.automaton import (
    Accept,
    ConflictKind,
    ErrorAction,
    Reduce,
    Shift,
    build_lalr,
)
from repro.grammar import Terminal, load_grammar


class TestConflictDetection:
    def test_figure1_has_three_conflicts(self, figure1):
        conflicts = build_lalr(figure1).conflicts
        assert len(conflicts) == 3
        assert all(c.kind is ConflictKind.SHIFT_REDUCE for c in conflicts)
        terminals = sorted(str(c.terminal) for c in conflicts)
        assert terminals == ["+", "DIGIT", "ELSE"]

    def test_figure3_has_one_conflict(self, figure3):
        conflicts = build_lalr(figure3).conflicts
        assert len(conflicts) == 1
        assert str(conflicts[0].terminal) == "a"

    def test_figure7_has_two_conflicts(self, figure7):
        # The paper counts one conflict per (reduce item, shift item) pair:
        # A -> a . against both B -> a . b c and B -> a . b d.
        conflicts = build_lalr(figure7).conflicts
        assert len(conflicts) == 2
        assert {str(c.terminal) for c in conflicts} == {"b"}
        shift_rhs = {str(c.other_item.production) for c in conflicts}
        assert shift_rhs == {"B ::= a b c", "B ::= a b d"}

    def test_conflict_free_grammar(self, expr_grammar):
        assert not build_lalr(expr_grammar).conflicts

    def test_reduce_reduce_conflict(self):
        grammar = load_grammar("s : a 'x' | b 'x' ; a : 'q' ; b : 'q' ;")
        conflicts = build_lalr(grammar).conflicts
        assert len(conflicts) == 1
        assert conflicts[0].kind is ConflictKind.REDUCE_REDUCE
        assert str(conflicts[0].terminal) == "x"

    def test_conflict_describe(self, figure1):
        conflict = build_lalr(figure1).conflicts[0]
        text = conflict.describe()
        assert "Shift/Reduce conflict" in text
        assert f"state #{conflict.state_id}" in text


class TestPrecedenceResolution:
    AMBIG = "e : e '+' e | e '*' e | ID ;"

    def test_without_precedence_conflicts(self):
        auto = build_lalr(load_grammar(self.AMBIG))
        assert len(auto.conflicts) == 4

    def test_left_assoc_resolves_to_reduce(self):
        auto = build_lalr(load_grammar("%left '+'\n%left '*'\n" + self.AMBIG))
        assert not auto.conflicts
        # Parsing "ID + ID" and seeing another +: the action on the fully
        # built "e + e" must be reduce (left associativity).
        action = self._action_after(auto, ["ID", "+", "ID"], "+", stop_lhs="e")
        assert isinstance(action, Reduce)
        assert len(action.production.rhs) == 3

    def test_precedence_ordering_shift_on_tighter(self):
        auto = build_lalr(load_grammar("%left '+'\n%left '*'\n" + self.AMBIG))
        action = self._action_after(auto, ["ID", "+", "ID"], "*", stop_lhs="e")
        assert isinstance(action, Shift)

    def test_right_assoc_resolves_to_shift(self):
        auto = build_lalr(load_grammar("%right '+'\ne : e '+' e | ID ;"))
        assert not auto.conflicts
        action = self._action_after(auto, ["ID", "+", "ID"], "+", stop_lhs="e")
        assert isinstance(action, Shift)

    def test_nonassoc_resolves_to_error(self):
        auto = build_lalr(load_grammar("%nonassoc EQ\ne : e EQ e | ID ;"))
        assert not auto.conflicts
        action = self._action_after(auto, ["ID", "EQ", "ID"], "EQ", stop_lhs="e")
        assert action is None or isinstance(action, ErrorAction)

    def test_prec_override(self):
        grammar = load_grammar(
            """
            %left '-'
            %right UMINUS
            e : e '-' e | '-' e %prec UMINUS | ID ;
            """
        )
        auto = build_lalr(grammar)
        assert not auto.conflicts
        # "- e" followed by -: unary binds tighter, so reduce the unary rule.
        action = self._action_after(auto, ["-", "ID"], "-", stop_lhs="e")
        assert isinstance(action, Reduce)
        assert len(action.production.rhs) == 2

    def test_resolved_count_tracked(self):
        auto = build_lalr(load_grammar("%left '+'\ne : e '+' e | ID ;"))
        assert len(auto.resolutions) > 0

    @staticmethod
    def _action_after(auto, symbols, probe, stop_lhs):
        """The parser's action on *probe* after consuming *symbols*.

        Runs the LR driver over *symbols*, then keeps reducing on the
        probe terminal until the next reduction would reduce a production
        of *stop_lhs* with the full operator shape (or no reduction
        applies); returns that decisive action.
        """
        terminal_probe = Terminal(probe)
        stack = [0]

        def act(terminal):
            return auto.tables.action_for(stack[-1], terminal)

        def reduce_with(production):
            arity = len(production.rhs)
            if arity:
                del stack[len(stack) - arity :]
            stack.append(auto.tables.goto_for(stack[-1], production.lhs))

        for name in symbols:
            terminal = Terminal(name)
            while isinstance(act(terminal), Reduce):
                reduce_with(act(terminal).production)
            action = act(terminal)
            assert isinstance(action, Shift), f"cannot shift {name}"
            stack.append(action.state_id)

        while True:
            action = act(terminal_probe)
            if isinstance(action, Reduce):
                production = action.production
                if str(production.lhs) == stop_lhs and len(production.rhs) > 1:
                    return action
                reduce_with(production)
                continue
            return action


class TestAcceptAction:
    def test_accept_on_eof(self, expr_grammar):
        from repro.grammar import END_OF_INPUT

        auto = build_lalr(expr_grammar)
        accepts = [
            state.id
            for state in auto.states
            if isinstance(auto.tables.action_for(state.id, END_OF_INPUT), Accept)
        ]
        assert len(accepts) == 1

    def test_goto_table_only_nonterminals(self, expr_grammar):
        auto = build_lalr(expr_grammar)
        for row in auto.tables.goto:
            assert all(symbol.is_nonterminal for symbol in row)

    def test_action_table_only_terminals(self, expr_grammar):
        auto = build_lalr(expr_grammar)
        for row in auto.tables.action:
            assert all(symbol.is_terminal for symbol in row)
