"""Tests for LALR(1) lookahead computation."""

import pytest

from repro.automaton import LALRAutomaton, LR1Automaton, build_lalr
from repro.corpus.registry import all_specs
from repro.grammar import END_OF_INPUT, Nonterminal, Terminal, load_grammar


@pytest.fixture
def figure1_automaton(figure1):
    return build_lalr(figure1)


class TestStartState:
    def test_start_item_has_eof_lookahead(self, figure1_automaton):
        auto = figure1_automaton
        assert END_OF_INPUT in auto.lookahead(auto.start_state, auto.start_item)

    def test_closure_items_have_lookaheads(self, figure1_automaton):
        auto = figure1_automaton
        state = auto.start_state
        for item in state.items:
            assert auto.lookahead(state, item), f"empty lookahead for {item}"


class TestFigure2Lookaheads:
    """Figure 2 of the paper shows selected lookahead sets for figure1."""

    def _state_with(self, auto, predicate):
        for state in auto.states:
            if any(predicate(item) for item in state.items):
                return state
        raise AssertionError("state not found")

    def test_state0_expr_lookaheads(self, figure1_automaton):
        # In state 0: expr -> . num has lookahead {?, +}.
        auto = figure1_automaton
        state = auto.start_state
        expr_item = next(
            item
            for item in state.items
            if str(item.production.lhs) == "expr" and len(item.production.rhs) == 1
        )
        las = {str(t) for t in auto.lookahead(state, expr_item)}
        assert las == {"?", "+"}

    def test_state0_num_lookaheads(self, figure1_automaton):
        # In state 0: num -> . DIGIT has lookahead {?, +, DIGIT}.
        auto = figure1_automaton
        state = auto.start_state
        num_item = next(
            item
            for item in state.items
            if str(item.production.lhs) == "num" and len(item.production.rhs) == 1
        )
        las = {str(t) for t in auto.lookahead(state, num_item)}
        assert las == {"?", "+", "DIGIT"}

    def test_inside_if_expr_followed_by_then(self, figure1_automaton):
        # In state 6 (after IF): expr -> . num has lookahead {THEN, +}.
        auto = figure1_automaton
        state_after_if = auto.start_state.transitions[Terminal("IF")]
        expr_item = next(
            item
            for item in state_after_if.items
            if str(item.production.lhs) == "expr" and len(item.production.rhs) == 1
        )
        las = {str(t) for t in auto.lookahead(state_after_if, expr_item)}
        assert las == {"THEN", "+"}


class TestAgainstCanonicalLR1:
    """LALR lookaheads must equal the per-core union of canonical LR(1) sets."""

    @pytest.mark.parametrize(
        "text",
        [
            "s : 'a' s 'b' | %empty ;",
            "e : e '+' t | t ; t : t '*' f | f ; f : '(' e ')' | ID ;",
            """
            %start S
            S : T | S T ;
            T : X | Y ;
            X : 'a' ;
            Y : 'a' 'a' 'b' ;
            """,
            """
            stmt : IF expr THEN stmt ELSE stmt | IF expr THEN stmt
                 | expr '?' stmt stmt | arr '[' expr ']' ':=' expr ;
            expr : num | expr '+' expr ;
            num : DIGIT | num DIGIT ;
            """,
            "s : a 'x' | b 'y' ; a : 'q' ; b : 'q' ;",
        ],
    )
    def test_lalr_equals_merged_lr1(self, text):
        grammar = load_grammar(text)
        lalr = build_lalr(grammar)
        lr1 = LR1Automaton(grammar)
        merged = lr1.merged_lookaheads()

        for state in lalr.states:
            core = frozenset(state.items)
            for item in state.items:
                expected = merged.get((core, item))
                if expected is None:
                    continue  # core mismatch cannot happen; defensive
                assert lalr.lookahead(state, item) == expected, (
                    f"state {state.id}, item {item}"
                )

    def test_lr0_and_lr1_same_cores(self, expr_grammar):
        lalr = build_lalr(expr_grammar)
        lr1 = LR1Automaton(expr_grammar)
        lalr_cores = {frozenset(state.items) for state in lalr.states}
        lr1_cores = {state.core() for state in lr1.states}
        assert lr1_cores == lalr_cores


class TestFacade:
    def test_goto(self, figure1_automaton):
        auto = figure1_automaton
        target = auto.goto(auto.start_state, Terminal("IF"))
        assert target is not None
        # After IF the parser expects an expression, not another IF.
        assert auto.goto(target, Terminal("IF")) is None
        assert auto.goto(target, Terminal("DIGIT")) is not None

    def test_tables_cached(self, figure1_automaton):
        assert figure1_automaton.tables is figure1_automaton.tables

    def test_str_rendering(self, figure1_automaton):
        text = str(figure1_automaton)
        assert "State 0" in text
        assert "{" in text


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.name)
def test_corpus_masks_match_frozenset_oracle(spec):
    """The digraph pass over ids equals the frozenset worklist key for key."""
    from lalr_reference import compute_lalr_lookaheads

    automaton = build_lalr(spec.load())
    oracle = compute_lalr_lookaheads(automaton.lr0, automaton.analysis)
    assert list(automaton.lookahead_masks) == list(oracle)
    mask_of = automaton.terminal_table.mask_of
    for key, expected in oracle.items():
        assert automaton.lookahead_masks[key] == mask_of(expected), key
