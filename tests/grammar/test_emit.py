"""Tests for the grammar DSL emitter (round-trip with the loader)."""

import pytest

from repro.grammar import Terminal, load_grammar
from repro.grammar.emit import dump_grammar


def roundtrip(grammar):
    return load_grammar(dump_grammar(grammar))


def production_signature(grammar):
    """Productions in global index order. Order matters: yacc defaults
    resolve reduce/reduce conflicts toward the earliest production, and
    the emitter preserves it by starting a new rule block whenever the
    left-hand side changes."""
    return [
        (
            str(p.lhs),
            tuple(str(s) for s in p.rhs),
            None if p.prec_override is None else str(p.prec_override),
        )
        for p in grammar.user_productions()
    ]


class TestRoundTrip:
    def test_figure1(self, figure1):
        reloaded = roundtrip(figure1)
        assert production_signature(reloaded) == production_signature(figure1)
        assert reloaded.start == figure1.start
        assert reloaded.name == figure1.name

    def test_epsilon_productions(self):
        grammar = load_grammar("s : 'a' s | %empty ;")
        reloaded = roundtrip(grammar)
        assert production_signature(reloaded) == production_signature(grammar)

    def test_quoted_terminals(self):
        grammar = load_grammar("s : '(' s ')' | ':=' | ID ;")
        reloaded = roundtrip(grammar)
        assert production_signature(reloaded) == production_signature(grammar)

    def test_precedence_preserved(self):
        grammar = load_grammar(
            """
            %left '+' '-'
            %left '*'
            %right POW
            e : e '+' e | e '*' e | e POW e | '-' e %prec POW | ID ;
            """
        )
        reloaded = roundtrip(grammar)
        assert production_signature(reloaded) == production_signature(grammar)
        for name in ("+", "-", "*", "POW"):
            original = grammar.precedence.level_of(Terminal(name))
            restored = reloaded.precedence.level_of(Terminal(name))
            assert original.associativity == restored.associativity
        # Relative ranks preserved.
        assert (
            reloaded.precedence.level_of(Terminal("+")).rank
            < reloaded.precedence.level_of(Terminal("*")).rank
            < reloaded.precedence.level_of(Terminal("POW")).rank
        )

    def test_same_conflicts_after_roundtrip(self, figure1):
        from repro.automaton import build_lalr

        original = build_lalr(figure1)
        reloaded = build_lalr(roundtrip(figure1))
        assert len(original.conflicts) == len(reloaded.conflicts)
        assert len(original.states) == len(reloaded.states)

    @pytest.mark.parametrize(
        "corpus_name", ["figure3", "figure7", "abcd", "xi", "SQL.1", "Java.1"]
    )
    def test_corpus_roundtrips(self, corpus_name):
        from repro.corpus import load as load_corpus

        grammar = load_corpus(corpus_name)
        reloaded = roundtrip(grammar)
        assert production_signature(reloaded) == production_signature(grammar)

    @pytest.mark.parametrize("corpus_name", ["C.2", "C.3", "C.4", "C.5"])
    def test_precedence_only_tokens_keep_the_conflict_set(self, corpus_name):
        # Regression: ``%nonassoc NOELSE`` names a token used only as a
        # ``%prec`` target; the emitter used to drop its level, so the
        # reloaded grammar had one more (dangling-else) conflict.
        from repro.automaton import build_lalr
        from repro.corpus import load as load_corpus

        grammar = load_corpus(corpus_name)
        original = {str(c) for c in build_lalr(grammar).conflicts}
        reloaded = {str(c) for c in build_lalr(roundtrip(grammar)).conflicts}
        assert reloaded == original

    def test_precedence_only_token_changes_the_fingerprint(self):
        from repro.automaton import build_lalr
        from repro.corpus.c import C_BASE
        from repro.corpus.inject import drop_directive
        from repro.perf.cache import grammar_fingerprint

        declared = load_grammar(C_BASE)
        undeclared = load_grammar(drop_directive(C_BASE, "%nonassoc NOELSE"))
        assert len(build_lalr(declared).conflicts) != len(
            build_lalr(undeclared).conflicts
        )
        assert grammar_fingerprint(declared) != grammar_fingerprint(undeclared)


class TestRendering:
    def test_interleaved_production_order_preserved(self):
        # Regression (found by the DSL round-trip property test): the
        # emitter used to regroup productions by nonterminal, silently
        # renumbering them and changing reduce/reduce resolution.
        grammar = load_grammar("a : 'x' ; b : 'y' ; a : 'z' ;")
        assert production_signature(roundtrip(grammar)) == [
            ("a", ("x",), None),
            ("b", ("y",), None),
            ("a", ("z",), None),
        ]

    def test_groups_alternatives(self, expr_grammar):
        text = dump_grammar(expr_grammar)
        assert text.count("e :") == 1
        assert "| t" in text

    def test_empty_rendered_as_directive(self):
        grammar = load_grammar("s : 'a' | %empty ;")
        assert "%empty" in dump_grammar(grammar)

    def test_start_and_name_directives(self, figure1):
        text = dump_grammar(figure1)
        assert "%grammar figure1" in text
        assert "%start stmt" in text
