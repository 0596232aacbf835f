"""Tests for counterexample derivation trees."""

import pytest

from repro.core import DOT, Derivation, dleaf, dnode, format_symbols
from repro.grammar import END_OF_INPUT, Nonterminal, Terminal, load_grammar


@pytest.fixture
def plus_production(ambiguous_expr):
    return next(p for p in ambiguous_expr.user_productions() if len(p.rhs) == 3
                and str(p.rhs[1]) == "+")


class TestConstruction:
    def test_leaf(self):
        leaf = dleaf(Terminal("x"))
        assert leaf.is_leaf and not leaf.is_dot
        assert leaf.yield_symbols() == (Terminal("x"),)

    def test_dot_marker(self):
        assert DOT.is_dot
        assert not DOT.is_leaf
        assert DOT.yield_symbols() == (DOT,)
        assert DOT.size() == 0

    def test_node_validates_arity(self, plus_production):
        with pytest.raises(ValueError):
            dnode(plus_production, [dleaf(Nonterminal("e"))])

    def test_node_validates_symbols(self, plus_production):
        with pytest.raises(ValueError):
            dnode(
                plus_production,
                [dleaf(Terminal("x")), dleaf(Terminal("+")), dleaf(Nonterminal("e"))],
            )

    def test_node_allows_dot_anywhere(self, plus_production):
        e, plus = Nonterminal("e"), Terminal("+")
        node = dnode(plus_production, [dleaf(e), DOT, dleaf(plus), dleaf(e)])
        assert node.yield_symbols() == (e, DOT, plus, e)

    def test_yield_without_dot(self, plus_production):
        e, plus = Nonterminal("e"), Terminal("+")
        node = dnode(plus_production, [dleaf(e), DOT, dleaf(plus), dleaf(e)])
        assert node.yield_symbols(keep_dot=False) == (e, plus, e)


class TestRendering:
    def test_figure11_format(self, ambiguous_expr, plus_production):
        e, plus = Nonterminal("e"), Terminal("+")
        inner = dnode(
            plus_production, [dleaf(e), dleaf(plus), dleaf(e), DOT]
        )
        outer = dnode(plus_production, [inner, dleaf(plus), dleaf(e)])
        assert outer.render() == "e ::= [e ::= [e + e •] + e]"

    def test_format_symbols_hides_eof(self):
        text = format_symbols((Terminal("a"), END_OF_INPUT, DOT))
        assert text == "a •"

    def test_format_symbols_keeps_eof_when_asked(self):
        text = format_symbols((Terminal("a"), END_OF_INPUT), hide_eof=False)
        assert text == "a $"


class TestConversion:
    def test_to_parse_tree_drops_dot(self, plus_production):
        e, plus = Nonterminal("e"), Terminal("+")
        node = dnode(plus_production, [dleaf(e), DOT, dleaf(plus), dleaf(e)])
        tree = node.to_parse_tree()
        assert tree.leaf_symbols() == (e, plus, e)
        assert tree.production is plus_production

    def test_dot_alone_has_no_tree(self):
        with pytest.raises(ValueError):
            DOT.to_parse_tree()

    def test_size_counts_non_dot_nodes(self, plus_production):
        e, plus = Nonterminal("e"), Terminal("+")
        node = dnode(plus_production, [dleaf(e), DOT, dleaf(plus), dleaf(e)])
        assert node.size() == 4


class TestValueSemantics:
    def _node(self, production, dot_at):
        e, plus = Nonterminal("e"), Terminal("+")
        children = [dleaf(e), dleaf(plus), dleaf(e)]
        children.insert(dot_at, DOT)
        return dnode(production, children)

    def test_equal_by_value_with_equal_hashes(self, plus_production):
        first, second = self._node(plus_production, 1), self._node(plus_production, 1)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != self._node(plus_production, 2)
        assert dleaf(Terminal("x")) != Terminal("x")

    def test_pickle_round_trip_keeps_the_dot_singleton(self, plus_production):
        import pickle

        node = self._node(plus_production, 1)
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node and hash(copy) == hash(node)
        assert copy.children[1] is DOT

    def test_nodes_have_slots_not_a_dict(self, plus_production):
        node = self._node(plus_production, 1)
        assert not hasattr(node, "__dict__")
        assert str(node) == node.render()
