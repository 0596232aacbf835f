"""Tests for search configurations and successor moves (Figure 10).

Configurations hold ``(state, item)`` pairs as dense ids packed into
one int per side; the tests decode them through the generator and the
automaton's index.
"""

import pytest

from repro.automaton import build_lalr
from repro.core import DOT, SuccessorGenerator, initial_configuration
from repro.grammar import Terminal


@pytest.fixture
def setup(figure1):
    auto = build_lalr(figure1)
    conflict = next(c for c in auto.conflicts if str(c.terminal) == "ELSE")
    return auto, conflict, SuccessorGenerator(auto, conflict)


def successors_by_label(generator, config):
    result = {}
    for label, cost, successor in generator.successors(config):
        result.setdefault(label, []).append((cost, successor))
    return result


class TestInitialConfiguration:
    def test_figure8b_form(self, setup):
        _, conflict, generator = setup
        config = initial_configuration(generator.index, conflict)

        def pairs(items):
            return generator.index.pairs(generator.ids(items))

        assert pairs(config.items1) == ((conflict.state_id, conflict.reduce_item),)
        assert pairs(config.items2) == ((conflict.state_id, conflict.other_item),)
        assert config.derivs1 == (DOT,)
        assert config.derivs2 == (DOT,)
        assert not config.complete1 and not config.complete2
        assert not config.shifted

    def test_heads_share_state(self, setup):
        _, conflict, generator = setup
        config = initial_configuration(generator.index, conflict)
        state_of = generator.index.state_of
        head1, head2 = generator.ids(config.items1)[0], generator.ids(config.items2)[0]
        assert state_of[head1] == state_of[head2]


class TestInvariants:
    """Structural invariants hold across arbitrary successor applications."""

    def explore(self, generator, config, depth):
        yield config
        if depth == 0:
            return
        for _, _, successor in generator.successors(config):
            yield from self.explore(generator, successor, depth - 1)

    def test_heads_always_share_state(self, setup):
        _, conflict, generator = setup
        state_of = generator.index.state_of
        for config in self.explore(generator, generator.initial(), 3):
            head1 = generator.ids(config.items1)[0]
            head2 = generator.ids(config.items2)[0]
            assert state_of[head1] == state_of[head2]

    def test_yields_always_identical(self, setup):
        """The two derivation lists must spell the same yield (with dot)."""
        _, conflict, generator = setup

        def flat(derivs):
            out = []
            for d in derivs:
                out.extend(d.yield_symbols())
            return out

        for config in self.explore(generator, generator.initial(), 3):
            # Parser 2's shift item carries symbols after its dot that
            # parser 1 will only produce later, so compare prefixes up to
            # the dot only.
            yield1, yield2 = flat(config.derivs1), flat(config.derivs2)
            dot1, dot2 = yield1.index(DOT), yield2.index(DOT)
            assert yield1[:dot1] == yield2[:dot2]

    def test_exactly_one_dot_until_absorbed(self, setup):
        _, conflict, generator = setup
        for config in self.explore(generator, generator.initial(), 3):
            top_level_dots1 = sum(1 for d in config.derivs1 if d.is_dot)
            expected1 = 0 if config.complete1 else 1
            assert top_level_dots1 == expected1

    def test_item_sequences_are_connected_paths(self, setup):
        """Consecutive state-items are linked by a transition or a
        production step of the parser."""
        auto, conflict, generator = setup
        for config in self.explore(generator, generator.initial(), 3):
            for ids in (config.items1, config.items2):
                items = generator.index.pairs(generator.ids(ids))
                for (s1, i1), (s2, i2) in zip(items, items[1:]):
                    if s1 == s2 and i2.at_start:
                        assert i1.next_symbol == i2.production.lhs
                    else:
                        assert i2 == i1.advance()
                        symbol = i2.previous_symbol
                        assert auto.states[s1].transitions[symbol].id == s2


class TestReverseTransition:
    def test_initial_successors_are_reverse_transitions(self, setup):
        _, conflict, generator = setup
        moves = successors_by_label(generator, generator.initial())
        assert set(moves) == {"revtransition"}
        for _, successor in moves["revtransition"]:
            # One symbol (stmt) prepended to both derivation lists.
            assert len(successor.derivs1) == 2
            assert successor.derivs1[0].symbol == successor.derivs2[0].symbol

    def test_reverse_transition_respects_lookahead_constraint(self, figure1):
        """While stage 1 is incomplete, the prepended reduce-side item must
        keep the conflict terminal in its lookahead set."""
        auto = build_lalr(figure1)
        conflict = next(c for c in auto.conflicts if str(c.terminal) == "ELSE")
        generator = SuccessorGenerator(auto, conflict)
        config = initial_configuration(auto.lr0.index, conflict)
        for label, _, successor in generator.successors(config):
            if label != "revtransition":
                continue
            state_id, item = generator.index.pair(generator.ids(successor.items1)[0])
            assert conflict.terminal in auto.lookahead(state_id, item)


class TestReduction:
    def drive_to_reduction(self, generator, config, parser):
        """Breadth-first search for the first configuration produced by a
        reduction on *parser*."""
        frontier = [config]
        for _ in range(6):
            next_frontier = []
            for current in frontier:
                for label, _, successor in generator.successors(current):
                    if label == f"reduce{parser}":
                        return successor
                    next_frontier.append(successor)
            frontier = next_frontier
        raise AssertionError("no reduction found")

    def test_stage1_reduction_absorbs_dot(self, setup):
        _, conflict, generator = setup
        reduced = self.drive_to_reduction(
            generator, generator.initial(), 1
        )
        assert reduced.complete1
        node = reduced.derivs1[-1]
        assert node.production is conflict.reduce_item.production
        assert any(child.is_dot for child in node.children)

    def test_reduction_shrinks_items_and_moves_to_goto(self, setup):
        auto, conflict, generator = setup
        reduced = self.drive_to_reduction(
            generator, generator.initial(), 1
        )
        state_id, item = generator.index.pair(generator.ids(reduced.items1)[-1])
        assert item.previous_symbol == conflict.reduce_item.production.lhs
