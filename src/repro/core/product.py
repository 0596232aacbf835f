"""The product parser (paper §5.1), stated directly.

The unifying search of :mod:`repro.core.search` simulates two parser
copies via rich configurations; this module exposes the underlying
*product parser* — states are pairs of items, with joint transitions,
one-sided production steps, and one-sided reductions — in its plain form.
It exists for tests, documentation, and exploratory use: the invariants
of the search (e.g. "a joint transition exists iff both items move on the
same symbol") are validated against this definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.automaton.items import Item
from repro.automaton.lalr import LALRAutomaton
from repro.grammar import Nonterminal, Symbol

#: A product-parser state: a pair of (state id, item) positions.
ProductState = tuple[tuple[int, Item], tuple[int, Item]]


@dataclass(frozen=True)
class ProductAction:
    """One action of the product parser.

    ``kind`` is ``"transition"`` (joint, on ``symbol``),
    ``"prod1"``/``"prod2"`` (production step on one side), or
    ``"reduce1"``/``"reduce2"`` (reduction on one side).
    """

    kind: str
    symbol: Symbol | None
    target: ProductState | None


class ProductParser:
    """Explicit product-parser actions over an LALR automaton."""

    def __init__(self, automaton: LALRAutomaton) -> None:
        self.automaton = automaton
        self.grammar = automaton.grammar

    def actions(self, state: ProductState) -> Iterator[ProductAction]:
        """All actions available in a product state."""
        (state1, item1), (state2, item2) = state

        # Joint transition (Figure 6(a)).
        symbol = item1.next_symbol
        if symbol is not None and symbol == item2.next_symbol:
            states = self.automaton.states
            target1 = states[state1].transitions.get(symbol)
            target2 = states[state2].transitions.get(symbol)
            if target1 is not None and target2 is not None:
                yield ProductAction(
                    "transition",
                    symbol,
                    ((target1.id, item1.advance()), (target2.id, item2.advance())),
                )

        # One-sided production steps (Figure 6(b)).
        for kind, (state_id, item), other in (
            ("prod1", (state1, item1), (state2, item2)),
            ("prod2", (state2, item2), (state1, item1)),
        ):
            next_symbol = item.next_symbol
            if next_symbol is None or not next_symbol.is_nonterminal:
                continue
            assert isinstance(next_symbol, Nonterminal)
            for production in self.grammar.productions_of(next_symbol):
                fresh = (state_id, Item(production, 0))
                if kind == "prod1":
                    yield ProductAction("prod1", None, (fresh, other))
                else:
                    yield ProductAction("prod2", None, (other, fresh))

        # One-sided reductions are stack operations; the product parser
        # only reports their availability (targets depend on the stack).
        if item1.at_end:
            yield ProductAction("reduce1", None, None)
        if item2.at_end:
            yield ProductAction("reduce2", None, None)

    def joint_transition_symbols(self, state: ProductState) -> frozenset[Symbol]:
        """Symbols on which both sides of *state* can move."""
        return frozenset(
            action.symbol
            for action in self.actions(state)
            if action.kind == "transition" and action.symbol is not None
        )
