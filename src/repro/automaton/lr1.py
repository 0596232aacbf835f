"""Canonical LR(1) construction.

Used as a reference implementation: the LALR(1) lookaheads computed by the
channel algorithm must equal, per LR(0) core, the union of canonical LR(1)
lookaheads over all states sharing that core. The test suite checks this
property on every small grammar in the corpus.

Canonical LR(1) state counts explode on large grammars, so this module is
kept out of the main pipeline and used for validation, for the optional
``table_algorithm="lr1"`` mode, and for the LR(k)-ness probes in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.automaton.items import Item, start_item
from repro.grammar import (
    END_OF_INPUT,
    Grammar,
    GrammarAnalysis,
    Nonterminal,
    Symbol,
    Terminal,
)

#: An LR(1) item: an LR(0) item plus one lookahead terminal.
LR1Item = tuple[Item, Terminal]


@dataclass
class LR1State:
    """A canonical LR(1) state: a closed set of (item, lookahead) pairs."""

    id: int
    kernel: frozenset[LR1Item]
    items: frozenset[LR1Item] = frozenset()
    transitions: dict[Symbol, "LR1State"] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.kernel)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LR1State) and self.kernel == other.kernel

    def core(self) -> frozenset[Item]:
        """The LR(0) core of this state."""
        return frozenset(item for item, _ in self.items)

    def lookaheads_of(self, item: Item) -> frozenset[Terminal]:
        return frozenset(la for itm, la in self.items if itm == item)


def lr1_closure(
    grammar: Grammar, analysis: GrammarAnalysis, kernel: frozenset[LR1Item]
) -> frozenset[LR1Item]:
    """The LR(1) closure of *kernel*."""
    result: set[LR1Item] = set(kernel)
    worklist = list(kernel)
    while worklist:
        item, lookahead = worklist.pop()
        symbol = item.next_symbol
        if symbol is None or not symbol.is_nonterminal:
            continue
        assert isinstance(symbol, Nonterminal)
        beta = item.production.rhs[item.dot + 1 :]
        context = analysis.first_of_sequence(beta, (lookahead,))
        for production in grammar.productions_of(symbol):
            fresh_item = start_item(production)
            for terminal in context:
                pair = (fresh_item, terminal)
                if pair not in result:
                    result.add(pair)
                    worklist.append(pair)
    return frozenset(result)


class LR1Automaton:
    """The canonical collection of LR(1) item sets."""

    def __init__(self, grammar: Grammar, max_states: int = 100_000) -> None:
        """Build the automaton; raises :class:`RuntimeError` past *max_states*."""
        self.grammar = grammar
        self.analysis = GrammarAnalysis(grammar)
        self.states: list[LR1State] = []
        self._by_kernel: dict[frozenset[LR1Item], LR1State] = {}
        self._max_states = max_states
        self._build()

    @property
    def start_state(self) -> LR1State:
        return self.states[0]

    def _intern(self, kernel: frozenset[LR1Item]) -> tuple[LR1State, bool]:
        state = self._by_kernel.get(kernel)
        if state is not None:
            return state, False
        if len(self.states) >= self._max_states:
            raise RuntimeError(
                f"canonical LR(1) construction exceeded {self._max_states} states"
            )
        state = LR1State(id=len(self.states), kernel=kernel)
        state.items = lr1_closure(self.grammar, self.analysis, kernel)
        self.states.append(state)
        self._by_kernel[kernel] = state
        return state, True

    def _build(self) -> None:
        initial = frozenset(
            {(start_item(self.grammar.start_production), END_OF_INPUT)}
        )
        start, _ = self._intern(initial)
        worklist = [start]
        while worklist:
            state = worklist.pop()
            moves: dict[Symbol, set[LR1Item]] = {}
            for item, lookahead in state.items:
                symbol = item.next_symbol
                if symbol is None:
                    continue
                moves.setdefault(symbol, set()).add((item.advance(), lookahead))
            for symbol in sorted(moves, key=str):
                target, fresh = self._intern(frozenset(moves[symbol]))
                state.transitions[symbol] = target
                if fresh:
                    worklist.append(target)

    # ------------------------------------------------------------------ #

    def merged_lookaheads(self) -> dict[tuple[frozenset[Item], Item], frozenset[Terminal]]:
        """Per LR(0) core, the union of LR(1) lookaheads (the LALR sets)."""
        merged: dict[tuple[frozenset[Item], Item], set[Terminal]] = {}
        for state in self.states:
            core = state.core()
            for item, lookahead in state.items:
                merged.setdefault((core, item), set()).add(lookahead)
        return {key: frozenset(values) for key, values in merged.items()}

    def has_conflicts(self) -> bool:
        """Whether any canonical LR(1) state has a shift/reduce or reduce/reduce conflict.

        A reduce on ``$`` beside ``START' -> S . $`` conflicts with the
        accept action, as in :func:`repro.automaton.tables.find_conflicts`.
        """
        for state in self.states:
            reducers: dict[Terminal, set[Item]] = {}
            for item, lookahead in state.items:
                if item.at_end and item.production.index != 0:
                    reducers.setdefault(lookahead, set()).add(item)
            for terminal, items in reducers.items():
                if len(items) > 1:
                    return True
                if terminal in state.transitions:
                    return True
        return False

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[LR1State]:
        return iter(self.states)
