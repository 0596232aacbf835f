"""Canonical LR(0) collection: states, closures, and the transition graph.

The LR(0) automaton is the skeleton shared by SLR(1), LALR(1) and (after
item-splitting) canonical LR(1) constructions. States are identified by
their kernel item sets; each state caches its full closure and its
outgoing transitions.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.automaton.items import Item, start_item
from repro.grammar import Grammar, Nonterminal, Symbol

if TYPE_CHECKING:
    from repro.automaton.index import StateItemIndex


@dataclass
class LR0State:
    """One state of the LR(0) automaton.

    Attributes:
        id: Dense state number (state 0 is the start state).
        kernel: Kernel items (the start item for state 0, otherwise items
            with the dot past position 0).
        items: Full item set: kernel items first, then closure items, in a
            deterministic order.
        transitions: Outgoing edges, one per symbol.
    """

    id: int
    kernel: frozenset[Item]
    items: tuple[Item, ...] = ()
    transitions: dict[Symbol, "LR0State"] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.kernel)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LR0State) and self.kernel == other.kernel

    def __str__(self) -> str:
        lines = [f"State {self.id}"]
        for item in self.items:
            lines.append(f"  {item}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"LR0State({self.id}, {len(self.items)} items)"

    def reduce_items(self) -> Iterator[Item]:
        """Items in this state with the dot at the end."""
        return (item for item in self.items if item.at_end)


def closure(
    grammar: Grammar,
    kernel: frozenset[Item],
    starts: dict[int, Item] | None = None,
) -> tuple[Item, ...]:
    """The LR(0) closure of *kernel*, kernel items first, deterministic order.

    *starts* (production index -> dot-0 item) lets a builder share one
    dot-0 item per production across all its states; the items advanced
    from it are then shared too, through :meth:`Item.advance`'s cache.
    """
    if starts is None:
        starts = {}
    ordered: list[Item] = sorted(
        kernel, key=lambda item: (item.production.index, item.dot)
    )
    seen: set[Item] = set(ordered)
    index = 0
    while index < len(ordered):
        item = ordered[index]
        index += 1
        symbol = item.next_symbol
        if symbol is None or not symbol.is_nonterminal:
            continue
        assert isinstance(symbol, Nonterminal)
        for production in grammar.productions_of(symbol):
            fresh = starts.get(production.index)
            if fresh is None:
                fresh = starts[production.index] = start_item(production)
            if fresh not in seen:
                seen.add(fresh)
                ordered.append(fresh)
    return tuple(ordered)


def predecessor_map(
    states: list[LR0State], sources: Iterable[LR0State]
) -> dict[int, dict[Symbol, list[LR0State]]]:
    """The reverse transition graph: ``map[s.id][X]`` = states with an X-edge into s.

    Each list holds its sources in the order *sources* visits them (and,
    within one source, in its transition order). Walks over the reverse
    graph follow these lists, so a decoded automaton must visit the
    states in the order its construction did.
    """
    predecessors: dict[int, dict[Symbol, list[LR0State]]] = {
        state.id: {} for state in states
    }
    for state in sources:
        for symbol, target in state.transitions.items():
            predecessors[target.id].setdefault(symbol, []).append(state)
    return predecessors


def expansion_order(states: list[LR0State]) -> list[LR0State]:
    """The order the LR(0) builder expands *states* in.

    A LIFO worklist seeded with state 0; each popped state pushes its
    not-yet-seen targets in transition order — exactly what
    :meth:`LR0Automaton._build` does as it discovers states, replayed
    over finished transitions.
    """
    seen = {states[0].id}
    worklist = [states[0]]
    order: list[LR0State] = []
    while worklist:
        state = worklist.pop()
        order.append(state)
        for target in state.transitions.values():
            if target.id not in seen:
                seen.add(target.id)
                worklist.append(target)
    return order


class AdjacencyArrays:
    """Flat, id-indexed views of the transition graph for hot loops.

    The per-state ``transitions``/``predecessors`` dicts hash a
    :class:`~repro.grammar.symbols.Symbol` (a Python-level ``__hash__``)
    on every probe; the successor generators of the unifying search do
    millions of such probes. Here each symbol gets a dense integer code
    and the forward graph becomes one flat ``array('l')`` of target state
    ids (``-1`` for "no edge") indexed ``state_id * stride + code``; the
    reverse graph is a parallel flat tuple of predecessor-id tuples.
    """

    __slots__ = ("symbols", "code", "stride", "goto_flat", "pred_flat")

    def __init__(
        self,
        states: list["LR0State"],
        predecessors: dict[int, dict[Symbol, list["LR0State"]]],
    ) -> None:
        universe = sorted(
            {symbol for state in states for symbol in state.transitions}, key=str
        )
        self.symbols: tuple[Symbol, ...] = tuple(universe)
        self.code: dict[Symbol, int] = {
            symbol: code for code, symbol in enumerate(self.symbols)
        }
        stride = self.stride = len(self.symbols)
        goto_flat = array("l", bytes(0)) if stride == 0 else array(
            "l", [-1] * (len(states) * stride)
        )
        pred_flat: list[tuple[int, ...]] = [()] * (len(states) * stride)
        for state in states:
            base = state.id * stride
            for symbol, target in state.transitions.items():
                goto_flat[base + self.code[symbol]] = target.id
        for state_id, by_symbol in predecessors.items():
            base = state_id * stride
            for symbol, sources in by_symbol.items():
                pred_flat[base + self.code[symbol]] = tuple(
                    source.id for source in sources
                )
        self.goto_flat = goto_flat
        self.pred_flat: tuple[tuple[int, ...], ...] = tuple(pred_flat)

    def goto_id(self, state_id: int, symbol: Symbol) -> int:
        """Target state id of the *symbol*-edge out of *state_id*, or -1."""
        code = self.code.get(symbol)
        if code is None:
            return -1
        return self.goto_flat[state_id * self.stride + code]

    def predecessor_ids(self, state_id: int, symbol: Symbol) -> tuple[int, ...]:
        """Ids of states with a *symbol*-edge into *state_id*."""
        code = self.code.get(symbol)
        if code is None:
            return ()
        return self.pred_flat[state_id * self.stride + code]


class LR0Automaton:
    """The canonical collection of LR(0) item sets for a grammar."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.states: list[LR0State] = []
        self._by_kernel: dict[frozenset[Item], LR0State] = {}
        self._starts: dict[int, Item] = {}
        #: Reverse transition graph: predecessors[s.id][X] = states with an
        #: X-transition into s. Needed by the paper's reverse searches (§6).
        self.predecessors: dict[int, dict[Symbol, list[LR0State]]] = {}
        self._build()

    # ------------------------------------------------------------------ #

    @property
    def start_state(self) -> LR0State:
        return self.states[0]

    def _intern(self, kernel: frozenset[Item]) -> tuple[LR0State, bool]:
        state = self._by_kernel.get(kernel)
        if state is not None:
            return state, False
        state = LR0State(id=len(self.states), kernel=kernel)
        state.items = closure(self.grammar, kernel, self._starts)
        self.states.append(state)
        self._by_kernel[kernel] = state
        return state, True

    def _build(self) -> None:
        initial_kernel = frozenset({start_item(self.grammar.start_production)})
        start, _ = self._intern(initial_kernel)
        worklist = [start]
        while worklist:
            state = worklist.pop()
            moves: dict[Symbol, set[Item]] = {}
            for item in state.items:
                symbol = item.next_symbol
                if symbol is None:
                    continue
                moves.setdefault(symbol, set()).add(item.advance())
            for symbol in sorted(moves, key=str):
                target, fresh = self._intern(frozenset(moves[symbol]))
                state.transitions[symbol] = target
                if fresh:
                    worklist.append(target)
        self.predecessors = predecessor_map(self.states, expansion_order(self.states))

    # ------------------------------------------------------------------ #

    @cached_property
    def arrays(self) -> AdjacencyArrays:
        """Array-backed adjacency, built lazily on first hot-path use.

        Lazy (rather than built in ``__init__``) because cache decoding
        (:mod:`repro.automaton.serialize`) reconstructs automatons via
        ``__new__`` and most cached consumers never touch the arrays.
        """
        return AdjacencyArrays(self.states, self.predecessors)

    @cached_property
    def index(self) -> "StateItemIndex":
        """Dense ids for the ``(state, item)`` pairs (built on first use)."""
        from repro.automaton.index import StateItemIndex

        return StateItemIndex(self)

    def goto(self, state: LR0State, symbol: Symbol) -> LR0State | None:
        """The successor of *state* on *symbol*, or ``None``."""
        return state.transitions.get(symbol)

    def predecessors_on(self, state: LR0State, symbol: Symbol) -> list[LR0State]:
        """States with a *symbol*-transition into *state*."""
        return self.predecessors[state.id].get(symbol, [])

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[LR0State]:
        return iter(self.states)

    def __str__(self) -> str:
        return "\n\n".join(str(state) for state in self.states)
