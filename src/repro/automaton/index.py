"""Dense ids for an automaton's ``(state, item)`` pairs (paper §6, "Data structures").

The counterexample searches walk ``(state, item)`` pairs forward and
backward. Keyed by ``(state_id, Item)`` tuples, every probe hashes a
tuple and calls ``Item.__hash__``/``__eq__`` in Python. Here each pair
gets an int id — state ``s``'s items take ``base[s] .. base[s] +
len(s.items) - 1`` in ``s.items`` order — and the searches keep ids in
their queues, sets and configurations.

Per-id attributes that cost one list comprehension (the state, the
item, the next symbol, the reduce arity, dot-at-start) are built with
the index. The edges are built on first use, one id at a time, because
a consumer touches only the ids it reaches and an eager whole-graph
build costs more than a small grammar's whole explanation:

* :meth:`StateItemIndex.transition` — the advanced item in the goto state;
* :meth:`StateItemIndex.production_steps` — the dot-0 items of the next
  nonterminal's productions, in declaration order;
* :meth:`StateItemIndex.production_parents` — for a dot-0 item, the items
  ``A -> α . B β`` of the same state that step into it, in state order;
* :meth:`StateItemIndex.reverse_transitions` — the retreated item in each
  predecessor state, aligned with the state's predecessors on the
  symbol (``-1`` where the predecessor lacks it).

The index depends on the LR(0) structure only, so it lives on the
:class:`~repro.automaton.lr0.LR0Automaton` and works the same on
automata decoded from the cache. Lookahead masks by id are
:attr:`~repro.automaton.lalr.LALRAutomaton.masks_by_id`.
"""

from __future__ import annotations

from repro.automaton.items import Item
from repro.grammar import Symbol


class StateItemIndex:
    """Dense int ids for the ``(state, item)`` pairs of one automaton."""

    __slots__ = (
        "_grammar",
        "_positions",
        "_predecessors",
        "_states",
        "_transition",
        "_steps",
        "_parents",
        "_reverse",
        "base",
        "offsets",
        "state_of",
        "item_of",
        "item_number",
        "next_symbol",
        "reduce_arity",
        "at_start",
        "productions",
    )

    def __init__(self, lr0) -> None:
        self._states = states = lr0.states
        self._predecessors = lr0.predecessors
        self._grammar = grammar = lr0.grammar
        #: production index -> number of its dot-0 item; item numbers
        #: ``offsets[p] + dot`` name the grammar's LR(0) items densely.
        offsets: list[int] = []
        next_symbols: list[Symbol | None] = []
        arities: list[int] = []
        dots: list[int] = []
        productions = []
        for production in grammar.productions:
            offsets.append(len(dots))
            rhs = production.rhs
            for dot in range(len(rhs) + 1):
                next_symbols.append(rhs[dot] if dot < len(rhs) else None)
                arities.append(len(rhs) if dot == len(rhs) else -1)
                dots.append(dot)
                productions.append(production)
        #: production index -> item number of its dot-0 item
        self.offsets = offsets
        #: item number -> production (the dot-0 item number of a
        #: production is ``offsets[production.index]``).
        self.productions = productions

        base: list[int] = []
        state_of: list[int] = []
        item_of: list[Item] = []
        for state in states:
            base.append(len(item_of))
            state_of.extend([state.id] * len(state.items))
            item_of.extend(state.items)
        self.base = base
        #: id -> state id
        self.state_of = state_of
        #: id -> Item
        self.item_of = item_of
        #: id -> grammar item number
        self.item_number = numbers = [
            offsets[item.production.index] + item.dot for item in item_of
        ]
        #: id -> symbol after the dot, ``None`` for reduce items
        self.next_symbol = [next_symbols[k] for k in numbers]
        #: id -> ``len(rhs)`` for reduce items, else ``-1``
        self.reduce_arity = [arities[k] for k in numbers]
        #: id -> whether the dot is at position 0
        self.at_start = [dots[k] == 0 for k in numbers]

        size = len(item_of)
        self._positions: list[dict[int, int] | None] = [None] * len(states)
        self._transition: list[int | None] = [None] * size
        self._steps: list[tuple[int, ...] | None] = [None] * size
        self._parents: list[tuple[int, ...] | None] = [None] * size
        self._reverse: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = (
            [None] * size
        )

    def __len__(self) -> int:
        return len(self.item_of)

    # ------------------------------------------------------------------ #
    # Ids and pairs

    def _position(self, state_id: int) -> dict[int, int]:
        """Item number -> id, for the items of *state_id* (built on first use)."""
        positions = self._positions[state_id]
        if positions is None:
            first = self.base[state_id]
            numbers = self.item_number
            positions = self._positions[state_id] = {
                numbers[node]: node
                for node in range(first, first + len(self._states[state_id].items))
            }
        return positions

    def id_of(self, state_id: int, item: Item) -> int:
        """The id of ``(state_id, item)``; ``KeyError`` if the state lacks *item*."""
        return self._position(state_id)[
            self.offsets[item.production.index] + item.dot
        ]

    def pair(self, node: int) -> tuple[int, Item]:
        """The ``(state id, item)`` pair of *node*."""
        return self.state_of[node], self.item_of[node]

    def pairs(self, nodes) -> tuple[tuple[int, Item], ...]:
        """The ``(state id, item)`` pairs of a sequence of ids."""
        state_of, item_of = self.state_of, self.item_of
        return tuple((state_of[node], item_of[node]) for node in nodes)

    # ------------------------------------------------------------------ #
    # Edges, built on first use

    def transition(self, node: int) -> int:
        """The id reached by shifting *node*'s next symbol, ``-1`` at the end."""
        target = self._transition[node]
        if target is None:
            symbol = self.next_symbol[node]
            target = -1
            if symbol is not None:
                goto = self._states[self.state_of[node]].transitions.get(symbol)
                if goto is not None:
                    target = self._position(goto.id).get(self.item_number[node] + 1, -1)
            self._transition[node] = target
        return target

    def production_steps(self, node: int) -> tuple[int, ...]:
        """Ids of ``B -> . γ`` in *node*'s state, for *node* = ``A -> α . B β``."""
        steps = self._steps[node]
        if steps is None:
            symbol = self.next_symbol[node]
            steps = ()
            if symbol is not None and symbol.is_nonterminal:
                position = self._position(self.state_of[node])
                offsets = self.offsets
                steps = tuple(
                    position[offsets[production.index]]
                    for production in self._grammar.productions_of(symbol)
                )
            self._steps[node] = steps
        return steps

    def production_parents(self, node: int) -> tuple[int, ...]:
        """Ids of the items of *node*'s state that step into *node* (dot-0 only)."""
        parents = self._parents[node]
        if parents is None:
            parents = ()
            if self.at_start[node]:
                lhs = self.item_of[node].production.lhs
                state_id = self.state_of[node]
                first = self.base[state_id]
                next_symbol = self.next_symbol
                parents = tuple(
                    parent
                    for parent in range(
                        first, first + len(self._states[state_id].items)
                    )
                    if next_symbol[parent] is lhs
                )
            self._parents[node] = parents
        return parents

    def reverse_transitions(
        self, node: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(predecessor state ids, retreated-item ids)``, aligned.

        The first tuple holds the ids of the states with an X-edge into
        *node*'s state, in ``lr0.predecessors`` order, for *node* =
        ``A -> α X . β``; the second holds the id of ``A -> α . X β`` in
        each of those states, or ``-1`` where the state lacks it. Both
        are empty for dot-0 items.
        """
        reverse = self._reverse[node]
        if reverse is None:
            reverse = ((), ())
            if not self.at_start[node]:
                item = self.item_of[node]
                symbol = item.production.rhs[item.dot - 1]
                preds = tuple(
                    pred.id
                    for pred in self._predecessors[self.state_of[node]].get(symbol, ())
                )
                number = self.item_number[node] - 1
                reverse = (
                    preds,
                    tuple(self._position(pred).get(number, -1) for pred in preds),
                )
            self._reverse[node] = reverse
        return reverse

