"""Reference unifying search: the ``(state, Item)``-tuple generator and heap.

The oracle for :mod:`repro.core.configurations` and
:mod:`repro.core.search`, which run the same moves over the dense
``(state, item)`` ids of :class:`~repro.automaton.index.StateItemIndex`
and pop configurations from a bucket queue. This is the search as it
was written against the paper's Figure 10 before that: item sequences
of ``(state id, Item)`` pairs, a ``(cost, counter, configuration)``
binary heap and a key tuple per configuration. Same moves in the same
order, same costs, same acceptance test.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from repro.automaton.conflicts import Conflict
from repro.automaton.items import Item
from repro.automaton.lalr import LALRAutomaton
from repro.core.derivation import DOT, Derivation, dleaf
from repro.grammar import Nonterminal, Production, Symbol

#: A position in the parser: (state id, item).
StateItem = tuple[int, Item]

# Action costs (used by the Dijkstra-style search in repro.core.search).
# Production steps are deliberately expensive relative to transitions and
# reductions: §5.4's third observation notes that production steps can be
# taken repeatedly within one state (e.g. left-recursive items), so the
# search "imposes different costs on different kinds of actions" to
# postpone such expansions. The same ratio is used by GNU Bison's
# implementation of this algorithm.
COST_TRANSITION = 1.0
COST_PRODUCTION_STEP = 50.0
COST_REVERSE_TRANSITION = 1.0
COST_REVERSE_PRODUCTION_STEP = 50.0
COST_REDUCTION = 1.0


@dataclass(frozen=True, slots=True)
class ReferenceConfiguration:
    """One search state of the product-parser simulation.

    ``conflict1``/``conflict2`` are the positions of the original conflict
    items within ``items1``/``items2`` (they shift right as symbols are
    prepended), or ``-1`` once the reduction folding that item has been
    performed — which is exactly the completion of stage 1 (stage 2 for
    the second parser).
    """

    items1: tuple[StateItem, ...]
    items2: tuple[StateItem, ...]
    derivs1: tuple[Derivation, ...]
    derivs2: tuple[Derivation, ...]
    conflict1: int = 0
    conflict2: int = 0
    shifted: bool = False

    @property
    def complete1(self) -> bool:
        """Stage 1 done: the conflict reduce item has been folded."""
        return self.conflict1 < 0

    @property
    def complete2(self) -> bool:
        """Stage 2 done: the other conflict item has been folded."""
        return self.conflict2 < 0

    def key(self) -> tuple:
        """Deduplication key: derivations are determined by the cheapest path."""
        return (
            self.items1,
            self.items2,
            self.conflict1,
            self.conflict2,
            self.shifted,
        )

    def head_state(self) -> int:
        return self.items1[0][0]

    def __str__(self) -> str:
        def side(items: tuple[StateItem, ...], derivs: tuple[Derivation, ...]) -> str:
            item_text = " ; ".join(f"{s}:{itm}" for s, itm in items)
            deriv_text = " ".join(d.render() for d in derivs)
            return f"[{item_text}] / [{deriv_text}]"

        return (
            f"Config(1: {side(self.items1, self.derivs1)}\n"
            f"       2: {side(self.items2, self.derivs2)}\n"
            f"       complete1={self.complete1} complete2={self.complete2} "
            f"shifted={self.shifted})"
        )


def initial_configuration(conflict: Conflict) -> ReferenceConfiguration:
    """The paper's Figure 8(b): singleton item sequences, dot-only derivations."""
    return ReferenceConfiguration(
        items1=((conflict.state_id, conflict.reduce_item),),
        items2=((conflict.state_id, conflict.other_item),),
        derivs1=(DOT,),
        derivs2=(DOT,),
    )


class ReferenceSuccessorGenerator:
    """Computes successor configurations over a given automaton and conflict."""

    def __init__(
        self,
        automaton: LALRAutomaton,
        conflict: Conflict,
        allowed_prepend_states: frozenset[int] | None = None,
    ) -> None:
        """
        Args:
            automaton: The LALR automaton.
            conflict: The conflict being explained.
            allowed_prepend_states: States usable as reverse-transition
                targets; ``None`` allows every state (the paper's
                ``-extendedsearch``), otherwise pass the states of the
                shortest lookahead-sensitive path (§6 tradeoff).
        """
        self.automaton = automaton
        self.analysis = automaton.analysis
        self.grammar = automaton.grammar
        self.lookups = automaton.lookups
        self.conflict = conflict
        self.allowed_prepend_states = allowed_prepend_states
        # Hot-path state, hoisted once per conflict: the successor methods
        # run for every explored configuration, so attribute chains,
        # Symbol-keyed dict probes, and set-based lookahead membership
        # tests are replaced by flat arrays and int masks.
        self._states = automaton.lr0.states
        self._arrays = automaton.lr0.arrays
        self._masks = automaton.lookahead_masks
        self._terminal_bit = automaton.terminal_bit(conflict.terminal)
        #: (production index, dot) -> FIRST symbols of rhs[dot:] + nullable.
        self._tail_first: dict[tuple[int, int], tuple[frozenset[Symbol], bool]] = {}

    def _first_of_tail(self, production: Production, dot: int):
        """Memoized ``first_symbols_of_sequence(production.rhs[dot:])``."""
        key = (production.index, dot)
        cached = self._tail_first.get(key)
        if cached is None:
            cached = self.analysis.first_symbols_of_sequence(production.rhs[dot:])
            self._tail_first[key] = cached
        return cached

    # ------------------------------------------------------------------ #

    def successors(
        self, config: ReferenceConfiguration
    ) -> Iterator[tuple[str, float, ReferenceConfiguration]]:
        """Yield ``(action label, cost, successor)`` triples."""
        yield from self._reductions(config)
        yield from self._forward_transitions(config)
        yield from self._forward_production_steps(config)
        yield from self._reverse_moves(config)

    # ------------------------------------------------------------------ #
    # Reductions (Figure 10(f))

    def _reductions(
        self, config: ReferenceConfiguration
    ) -> Iterator[tuple[str, float, ReferenceConfiguration]]:
        for parser in (1, 2):
            items = config.items1 if parser == 1 else config.items2
            state_id, item = items[-1]
            if not item.at_end:
                continue
            arity = len(item.production.rhs)
            if len(items) < arity + 2:
                continue  # needs reverse moves first
            # Stage discipline: before the conflict terminal has been
            # shifted, a reduction is only valid if the conflict terminal
            # is in the reduce item's lookahead set (it is the next input
            # symbol at that point).
            if not config.shifted:
                if not self._masks[(state_id, item)] & self._terminal_bit:
                    continue
            successor = self._reduce(config, parser)
            if successor is not None:
                yield (f"reduce{parser}", COST_REDUCTION, successor)

    def _reduce(self, config: ReferenceConfiguration, parser: int) -> ReferenceConfiguration | None:
        items = config.items1 if parser == 1 else config.items2
        derivs = config.derivs1 if parser == 1 else config.derivs2
        conflict_index = config.conflict1 if parser == 1 else config.conflict2

        state_id, item = items[-1]
        production = item.production
        arity = len(production.rhs)

        parent_state_id, parent_item = items[-(arity + 2)]
        if parent_item.next_symbol != production.lhs:
            return None
        goto_id = self._arrays.goto_id(parent_state_id, production.lhs)
        if goto_id < 0:
            return None

        new_items = items[: -(arity + 1)] + ((goto_id, parent_item.advance()),)

        # Does this fold remove the original conflict item? The fold pops
        # the last `arity + 1` entries (the production's dot-walk), so it
        # covers the conflict item iff its index lies in that range. This
        # is exactly the completion of the paper's stage 1 (stage 2 for
        # parser 2).
        covers_conflict = conflict_index >= len(items) - (arity + 1)

        # Fold the derivations: take entries from the end until `arity`
        # non-dot derivations are collected; the dot marker lands among
        # them when the folded production spans the conflict point.
        cut = len(derivs)
        collected = 0
        while collected < arity:
            cut -= 1
            if not derivs[cut].is_dot:
                collected += 1
        children = list(derivs[cut:])

        if covers_conflict and not any(child.is_dot for child in children):
            # The conflict item's dot sits at the left boundary of the
            # collected span (dot position 0, e.g. an epsilon reduce item
            # or a shift item with nothing before its dot); pull the
            # top-level dot marker into the node so the conflict point
            # stays visible inside the derivation.
            if cut > 0 and derivs[cut - 1].is_dot:
                cut -= 1
                children.insert(0, DOT)

        node = Derivation(production.lhs, tuple(children), production)
        new_derivs = derivs[:cut] + (node,)

        new_conflict_index = -1 if covers_conflict else conflict_index
        if parser == 1:
            return ReferenceConfiguration(
                new_items,
                config.items2,
                new_derivs,
                config.derivs2,
                new_conflict_index,
                config.conflict2,
                config.shifted,
            )
        return ReferenceConfiguration(
            config.items1,
            new_items,
            config.derivs1,
            new_derivs,
            config.conflict1,
            new_conflict_index,
            config.shifted,
        )

    # ------------------------------------------------------------------ #
    # Joint forward transitions (Figure 10(a))

    def _forward_transitions(
        self, config: ReferenceConfiguration
    ) -> Iterator[tuple[str, float, ReferenceConfiguration]]:
        state1, item1 = config.items1[-1]
        state2, item2 = config.items2[-1]
        symbol = item1.next_symbol
        if symbol is None or symbol != item2.next_symbol:
            return
        if not config.shifted and symbol != self.conflict.terminal:
            # The first symbol after the conflict point must be the
            # conflict terminal, otherwise the example would not exhibit
            # this conflict.
            return
        arrays = self._arrays
        code = arrays.code.get(symbol)
        if code is None:
            return
        stride, goto_flat = arrays.stride, arrays.goto_flat
        target1 = goto_flat[state1 * stride + code]
        target2 = goto_flat[state2 * stride + code]
        if target1 < 0 or target2 < 0:
            return
        leaf = dleaf(symbol)
        yield (
            "transition",
            COST_TRANSITION,
            ReferenceConfiguration(
                config.items1 + ((target1, item1.advance()),),
                config.items2 + ((target2, item2.advance()),),
                config.derivs1 + (leaf,),
                config.derivs2 + (leaf,),
                config.conflict1,
                config.conflict2,
                True,
            ),
        )

    # ------------------------------------------------------------------ #
    # Forward production steps (Figure 10(b))

    def _forward_production_steps(
        self, config: ReferenceConfiguration
    ) -> Iterator[tuple[str, float, ReferenceConfiguration]]:
        for parser in (1, 2):
            items = config.items1 if parser == 1 else config.items2
            other_items = config.items2 if parser == 1 else config.items1
            state_id, item = items[-1]
            symbol = item.next_symbol
            if symbol is None or not symbol.is_nonterminal:
                continue
            assert isinstance(symbol, Nonterminal)
            viable = self._viable_next_symbols(config, other_items)
            for production in self.grammar.productions_of(symbol):
                if not self._step_is_matchable(production, viable):
                    continue
                new_entry = (state_id, Item(production, 0))
                if parser == 1:
                    successor = ReferenceConfiguration(
                        items + (new_entry,),
                        config.items2,
                        config.derivs1,
                        config.derivs2,
                        config.conflict1,
                        config.conflict2,
                        config.shifted,
                    )
                else:
                    successor = ReferenceConfiguration(
                        config.items1,
                        items + (new_entry,),
                        config.derivs1,
                        config.derivs2,
                        config.conflict1,
                        config.conflict2,
                        config.shifted,
                    )
                yield (f"prod{parser}", COST_PRODUCTION_STEP, successor)

    def _viable_next_symbols(
        self, config: ReferenceConfiguration, other_items: tuple[StateItem, ...]
    ) -> frozenset[Symbol] | None:
        """Symbols the *other* parser could accept on the next joint transition.

        ``None`` means unconstrained (the other parser is about to reduce
        into an unknown context). Before the conflict terminal has been
        shifted, the next joint transition must be on it, so the set is
        exactly the conflict terminal.
        """
        if not config.shifted:
            return frozenset({self.conflict.terminal})
        _, other_item = other_items[-1]
        if other_item.at_end:
            return None
        symbols, nullable = self._first_of_tail(other_item.production, other_item.dot)
        if nullable:
            return None  # the other parser may finish this production entirely
        return symbols

    def _step_is_matchable(
        self, production: Production, viable: frozenset[Symbol] | None
    ) -> bool:
        """Whether stepping into *production* can lead to a matchable transition.

        The step is useful only if the production can begin with a symbol
        the other parser may accept, or can vanish entirely (nullable),
        letting its parent continue.
        """
        if viable is None:
            return True
        first, nullable = self._first_of_tail(production, 0)
        return nullable or not viable.isdisjoint(first)

    # ------------------------------------------------------------------ #
    # Reverse moves (Figure 10(c)-(e))

    def _needs_prepend(self, items: tuple[StateItem, ...]) -> bool:
        _, item = items[-1]
        return item.at_end and len(items) < len(item.production.rhs) + 2

    def _reverse_moves(
        self, config: ReferenceConfiguration
    ) -> Iterator[tuple[str, float, ReferenceConfiguration]]:
        needs1 = self._needs_prepend(config.items1)
        needs2 = self._needs_prepend(config.items2)
        if not (needs1 or needs2):
            return

        head_state_id, head1 = config.items1[0]
        _, head2 = config.items2[0]
        head_state = self.automaton.states[head_state_id]

        # Reverse production steps lift a dot-0 head to its parent item in
        # the same state (Figure 10(d)/(e)).
        for parser, head in ((1, head1), (2, head2)):
            if not head.at_start:
                continue
            for parent in self.lookups.reverse_production_steps(head_state, head):
                if not self._reverse_step_allowed(parser, head_state_id, parent, config):
                    continue
                entry = (head_state_id, parent)
                if parser == 1:
                    successor = ReferenceConfiguration(
                        (entry,) + config.items1,
                        config.items2,
                        config.derivs1,
                        config.derivs2,
                        config.conflict1 + 1 if config.conflict1 >= 0 else -1,
                        config.conflict2,
                        config.shifted,
                    )
                else:
                    successor = ReferenceConfiguration(
                        config.items1,
                        (entry,) + config.items2,
                        config.derivs1,
                        config.derivs2,
                        config.conflict1,
                        config.conflict2 + 1 if config.conflict2 >= 0 else -1,
                        config.shifted,
                    )
                yield (f"revprod{parser}", COST_REVERSE_PRODUCTION_STEP, successor)

        # Joint reverse transitions prepend one symbol to the common
        # prefix (Figure 10(c)). Both heads must have the dot past 0; all
        # dot>0 items of a state share the same previous symbol, so the
        # two heads agree on the symbol automatically.
        if head1.at_start or head2.at_start:
            return
        symbol = head1.previous_symbol
        assert symbol is not None and symbol == head2.previous_symbol
        retreat1 = head1.retreat()
        retreat2 = head2.retreat()
        leaf = dleaf(symbol)
        masks = self._masks
        terminal_bit = self._terminal_bit
        check1 = not config.complete1
        check2 = not config.complete2 and not self.conflict.is_shift_reduce
        item_sets = self.lookups.item_sets
        for pred_id in self._arrays.predecessor_ids(head_state_id, symbol):
            if (
                self.allowed_prepend_states is not None
                and pred_id not in self.allowed_prepend_states
            ):
                continue
            item_set = item_sets[pred_id]
            if retreat1 not in item_set or retreat2 not in item_set:
                continue
            if check1 and not masks[(pred_id, retreat1)] & terminal_bit:
                continue
            if check2 and not masks[(pred_id, retreat2)] & terminal_bit:
                continue
            yield (
                "revtransition",
                COST_REVERSE_TRANSITION,
                ReferenceConfiguration(
                    ((pred_id, retreat1),) + config.items1,
                    ((pred_id, retreat2),) + config.items2,
                    (leaf,) + config.derivs1,
                    (leaf,) + config.derivs2,
                    config.conflict1 + 1 if config.conflict1 >= 0 else -1,
                    config.conflict2 + 1 if config.conflict2 >= 0 else -1,
                    config.shifted,
                ),
            )

    def _reverse_step_allowed(
        self,
        parser: int,
        state_id: int,
        parent: Item,
        config: ReferenceConfiguration,
    ) -> bool:
        """Stage-1 lookahead discipline for reverse production steps.

        While the conflict item of *parser* is not yet completed, the
        parent item chosen must allow the conflict terminal to follow the
        completed production (its precise follow set must contain it).
        Parser 2's side is only constrained for reduce/reduce conflicts —
        a shift item carries the conflict terminal itself.
        """
        if parser == 1 and config.complete1:
            return True
        if parser == 2 and (config.complete2 or self.conflict.is_shift_reduce):
            return True
        # precise_follow = FIRST(β) ∪ (context if β nullable), evaluated
        # as masks via the automaton's memoized follow parts.
        first_mask, nullable = self.automaton.follow_parts(
            parent.production, parent.dot
        )
        if first_mask & self._terminal_bit:
            return True
        if not nullable:
            return False
        return bool(self._masks[(state_id, parent)] & self._terminal_bit)


@dataclass
class ReferenceOutcome:
    """What the parity test compares, per conflict."""

    explored: int = 0
    enqueued: int = 0
    exhausted: bool = False
    cost: float | None = None
    derivation1: Derivation | None = None
    derivation2: Derivation | None = None


def _accepts(config: ReferenceConfiguration) -> bool:
    if not (config.complete1 and config.complete2):
        return False
    if len(config.derivs1) != 1 or len(config.derivs2) != 1:
        return False
    if len(config.items1) != 2 or len(config.items2) != 2:
        return False
    derivation1, derivation2 = config.derivs1[0], config.derivs2[0]
    if derivation1.children is None or derivation2.children is None:
        return False
    return derivation1.symbol == derivation2.symbol and derivation1 != derivation2


def reference_search(
    automaton: LALRAutomaton,
    conflict: Conflict,
    allowed_prepend_states: frozenset[int] | None,
    max_configurations: int,
    max_cost: float | None = 5_000.0,
) -> ReferenceOutcome:
    """The heap search, capped at *max_configurations* explored (no clock)."""
    generator = ReferenceSuccessorGenerator(automaton, conflict, allowed_prepend_states)
    outcome = ReferenceOutcome()
    counter = 0
    initial = initial_configuration(conflict)
    frontier: list[tuple[float, int, ReferenceConfiguration]] = [(0.0, counter, initial)]
    best_cost: dict[tuple, float] = {initial.key(): 0.0}
    infinity = float("inf")
    while frontier:
        outcome.explored += 1
        if outcome.explored > max_configurations:
            return outcome
        cost, _, config = heapq.heappop(frontier)
        if cost > best_cost.get(config.key(), infinity):
            continue
        if _accepts(config):
            outcome.cost = cost
            outcome.derivation1 = config.derivs1[0]
            outcome.derivation2 = config.derivs2[0]
            return outcome
        for _label, delta, successor in generator.successors(config):
            new_cost = cost + delta
            if max_cost is not None and new_cost > max_cost:
                continue
            key = successor.key()
            if new_cost < best_cost.get(key, infinity):
                best_cost[key] = new_cost
                counter += 1
                outcome.enqueued += 1
                heapq.heappush(frontier, (new_cost, counter, successor))
    outcome.exhausted = True
    return outcome
