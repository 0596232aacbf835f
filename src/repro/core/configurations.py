"""Search configurations for the unifying-counterexample search (§5.3).

A :class:`Configuration` carries, for each of the two simulated parsers,

* a sequence of **state-items** — ``(state, item)`` pairs forming a path
  of transition and production-step edges in the parser, with completed
  productions already folded away (paper Figure 8), held as the dense
  ids of the automaton's :class:`~repro.automaton.index.StateItemIndex`
  packed into one int (see :func:`pack`); and
* a sequence of **partial derivations** aligned with the transition edges
  of that path, containing exactly one conflict-dot marker until the fold
  that completes the conflict item absorbs it.

Parser 1 owns the conflict's reduce item; parser 2 owns the shift item
(or the second reduce item). The invariant maintained throughout is that
the *heads* of the two sequences lie in the same parser state: the input
prefix up to the conflict point is common to both parses.

:class:`SuccessorGenerator` implements the successor configurations of
Figure 10:

* joint forward **transition** (10a) — both parsers consume a symbol;
* forward **production step** on one parser (10b);
* joint **reverse transition** (10c) — prepend one symbol to the common
  prefix, constrained during stage 1 to items whose lookahead sets
  contain the conflict terminal;
* **reverse production step** on one parser (10d, 10e);
* **reduction** on one parser (10f) — fold the last ``len(rhs)+1``
  state-items and wrap the matching derivations into a node.

Every move reads per-id edges the index builds on first use, and the
per-id lookahead masks of
:attr:`~repro.automaton.lalr.LALRAutomaton.masks_by_id`. What a move
would otherwise rebuild for every successor — leaf derivations, the
viable-symbol set, move labels — is made once per generator.
"""

from __future__ import annotations

from typing import Iterator

from repro.automaton.conflicts import Conflict
from repro.automaton.index import StateItemIndex
from repro.automaton.lalr import LALRAutomaton
from repro.core.derivation import DOT, Derivation, dleaf
from repro.grammar import Symbol

# Action costs (used by the Dijkstra-style search in repro.core.search).
# Production steps are deliberately expensive relative to transitions and
# reductions: §5.4's third observation notes that production steps can be
# taken repeatedly within one state (e.g. left-recursive items), so the
# search "imposes different costs on different kinds of actions" to
# postpone such expansions. The same ratio is used by GNU Bison's
# implementation of this algorithm. Costs must be positive integers: the
# search files configurations in one bucket per total cost.
COST_TRANSITION = 1
COST_PRODUCTION_STEP = 50
COST_REVERSE_TRANSITION = 1
COST_REVERSE_PRODUCTION_STEP = 50
COST_REDUCTION = 1

# ``Configuration.flags`` packs the stage bookkeeping into one int:
# bit 0 is "the conflict terminal has been shifted", bits 1-31 hold one
# plus the position of parser 1's conflict item in its sequence and
# bits 32 and up the same for parser 2 (0 once that item is folded).
_SHIFTED = 1
_UNIT1 = 2
_MASK1 = 0xFFFF_FFFE
_UNIT2 = 1 << 32
_INITIAL_FLAGS = _UNIT1 | _UNIT2
#: Flag bits that stay set while either conflict item is unfolded.
UNFOLDED = _MASK1 | -_UNIT2

# An item sequence is one int: ``width`` bits per entry, the last entry
# in the low bits, each entry stored as ``id + 1``. The leading digit is
# never zero, so a sequence of ``n`` entries is at least
# ``1 << width * (n - 1)`` and its length follows from ``bit_length``.
# A search keeps every configuration it enqueues, and a packed sequence
# takes a third of the bytes of a tuple of the same ids.


def sequence_width(index: StateItemIndex) -> int:
    """Bits per packed entry for the ids of *index*."""
    return max(1, len(index).bit_length())


def pack(ids, width: int) -> int:
    """The packed sequence of *ids*, first id in the high bits."""
    sequence = 0
    for node in ids:
        sequence = (sequence << width) | (node + 1)
    return sequence


def unpack(sequence: int, width: int) -> tuple[int, ...]:
    """The ids of a packed sequence, first to last."""
    digit = (1 << width) - 1
    ids: list[int] = []
    while sequence:
        ids.append((sequence & digit) - 1)
        sequence >>= width
    return tuple(reversed(ids))


#: ``SuccessorGenerator.successors`` move selectors: forward and reverse
#: production steps, every other move, or both.
STEP_MOVES = 1
OTHER_MOVES = 2
ALL_MOVES = STEP_MOVES | OTHER_MOVES


class Configuration:
    """One search state of the product-parser simulation.

    ``items1``/``items2`` are packed item sequences (:func:`pack`).
    :attr:`flags` holds the positions of the original conflict items
    within them (they shift right as symbols are prepended), cleared
    once the reduction folding that item has been performed — which is
    exactly the completion of stage 1 (stage 2 for the second parser) —
    and whether the conflict terminal has been shifted.

    A configuration is its own deduplication key: it hashes and compares
    on its item sequences and flags, not its derivations (those are
    determined by the cheapest path to it).
    """

    __slots__ = ("items1", "items2", "derivs1", "derivs2", "flags")

    def __init__(
        self,
        items1: int,
        items2: int,
        derivs1: tuple[Derivation, ...],
        derivs2: tuple[Derivation, ...],
        flags: int = _INITIAL_FLAGS,
    ) -> None:
        self.items1 = items1
        self.items2 = items2
        self.derivs1 = derivs1
        self.derivs2 = derivs2
        self.flags = flags

    def __hash__(self) -> int:
        return hash((self.items1, self.items2, self.flags))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Configuration)
            and self.flags == other.flags
            and self.items1 == other.items1
            and self.items2 == other.items2
        )

    @property
    def shifted(self) -> bool:
        return bool(self.flags & _SHIFTED)

    @property
    def complete1(self) -> bool:
        """Stage 1 done: the conflict reduce item has been folded."""
        return not self.flags & _MASK1

    @property
    def complete2(self) -> bool:
        """Stage 2 done: the other conflict item has been folded."""
        return self.flags < _UNIT2


def initial_configuration(
    index: StateItemIndex, conflict: Conflict
) -> Configuration:
    """The paper's Figure 8(b): singleton item sequences, dot-only derivations."""
    width = sequence_width(index)
    return Configuration(
        pack((index.id_of(conflict.state_id, conflict.reduce_item),), width),
        pack((index.id_of(conflict.state_id, conflict.other_item),), width),
        (DOT,),
        (DOT,),
    )


def _integer_cost(value: float) -> int:
    cost = int(value)
    if cost != value or cost < 1:
        raise ValueError(
            f"search action costs must be positive integers, got {value!r}"
        )
    return cost


class SuccessorGenerator:
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
        self.conflict = conflict
        self.allowed_prepend_states = allowed_prepend_states
        self.index = index = automaton.lr0.index
        #: bits per entry of a packed item sequence
        self.width = sequence_width(index)
        self._digit = (1 << self.width) - 1
        self._masks = automaton.masks_by_id
        self._terminal = conflict.terminal
        self._terminal_bit = automaton.terminal_bit(conflict.terminal)
        self._shift_reduce = conflict.is_shift_reduce
        self._costs = (
            _integer_cost(COST_REDUCTION),
            _integer_cost(COST_TRANSITION),
            _integer_cost(COST_PRODUCTION_STEP),
            _integer_cost(COST_REVERSE_PRODUCTION_STEP),
            _integer_cost(COST_REVERSE_TRANSITION),
        )
        #: Largest single-move cost: the search's bucket look-ahead.
        self.max_move_cost = max(self._costs)
        #: Cost of the moves other than production steps, at most.
        self.other_cost = max(self._costs[0], self._costs[1], self._costs[4])
        #: The one cost of forward and reverse production steps when it
        #: exceeds every other move's (the search defers them), else None.
        self.step_cost = (
            self._costs[2]
            if self._costs[2] == self._costs[3] > self.other_cost
            else None
        )
        #: symbol -> one-bit mask, for FIRST-symbol set intersections.
        self._symbol_bits: dict[Symbol, int] = {}
        self._terminal_symbol_bit = self._symbol_bit(conflict.terminal)
        #: item number -> (FIRST symbols of rhs[dot:] as a mask, nullable)
        self._tails: list[tuple[int, bool] | None] = [None] * len(index.productions)
        #: symbol -> its unexpanded leaf derivation
        self._leaves: dict[Symbol, Derivation] = {}
        #: flags value -> one shared int object (most flags need two digits)
        self._flag_values: dict[int, int] = {}
        #: parent id -> whether a stage-1 reverse production step may take it
        self._step_allowed: dict[int, bool] = {}

    def initial(self) -> Configuration:
        """The search's starting configuration (Figure 8(b))."""
        return initial_configuration(self.index, self.conflict)

    def length(self, sequence: int) -> int:
        """The number of entries in a packed item sequence."""
        return (sequence.bit_length() + self.width - 1) // self.width

    def ids(self, sequence: int) -> tuple[int, ...]:
        """The state-item ids of a packed item sequence, first to last."""
        return unpack(sequence, self.width)

    def _symbol_bit(self, symbol: Symbol) -> int:
        bit = self._symbol_bits.get(symbol)
        if bit is None:
            bit = self._symbol_bits[symbol] = 1 << len(self._symbol_bits)
        return bit

    def _tail(self, number: int) -> tuple[int, bool]:
        """FIRST symbols (as a mask) and nullability of an item's tail."""
        parts = self._tails[number]
        if parts is None:
            production = self.index.productions[number]
            dot = number - self.index.offsets[production.index]
            symbols, nullable = self.automaton.analysis.first_symbols_of_sequence(
                production.rhs[dot:]
            )
            mask = 0
            for symbol in symbols:
                mask |= self._symbol_bit(symbol)
            parts = self._tails[number] = (mask, nullable)
        return parts

    def _leaf(self, symbol: Symbol) -> Derivation:
        leaf = self._leaves.get(symbol)
        if leaf is None:
            leaf = self._leaves[symbol] = dleaf(symbol)
        return leaf

    # ------------------------------------------------------------------ #

    def successors(
        self, config: Configuration, moves: int = ALL_MOVES
    ) -> Iterator[tuple[str, int, Configuration]]:
        """Yield ``(action label, cost, successor)`` triples.

        Order is fixed — reductions (parser 1, then 2), the joint
        transition, production steps (parser 1, then 2, in declaration
        order), reverse production steps (parser 1, then 2), reverse
        transitions in predecessor order — because the search breaks
        cost ties first-in first-out. *moves* selects
        :data:`STEP_MOVES` (forward and reverse production steps),
        :data:`OTHER_MOVES` (the rest) or both.
        """
        index = self.index
        masks = self._masks
        terminal_bit = self._terminal_bit
        reduce_arity = index.reduce_arity
        next_symbol = index.next_symbol
        cost_reduction, cost_transition, cost_step, cost_revstep, cost_revtrans = (
            self._costs
        )
        same_flags = self._flag_values.setdefault
        width = self.width
        digit = self._digit
        items1 = config.items1
        items2 = config.items2
        flags = config.flags
        shifted = flags & _SHIFTED
        last1 = (items1 & digit) - 1
        last2 = (items2 & digit) - 1
        arity1 = reduce_arity[last1]
        arity2 = reduce_arity[last2]
        # A reduce item on top is complete when the sequence holds its
        # whole dot-walk and the parent item before it: `arity + 2`
        # entries, i.e. anything left after dropping `arity + 1`.
        folds1 = arity1 >= 0 and items1 >> width * (arity1 + 1)
        folds2 = arity2 >= 0 and items2 >> width * (arity2 + 1)
        steps = moves & STEP_MOVES
        others = moves & OTHER_MOVES

        # Reductions (Figure 10(f)). Before the conflict terminal has
        # been shifted, a reduction is only valid if the conflict
        # terminal is in the reduce item's lookahead set (it is the next
        # input symbol at that point).
        if others and folds1:
            if shifted or masks[last1] & terminal_bit:
                successor = self._reduce(config, 1, arity1)
                if successor is not None:
                    yield "reduce1", cost_reduction, successor
        if others and folds2:
            if shifted or masks[last2] & terminal_bit:
                successor = self._reduce(config, 2, arity2)
                if successor is not None:
                    yield "reduce2", cost_reduction, successor

        # Joint forward transition (Figure 10(a)). The first symbol
        # after the conflict point must be the conflict terminal,
        # otherwise the example would not exhibit this conflict.
        symbol1 = next_symbol[last1]
        symbol2 = next_symbol[last2]
        if (
            others
            and symbol1 is not None
            and symbol1 is symbol2
            and (shifted or symbol1 is self._terminal)
        ):
            transition = index.transition
            target1 = transition(last1)
            target2 = transition(last2)
            if target1 >= 0 and target2 >= 0:
                leaf = self._leaf(symbol1)
                shifted_flags = flags | _SHIFTED
                yield "transition", cost_transition, Configuration(
                    (items1 << width) | (target1 + 1),
                    (items2 << width) | (target2 + 1),
                    config.derivs1 + (leaf,),
                    config.derivs2 + (leaf,),
                    same_flags(shifted_flags, shifted_flags),
                )

        # Forward production steps (Figure 10(b)), kept only when the
        # stepped-into production can begin with a symbol the other
        # parser may accept next, or can vanish.
        if steps and (symbol1 is not None or symbol2 is not None):
            steps_of = index.production_steps
            steps1 = steps_of(last1) if symbol1 is not None else ()
            steps2 = steps_of(last2) if symbol2 is not None else ()
            if steps1 or steps2:
                item_number = index.item_number
                tails = self._tails
                tail = self._tail
                for parser, step_ids, other, other_arity in (
                    (1, steps1, last2, arity2),
                    (2, steps2, last1, arity1),
                ):
                    if not step_ids:
                        continue
                    viable = self._viable(shifted, other, other_arity)
                    for step in step_ids:
                        if viable is not None:
                            number = item_number[step]
                            first, nullable = tails[number] or tail(number)
                            if not nullable and not viable & first:
                                continue
                        if parser == 1:
                            yield "prod1", cost_step, Configuration(
                                (items1 << width) | (step + 1),
                                items2,
                                config.derivs1,
                                config.derivs2,
                                flags,
                            )
                        else:
                            yield "prod2", cost_step, Configuration(
                                items1,
                                (items2 << width) | (step + 1),
                                config.derivs1,
                                config.derivs2,
                                flags,
                            )

        # Reverse moves (Figure 10(c)-(e)): only while a reduce item on
        # top still lacks the symbols before its dot.
        if not ((arity1 >= 0 and not folds1) or (arity2 >= 0 and not folds2)):
            return
        # `top` shifts a new first entry past the existing ones.
        top1 = (items1.bit_length() + width - 1) // width * width
        top2 = (items2.bit_length() + width - 1) // width * width
        head1 = (items1 >> top1 - width) - 1
        head2 = (items2 >> top2 - width) - 1
        at_start = index.at_start
        start1 = at_start[head1]
        start2 = at_start[head2]

        # Reverse production steps lift a dot-0 head to its parent item
        # in the same state (Figure 10(d)/(e)).
        if steps and start1:
            free = not flags & _MASK1
            prepended = flags + _UNIT1 if not free else flags
            prepended = same_flags(prepended, prepended)
            for parent in index.production_parents(head1):
                if free or self._reverse_step_allowed(parent):
                    yield "revprod1", cost_revstep, Configuration(
                        ((parent + 1) << top1) | items1,
                        items2,
                        config.derivs1,
                        config.derivs2,
                        prepended,
                    )
        if steps and start2:
            free = flags < _UNIT2 or self._shift_reduce
            prepended = flags + _UNIT2 if flags >= _UNIT2 else flags
            prepended = same_flags(prepended, prepended)
            for parent in index.production_parents(head2):
                if free or self._reverse_step_allowed(parent):
                    yield "revprod2", cost_revstep, Configuration(
                        items1,
                        ((parent + 1) << top2) | items2,
                        config.derivs1,
                        config.derivs2,
                        prepended,
                    )

        # Joint reverse transitions prepend one symbol to the common
        # prefix (Figure 10(c)). Both heads must have the dot past 0; all
        # dot>0 items of a state share the same previous symbol, so the
        # two heads agree on the symbol and on the predecessor states.
        if not others or start1 or start2:
            return
        predecessors, retreats1 = index.reverse_transitions(head1)
        _, retreats2 = index.reverse_transitions(head2)
        check1 = bool(flags & _MASK1)
        check2 = flags >= _UNIT2 and not self._shift_reduce
        prepended = flags
        if flags & _MASK1:
            prepended += _UNIT1
        if flags >= _UNIT2:
            prepended += _UNIT2
        prepended = same_flags(prepended, prepended)
        allowed = self.allowed_prepend_states
        leaf = None
        for pred_id, retreat1, retreat2 in zip(predecessors, retreats1, retreats2):
            if allowed is not None and pred_id not in allowed:
                continue
            if retreat1 < 0 or retreat2 < 0:
                continue
            if check1 and not masks[retreat1] & terminal_bit:
                continue
            if check2 and not masks[retreat2] & terminal_bit:
                continue
            if leaf is None:
                leaf = self._leaf(next_symbol[retreat1])
            yield "revtransition", cost_revtrans, Configuration(
                ((retreat1 + 1) << top1) | items1,
                ((retreat2 + 1) << top2) | items2,
                (leaf,) + config.derivs1,
                (leaf,) + config.derivs2,
                prepended,
            )

    # ------------------------------------------------------------------ #

    def _reduce(
        self, config: Configuration, parser: int, arity: int
    ) -> Configuration | None:
        """Fold the top ``arity + 1`` state-items of *parser* (Figure 10(f))."""
        index = self.index
        if parser == 1:
            items, derivs = config.items1, config.derivs1
            conflict_index = ((config.flags & _MASK1) >> 1) - 1
        else:
            items, derivs = config.items2, config.derivs2
            conflict_index = (config.flags >> 32) - 1

        width = self.width
        digit = self._digit
        production = index.item_of[(items & digit) - 1].production
        kept = items >> width * (arity + 1)
        parent = (kept & digit) - 1
        if index.next_symbol[parent] is not production.lhs:
            return None
        goto = index.transition(parent)
        if goto < 0:
            return None
        new_items = (kept << width) | (goto + 1)
        length = (items.bit_length() + width - 1) // width

        # Does this fold remove the original conflict item? The fold pops
        # the last `arity + 1` entries (the production's dot-walk), so it
        # covers the conflict item iff its index lies in that range. This
        # is exactly the completion of the paper's stage 1 (stage 2 for
        # parser 2).
        covers_conflict = conflict_index >= length - (arity + 1)

        # Fold the derivations: take entries from the end until `arity`
        # non-dot derivations are collected; the dot marker lands among
        # them when the folded production spans the conflict point.
        cut = len(derivs)
        collected = 0
        while collected < arity:
            cut -= 1
            if derivs[cut].symbol is not None:
                collected += 1
        children = list(derivs[cut:])

        if covers_conflict and not any(child.symbol is None for child in children):
            # The conflict item's dot sits at the left boundary of the
            # collected span (dot position 0, e.g. an epsilon reduce item
            # or a shift item with nothing before its dot); pull the
            # top-level dot marker into the node so the conflict point
            # stays visible inside the derivation.
            if cut > 0 and derivs[cut - 1].symbol is None:
                cut -= 1
                children.insert(0, DOT)

        node = Derivation(production.lhs, tuple(children), production)
        new_derivs = derivs[:cut] + (node,)

        flags = config.flags
        if covers_conflict:
            flags &= ~_MASK1 if parser == 1 else _UNIT2 - 1
            flags = self._flag_values.setdefault(flags, flags)
        if parser == 1:
            return Configuration(
                new_items, config.items2, new_derivs, config.derivs2, flags
            )
        return Configuration(
            config.items1, new_items, config.derivs1, new_derivs, flags
        )

    def _viable(self, shifted: int, other: int, other_arity: int) -> int | None:
        """Symbols the *other* parser could accept on the next joint transition.

        A mask over grammar symbols; ``None`` means unconstrained (the
        other parser is about to reduce into an unknown context). Before
        the conflict terminal has been shifted, the next joint transition
        must be on it, so the set is exactly the conflict terminal.
        """
        if not shifted:
            return self._terminal_symbol_bit
        if other_arity >= 0:
            return None
        number = self.index.item_number[other]
        symbols, nullable = self._tails[number] or self._tail(number)
        if nullable:
            return None  # the other parser may finish this production entirely
        return symbols

    def _reverse_step_allowed(self, parent: int) -> bool:
        """Stage-1 lookahead discipline for reverse production steps.

        While a parser's conflict item is not yet completed, the parent
        item chosen must allow the conflict terminal to follow the
        completed production (its precise follow set must contain it).
        Parser 2's side is only constrained for reduce/reduce conflicts —
        a shift item carries the conflict terminal itself. The caller
        skips this test where it does not apply.
        """
        allowed = self._step_allowed.get(parent)
        if allowed is None:
            # precise_follow = FIRST(β) ∪ (context if β nullable), evaluated
            # as masks via the automaton's memoized follow parts.
            item = self.index.item_of[parent]
            first_mask, nullable = self.automaton.follow_parts(
                item.production, item.dot
            )
            allowed = self._step_allowed[parent] = bool(
                first_mask & self._terminal_bit
                or (nullable and self._masks[parent] & self._terminal_bit)
            )
        return allowed
