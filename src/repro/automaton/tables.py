"""ACTION/GOTO parse tables with precedence-based conflict resolution.

Table construction follows yacc/CUP conventions:

* a shift/reduce conflict on terminal ``t`` is resolved silently when both
  the production and ``t`` carry precedence: the higher level wins; on a
  tie, left associativity reduces, right associativity shifts, and
  nonassociativity turns the entry into an error;
* anything unresolved becomes a :class:`~repro.automaton.conflicts.Conflict`
  and falls back to the yacc defaults (shift beats reduce; the
  earlier-declared production beats the later one).

:func:`find_conflicts` is the one source of conflicts and of precedence
resolutions; it needs only the lookahead masks, and the automaton caches
its result. The counterexample finder and lint never read the
ACTION/GOTO rows, so :func:`build_tables` runs only for the parsers,
table dumps and the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Union

from repro.automaton.conflicts import Conflict, ConflictKind
from repro.automaton.items import Item
from repro.grammar import (
    END_OF_INPUT,
    Associativity,
    Nonterminal,
    Production,
    Terminal,
)


@dataclass(frozen=True)
class Shift:
    """Shift the terminal and move to ``state_id``."""

    state_id: int


@dataclass(frozen=True)
class Reduce:
    """Reduce by *production*."""

    production: Production


@dataclass(frozen=True)
class Accept:
    """Accept the input."""


@dataclass(frozen=True)
class ErrorAction:
    """An explicit error entry created by a %nonassoc tie."""


Action = Union[Shift, Reduce, Accept, ErrorAction]


@dataclass
class ParseTables:
    """ACTION and GOTO tables plus the unresolved conflicts."""

    action: list[dict[Terminal, Action]]
    goto: list[dict[Nonterminal, int]]
    conflicts: list[Conflict]

    def action_for(self, state_id: int, terminal: Terminal) -> Action | None:
        return self.action[state_id].get(terminal)

    def goto_for(self, state_id: int, nonterminal: Nonterminal) -> int | None:
        return self.goto[state_id].get(nonterminal)


def _resolve_shift_reduce(
    automaton, terminal: Terminal, production: Production
) -> str | None:
    """Apply precedence declarations.

    Returns ``"shift"``, ``"reduce"``, or ``"error"`` when the declarations
    decide the conflict, and ``None`` when they do not.
    """
    precedence = automaton.grammar.precedence
    terminal_level = precedence.level_of(terminal)
    production_level = precedence.production_level(
        production.rhs, production.prec_override
    )
    if terminal_level is None or production_level is None:
        return None
    if production_level.rank > terminal_level.rank:
        return "reduce"
    if production_level.rank < terminal_level.rank:
        return "shift"
    if terminal_level.associativity is Associativity.LEFT:
        return "reduce"
    if terminal_level.associativity is Associativity.RIGHT:
        return "shift"
    return "error"


def reduce_lookaheads(automaton) -> list[tuple[object, list[Item], list[int], int]]:
    """``(state, reduce items, their lookahead masks, shift mask)`` per state
    that has a reduce item, in state order.

    The start production's item is left out (its ``$`` shift is the
    accept action). The shift mask has a bit for every terminal that
    labels a transition out of the state, ``$`` included. Reduce items
    are found by id through the :class:`~repro.automaton.index.StateItemIndex`,
    and only their states get a shift mask: no other state can conflict.
    """
    index = automaton.lr0.index
    states = automaton.states
    masks = automaton.masks_by_id
    item_of = index.item_of
    state_of = index.state_of
    mask_of = automaton.terminal_table.mask_of
    accept = index.offsets[1] - 1  # item number of START' -> S $ •
    numbers = index.item_number
    found: list[tuple[object, list[Item], list[int], int]] = []
    last = -1
    items: list[Item] = []
    item_masks: list[int] = []
    for node in compress(range(len(numbers)), map((0).__le__, index.reduce_arity)):
        if numbers[node] == accept:
            continue
        if state_of[node] != last:
            last = state_of[node]
            state = states[last]
            items, item_masks = [], []
            found.append((state, items, item_masks, mask_of(state.transitions)))
        items.append(item_of[node])
        item_masks.append(masks[node])
    return found


def find_conflicts(
    automaton,
) -> tuple[list[Conflict], dict[tuple[int, Terminal], tuple[str, Production]]]:
    """The conflicts of *automaton* and the overlaps precedence decided.

    Returns the unresolved conflicts, in ``(state, terminal)`` order, and
    ``(state id, terminal) -> (resolution, production)`` for every
    shift/reduce overlap that precedence resolves.

    Per state, the reduce items' lookahead masks are overlapped with
    each other and with the terminals the state shifts; only the
    terminals in some overlap are examined one by one. For each, every
    pair of reduce items is a reduce/reduce conflict, and — unless
    precedence decides it — every (reduce item, shift item) pair is a
    shift/reduce conflict (figure 7 counts two conflicts for one reduce
    item against two shift items). Precedence is consulted for the
    earliest-declared reduce item, the one the yacc default reduces by.
    """
    terminals = automaton.terminal_table.terminals
    conflicts: list[Conflict] = []
    resolutions: dict[tuple[int, Terminal], tuple[str, Production]] = {}
    for state, items, masks, shift_mask in reduce_lookaheads(automaton):
        seen = shared = 0
        for mask in masks:
            shared |= seen & mask
            seen |= mask
        contested = shared | (seen & shift_mask)
        while contested:
            bit = contested & -contested
            contested ^= bit
            terminal = terminals[bit.bit_length() - 1]
            reducers = [item for item, mask in zip(items, masks) if mask & bit]
            for index, first in enumerate(reducers):
                for second in reducers[index + 1 :]:
                    conflicts.append(
                        Conflict(
                            state_id=state.id,
                            terminal=terminal,
                            kind=ConflictKind.REDUCE_REDUCE,
                            reduce_item=first,
                            other_item=second,
                        )
                    )
            if not bit & shift_mask:
                continue
            chosen = min(reducers, key=lambda reducer: reducer.production.index)
            resolution = _resolve_shift_reduce(automaton, terminal, chosen.production)
            if resolution is not None:
                resolutions[(state.id, terminal)] = (resolution, chosen.production)
                continue
            shift_items = _find_shift_items(state, terminal)
            for item in reducers:
                for shift_item in shift_items:
                    conflicts.append(
                        Conflict(
                            state_id=state.id,
                            terminal=terminal,
                            kind=ConflictKind.SHIFT_REDUCE,
                            reduce_item=item,
                            other_item=shift_item,
                        )
                    )
    conflicts.sort(key=lambda c: (c.state_id, str(c.terminal)))
    return conflicts, resolutions


def build_tables(automaton) -> ParseTables:
    """Construct parse tables for a :class:`~repro.automaton.lalr.LALRAutomaton`.

    The conflicts and precedence resolutions are the automaton's own
    (:func:`find_conflicts`); this fills the entries with them and with
    the yacc defaults.
    """
    grammar = automaton.grammar
    terminals = automaton.terminal_table.terminals
    resolutions = automaton.resolutions
    num_states = len(automaton.states)
    action: list[dict[Terminal, Action]] = [{} for _ in range(num_states)]
    goto: list[dict[Nonterminal, int]] = [{} for _ in range(num_states)]

    accept_item = Item(grammar.start_production, 1)  # START' -> S . $

    for state in automaton.states:
        row = action[state.id]
        # Transitions: shifts and gotos.
        for symbol, target in state.transitions.items():
            if symbol.is_terminal:
                assert isinstance(symbol, Terminal)
                if symbol == END_OF_INPUT and accept_item in state.items:
                    row[symbol] = Accept()
                else:
                    row[symbol] = Shift(target.id)
            else:
                assert isinstance(symbol, Nonterminal)
                goto[state.id][symbol] = target.id

    # Reductions: the earliest production wins each terminal (yacc
    # default); a shift wins unless precedence says otherwise.
    for state, items, masks, _ in reduce_lookaheads(automaton):
        row = action[state.id]
        pending = 0
        for mask in masks:
            pending |= mask
        while pending:
            bit = pending & -pending
            pending ^= bit
            terminal = terminals[bit.bit_length() - 1]
            if terminal not in row:
                item = min(
                    (reducer for reducer, mask in zip(items, masks) if mask & bit),
                    key=lambda reducer: reducer.production.index,
                )
                row[terminal] = Reduce(item.production)
                continue
            # The state shifts (or accepts) the terminal.
            decided = resolutions.get((state.id, terminal))
            if decided is None:
                continue
            resolution, production = decided
            if resolution == "reduce":
                row[terminal] = Reduce(production)
            elif resolution == "error":
                row[terminal] = ErrorAction()

    return ParseTables(action=action, goto=goto, conflicts=automaton.conflicts)


def production_prec_terminal(production: Production) -> Terminal | None:
    """The terminal whose declaration determines *production*'s precedence."""
    if production.prec_override is not None:
        return production.prec_override
    for symbol in reversed(production.rhs):
        if isinstance(symbol, Terminal):
            return symbol
    return None


def _find_shift_items(state, terminal: Terminal) -> list[Item]:
    """All shift items of *state* whose next symbol is *terminal*."""
    return [item for item in state.items if item.next_symbol == terminal]
