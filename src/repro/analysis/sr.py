"""SR-automaton: the nondeterministic shift/reduce tables behind a walk.

The deterministic parse tables (:mod:`repro.automaton.tables`) resolve or
report nondeterminism; for ambiguity *detection* the interesting object
is the automaton **before** any resolution — every shift edge and every
reduce item with its raw LALR lookahead mask, side by side. Quaglia's
SR-automata are exactly this view: a nondeterministic machine whose runs
are all bottom-up parses of the grammar, walked in pairs to decide
whether a conflict can produce two distinct parses of one sentence.

:class:`SRAutomaton` extracts that view once per automaton, reusing the
structures the rest of the library already maintains:

* shift edges and reduce-goto edges come from the array-backed adjacency
  (:attr:`~repro.automaton.lr0.LR0Automaton.arrays`);
* reduce applicability is a single ``mask & bit`` test over the bitset
  lookaheads (:attr:`~repro.automaton.lalr.LALRAutomaton.masks_by_id`);
* context expansion (walking *below* a suffix stack) uses the predecessor
  arrays plus the LR(0) invariant that every state has a unique entry
  symbol, so the states beneath any suffix form a regular language the
  walk can enumerate lazily.

Acceptance is uniform: the augmented production ``START' -> S $`` makes
end-of-input an ordinary shift edge, so "both sides accept" is "both
sides can shift ``$``".
"""

from __future__ import annotations

from repro.automaton.lalr import LALRAutomaton
from repro.grammar import END_OF_INPUT, Production, Symbol
from repro.perf import metrics


class SRAutomaton:
    """Per-state nondeterministic actions of an LR automaton.

    Attributes:
        automaton: The underlying (conflict-bearing) automaton.
        shift_masks: Per state id, the bitmask of shiftable terminals —
            including ``$`` on the accepting state, so acceptance is an
            ordinary shift.
        reduces: Per state id, a tuple of ``(production, pop, goto
            symbol, lookahead mask)`` for every reduce item (the start
            production is excluded; its role is played by the ``$``
            shift).
        entry_symbols: Per state id, the unique symbol labelling every
            transition *into* the state (``None`` for the start state).
        predecessor_ids: Per state id, the ids of states with an edge
            into it — always on the entry symbol.
    """

    def __init__(self, automaton: LALRAutomaton) -> None:
        with metrics.span("analysis/sr"):
            self.automaton = automaton
            table = automaton.terminal_table
            self.end_bit = table.bit_of(END_OF_INPUT)
            self.full_mask = table.mask_of(
                terminal for terminal in automaton.grammar.terminals
            ) | self.end_bit
            self._arrays = automaton.lr0.arrays
            states = automaton.states
            masks = automaton.masks_by_id
            base = automaton.lr0.index.base

            shift_masks: list[int] = []
            reduces: list[tuple[tuple[Production, int, Symbol, int], ...]] = []
            entry_symbols: list[Symbol | None] = []
            predecessor_ids: list[tuple[int, ...]] = []
            for state in states:
                shift_masks.append(
                    table.mask_of(
                        symbol
                        for symbol in state.transitions
                        if symbol.is_terminal
                    )
                )
                state_reduces: list[tuple[Production, int, Symbol, int]] = []
                for node, item in enumerate(state.items, base[state.id]):
                    if not item.at_end or item.production.index == 0:
                        continue
                    production = item.production
                    state_reduces.append(
                        (
                            production,
                            len(production.rhs),
                            production.lhs,
                            masks[node],
                        )
                    )
                reduces.append(tuple(state_reduces))
                # Every transition into a state is labelled by the symbol
                # its kernel items just moved over — unique per state.
                entry: Symbol | None = None
                for item in state.items:
                    if item.dot > 0:
                        entry = item.production.rhs[item.dot - 1]
                        break
                entry_symbols.append(entry)
            for state in states:
                entry = entry_symbols[state.id]
                predecessor_ids.append(
                    self._arrays.predecessor_ids(state.id, entry)
                    if entry is not None
                    else ()
                )
            shift_targets: list[dict[int, int]] = []
            for state in states:
                targets: dict[int, int] = {}
                for symbol in state.transitions:
                    if symbol.is_terminal:
                        targets[table.bit_of(symbol)] = self._arrays.goto_id(
                            state.id, symbol
                        )
                shift_targets.append(targets)
            self.shift_masks = shift_masks
            self.shift_targets = shift_targets
            self.reduces = reduces
            self.entry_symbols = entry_symbols
            self.predecessor_ids = predecessor_ids
            metrics.count("analysis.sr.states", len(states))

    # ------------------------------------------------------------------ #

    def goto_id(self, state_id: int, symbol: Symbol) -> int:
        """Target of the *symbol* edge out of *state_id* (``-1`` if none)."""
        return self._arrays.goto_id(state_id, symbol)

    def terminal_bit(self, terminal) -> int:
        return self.automaton.terminal_bit(terminal)

    def iter_mask(self, mask: int):
        """The terminals of *mask*, in table order."""
        return self.automaton.terminal_table.iter_mask(mask)
