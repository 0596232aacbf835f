"""Reference conflict detection: the per-terminal loop of the old table builder.

The oracle for :func:`repro.automaton.tables.find_conflicts`. For every
state it collects, per terminal, the reduce items whose lookahead holds
it, then walks those terminals in name order: every pair of reduce items
is a reduce/reduce conflict, and where the state also shifts the
terminal, unless precedence decides it for the earliest production,
every (reduce item, shift item) pair is a shift/reduce conflict.
"""

from repro.automaton.conflicts import Conflict, ConflictKind
from repro.automaton.tables import _find_shift_items, _resolve_shift_reduce


def reference_conflicts(automaton):
    conflicts = []
    for state in automaton.states:
        reducers = {}
        for item in state.items:
            if item.at_end and item.production.index != 0:
                for terminal in automaton.lookahead(state, item):
                    reducers.setdefault(terminal, []).append(item)
        for terminal, items in sorted(reducers.items(), key=lambda kv: str(kv[0])):
            for first_index in range(len(items)):
                for second_index in range(first_index + 1, len(items)):
                    conflicts.append(
                        Conflict(
                            state_id=state.id,
                            terminal=terminal,
                            kind=ConflictKind.REDUCE_REDUCE,
                            reduce_item=items[first_index],
                            other_item=items[second_index],
                        )
                    )
            shift_items = _find_shift_items(state, terminal)
            if terminal not in state.transitions or not shift_items:
                continue
            chosen = min(items, key=lambda item: item.production.index)
            if _resolve_shift_reduce(automaton, terminal, chosen.production) is None:
                for item in items:
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
    return conflicts
