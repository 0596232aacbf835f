"""Reference conflict detection: the per-terminal loop of the old table builder.

The oracle for :func:`repro.automaton.tables.find_conflicts`. For every
state it collects, per terminal, the reduce items whose lookahead holds
it, then walks those terminals in name order: every pair of reduce items
is a reduce/reduce conflict, and where the state also shifts the
terminal, unless precedence decides it for the earliest production,
every (reduce item, shift item) pair is a shift/reduce conflict.
:func:`reference_precedence` tallies the overlaps precedence decided the
way the old table builder did, and :func:`reference_signatures` gives
the raw (pre-precedence) signatures that
:func:`repro.automaton.ielr.conflict_signatures` must report.
"""

from repro.automaton.conflicts import Conflict, ConflictKind
from repro.automaton.tables import _find_shift_items, _resolve_shift_reduce
from repro.grammar import END_OF_INPUT, Terminal


def _reducers(automaton, state):
    """Terminal -> the reduce items of *state* whose lookahead holds it."""
    reducers = {}
    for item in state.items:
        if item.at_end and item.production.index != 0:
            for terminal in automaton.lookahead(state, item):
                reducers.setdefault(terminal, []).append(item)
    return reducers


def reference_precedence(automaton):
    """``(resolved count, used precedence terminals)`` of the old table builder.

    Each terminal a state both shifts and reduces on, where precedence
    decides for the earliest production, counts once; it and the
    terminal that sets the production's level were consulted.
    """
    resolved = 0
    used = set()
    for state in automaton.states:
        for terminal, items in _reducers(automaton, state).items():
            if terminal not in state.transitions:
                continue
            production = min(items, key=lambda item: item.production.index).production
            if _resolve_shift_reduce(automaton, terminal, production) is None:
                continue
            resolved += 1
            used.add(terminal)
            if production.prec_override is not None:
                used.add(production.prec_override)
            else:
                used.update(
                    [s for s in production.rhs if isinstance(s, Terminal)][-1:]
                )
    return resolved, frozenset(used)


def reference_signatures(automaton):
    """Raw conflict signatures, per terminal, before precedence.

    The ``$`` shift out of ``START' -> S . $`` is the accept action, so
    ``$`` never makes a shift/reduce signature (as in the canonical
    LR(1) signatures the differential oracle compares with).
    """
    signatures = set()
    for state in automaton.states:
        for terminal, items in _reducers(automaton, state).items():
            keys = [(item.production.index, item.dot) for item in items]
            if terminal in state.transitions and terminal != END_OF_INPUT:
                signatures.update(("sr", terminal.name, key) for key in keys)
            for index, first in enumerate(keys):
                for second in keys[index + 1 :]:
                    signatures.add(("rr", terminal.name, frozenset({first, second})))
    return frozenset(signatures)


def reference_conflicts(automaton):
    conflicts = []
    for state in automaton.states:
        reducers = _reducers(automaton, state)
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
