"""Reference LALR(1) lookaheads: the channel fixpoint over frozensets.

The oracle for :func:`repro.automaton.lalr.compute_lalr_lookahead_masks`,
which runs the same channels over int bitmasks: the start item of state
0 carries ``{$}``; an item's lookahead flows unchanged to its advanced
item in the successor state (goto channel); for ``A -> α . B β`` each
closure item ``B -> . γ`` receives ``FIRST(β)``, plus ``A``'s lookahead
when ``β`` is nullable (closure channel).
"""

from repro.automaton.items import Item
from repro.grammar import END_OF_INPUT, Nonterminal


def compute_lalr_lookaheads(automaton, analysis):
    """LALR(1) lookahead sets for every ``(state id, item)`` pair."""
    lookaheads = {
        (state.id, item): set() for state in automaton.states for item in state.items
    }
    #: propagation edges: source key -> target keys receiving everything
    propagate = {key: [] for key in lookaheads}

    start_key = (0, automaton.start_state.items[0])
    lookaheads[start_key].add(END_OF_INPUT)

    for state in automaton.states:
        for item in state.items:
            key = (state.id, item)
            symbol = item.next_symbol
            if symbol is None:
                continue
            # Goto channel.
            target_state = state.transitions[symbol]
            propagate[key].append((target_state.id, item.advance()))
            # Closure channel.
            if symbol.is_nonterminal:
                assert isinstance(symbol, Nonterminal)
                beta = item.production.rhs[item.dot + 1 :]
                spontaneous, beta_nullable = analysis.first_of_sequence_ex(beta)
                for production in automaton.grammar.productions_of(symbol):
                    closure_key = (state.id, Item(production, 0))
                    lookaheads[closure_key].update(spontaneous)
                    if beta_nullable:
                        propagate[key].append(closure_key)

    # Worklist fixpoint over the propagation graph.
    worklist = [
        key for key, values in lookaheads.items() if values
    ]
    in_worklist = set(worklist)
    while worklist:
        key = worklist.pop()
        in_worklist.discard(key)
        source = lookaheads[key]
        for target in propagate[key]:
            target_set = lookaheads[target]
            before = len(target_set)
            target_set |= source
            if len(target_set) != before and target not in in_worklist:
                worklist.append(target)
                in_worklist.add(target)

    return {key: frozenset(values) for key, values in lookaheads.items()}
