"""Reference shortest lookahead-sensitive path: BFS over full vertices.

This is the paper's §4 search taken literally — a vertex is
``(state_id, item, L)`` with ``L`` the whole precise lookahead set (an
int mask) — and it is the oracle for
:meth:`repro.core.lasg.LookaheadSensitiveGraph.shortest_path`, which
runs the same BFS over the projection of ``L`` onto "contains the
conflict terminal". Same edge order (transition first, then production
steps in declaration order), same pair-level reachability prune.
"""

from collections import deque

from repro.automaton.items import Item
from repro.core.lasg import LASGEdge, LASGVertex
from repro.grammar import END_OF_INPUT


def reference_shortest_path(graph, conflict) -> list[LASGEdge]:
    automaton = graph.automaton
    terminal_bit = automaton.terminal_bit(conflict.terminal)
    target = (conflict.state_id, conflict.reduce_item)
    allowed = automaton.lookups.reaching_pairs(
        automaton.states[conflict.state_id], conflict.reduce_item
    )
    start = (0, automaton.start_item, automaton.terminal_bit(END_OF_INPUT))
    parents = {}
    seen = {start}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        state_id, item, mask = key
        if (state_id, item) == target and mask & terminal_bit:
            break
        symbol = item.next_symbol
        if symbol is None:
            continue
        target_id = automaton.states[state_id].transitions[symbol].id
        successors = [((target_id, item.advance(), mask), symbol)]
        if symbol.is_nonterminal:
            first_mask, nullable = automaton.follow_parts(item.production, item.dot)
            follow = first_mask | mask if nullable else first_mask
            successors += [
                ((state_id, Item(production, 0), follow), None)
                for production in automaton.grammar.productions_of(symbol)
            ]
        for successor, symbol in successors:
            if successor in seen or successor[:2] not in allowed:
                continue
            seen.add(successor)
            parents[successor] = (key, symbol)
            queue.append(successor)
    else:
        raise AssertionError(f"reference BFS found no path to {conflict}")
    view = automaton.terminal_table.view
    edges = []
    while key in parents:
        parent, symbol = parents[key]
        edges.append(
            LASGEdge(
                LASGVertex(parent[0], parent[1], view(parent[2])),
                symbol,
                LASGVertex(key[0], key[1], view(key[2])),
            )
        )
        key = parent
    return edges[::-1]
