"""The lookahead-sensitive graph and its shortest paths (paper §4).

A vertex is a triple ``(state, item, L)`` where ``L`` is a *precise*
lookahead set — the terminals that actually can follow the current
production in this context. Edges:

* **transition**: mirrors a parser transition, preserving ``L``;
* **production step**: enters a production of the nonterminal after the
  dot, replacing ``L`` by ``follow_L(item)``, the paper's precise follow
  set (``first_of_sequence`` of the rest of the production, with ``L``
  when that rest is nullable).

A *shortest lookahead-sensitive path* from the start vertex
``(s0, START' -> . S $, {$})`` to a conflict vertex — the conflict state
and reduce item, with the conflict terminal in ``L`` — provides the prefix
of a counterexample that genuinely carries the conflict terminal as
legitimate lookahead. (The shortest path in the plain state graph often
does not; see the dangling-else discussion in §4.)

As in the paper's implementation, the search is restricted to parser
states that can reach the conflict item backward, which keeps the graph
small; vertices are materialised lazily during the breadth-first search.

Hot-path representation
-----------------------

The graph is still the paper's; only the *search* runs over a
projection of it. The BFS asks ``L`` one thing — does it hold the
conflict terminal ``t``? — and that bit evolves without ``L``: a
transition keeps it, and a production step from ``A -> α . B β`` sets
it to ``t ∈ FIRST(β) or (β nullable and bit)``. So the BFS runs over
ints ``id * 2 + bit``, where ``id`` numbers the ``(state, item)`` pair
in the automaton's :class:`~repro.automaton.index.StateItemIndex` — at
most two per pair — and finds the same path as the BFS over full
vertices: a class's
successor classes and target test depend on the class alone, and the
first member of a class the full BFS dequeues is the one that reaches
every new successor class first (``docs/PERFORMANCE.md`` spells this
out). The full sets of the returned edges are rebuilt by pushing
``{$}`` forward along the path.

A lookahead-independent *skeleton* per pair id — the transition
target id, the production-step ids and the ``(FIRST(β) mask, β
nullable)`` follow parts — is memoized for the graph's lifetime (one
:class:`~repro.core.finder.CounterexampleFinder`), bounded by the
automaton's size. ``lasg.vertices.materialized`` counts the vertices the
BFS created; ``lasg.vertices.estimated_full`` records, once per graph,
the size of the *whole* graph (items × distinct lookahead sets).
:class:`LASGVertex`/:class:`LASGEdge` objects are only built for the
final path and by the public :meth:`successors` API.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from repro.automaton.conflicts import Conflict
from repro.automaton.items import Item
from repro.automaton.lalr import LALRAutomaton
from repro.grammar import END_OF_INPUT, Nonterminal, Symbol, Terminal
from repro.perf import metrics
from repro.robust.budget import Budget
from repro.robust.errors import PathNotFoundError
from repro.robust.faults import fire


@dataclass(frozen=True, slots=True)
class LASGVertex:
    """A vertex ``(state, item, precise lookahead set)``."""

    state_id: int
    item: Item
    lookahead: frozenset[Terminal]

    def __str__(self) -> str:
        las = ", ".join(sorted(str(t) for t in self.lookahead))
        return f"({self.state_id}, {self.item}, {{{las}}})"


@dataclass(frozen=True, slots=True)
class LASGEdge:
    """An edge of the lookahead-sensitive graph.

    ``symbol`` is the transition symbol, or ``None`` for a production step
    (rendered ``[prod]`` as in the paper's Figure 5).
    """

    source: LASGVertex
    symbol: Symbol | None
    target: LASGVertex

    @property
    def is_production_step(self) -> bool:
        return self.symbol is None

    def __str__(self) -> str:
        label = "[prod]" if self.symbol is None else str(self.symbol)
        return f"{self.source} --{label}--> {self.target}"


class LookaheadSensitiveGraph:
    """Lazy lookahead-sensitive graph over an LALR automaton.

    One instance is meant to live exactly as long as one
    :class:`~repro.core.finder.CounterexampleFinder`: its skeleton memo
    is shared across that finder's conflicts and released with it.
    """

    def __init__(self, automaton: LALRAutomaton) -> None:
        self.automaton = automaton
        self.analysis = automaton.analysis
        self.grammar = automaton.grammar
        self.index = automaton.lr0.index
        #: pair id -> (transition target id, production-step ids,
        #: first_mask, nullable) | None for reduce items.
        #: Conflict-independent, bounded by the automaton size.
        self._skeletons: dict[
            int, tuple[int, tuple[int, ...], int, bool] | None
        ] = {}
        self._estimate_recorded = False

    # ------------------------------------------------------------------ #

    @property
    def start_vertex(self) -> LASGVertex:
        """``(s0, START' -> . S $, {$})``."""
        return LASGVertex(0, self.automaton.start_item, frozenset({END_OF_INPUT}))

    def successors(self, vertex: LASGVertex) -> Iterator[LASGEdge]:
        """All outgoing edges of *vertex*, created on demand.

        Object-level API (tests, tooling, the paper's definitions in
        executable form). :meth:`shortest_path` follows the same edges —
        in the same order: the transition edge first, then production
        steps in declaration order — over the bit projection instead.
        BFS tie-breaking (and therefore which of several equally-short
        paths a report shows) depends on this order staying fixed.
        """
        item = vertex.item
        symbol = item.next_symbol
        if symbol is None:
            return
        # Transition edge.
        state = self.automaton.states[vertex.state_id]
        target_state = state.transitions[symbol]
        yield LASGEdge(
            vertex,
            symbol,
            LASGVertex(target_state.id, item.advance(), vertex.lookahead),
        )
        # Production-step edges.
        if symbol.is_nonterminal:
            assert isinstance(symbol, Nonterminal)
            follow = self.analysis.precise_follow(
                item.production, item.dot, vertex.lookahead
            )
            for production in self.grammar.productions_of(symbol):
                yield LASGEdge(
                    vertex,
                    None,
                    LASGVertex(vertex.state_id, Item(production, 0), follow),
                )

    # ------------------------------------------------------------------ #
    # Tuple-level lazy expansion (the hot path)

    def _skeleton(self, node: int) -> tuple[int, tuple[int, ...], int, bool] | None:
        """Lookahead-independent expansion data for pair id *node*."""
        try:
            return self._skeletons[node]
        except KeyError:
            pass
        index = self.index
        symbol = index.next_symbol[node]
        if symbol is None:
            skeleton = None
        else:
            if symbol.is_nonterminal:
                item = index.item_of[node]
                first_mask, nullable = self.automaton.follow_parts(
                    item.production, item.dot
                )
            else:
                first_mask, nullable = 0, False
            skeleton = (
                index.transition(node),
                index.production_steps(node),
                first_mask,
                nullable,
            )
        self._skeletons[node] = skeleton
        return skeleton

    def _record_estimate(self) -> None:
        """Record the whole-graph size estimate once per graph instance.

        The eager construction this module replaced would materialise up
        to ``(state, item) pairs × distinct lookahead sets`` vertices;
        comparing that against ``lasg.vertices.materialized`` in a
        profile shows what laziness and the bit projection saved.
        """
        if self._estimate_recorded:
            return
        self._estimate_recorded = True
        masks = self.automaton.masks_by_id
        distinct_masks = len(set(masks)) or 1
        metrics.count("lasg.vertices.estimated_full", len(masks) * distinct_masks)

    # ------------------------------------------------------------------ #

    def shortest_path(
        self, conflict: Conflict, budget: Budget | None = None
    ) -> list[LASGEdge]:
        """Shortest lookahead-sensitive path to the conflict reduce item.

        The target is any vertex at the conflict state whose item is the
        conflict's reduce item and whose precise lookahead set contains
        the conflict terminal (the reduce item is used because no
        lookahead information exists for the shift item — footnote 4).

        Returns the edge list from the start vertex; the transition-edge
        symbols along it form the counterexample prefix. Raises
        :class:`~repro.robust.errors.PathNotFoundError` if no path exists
        (which would indicate a bug: LALR conflicts are always reachable)
        and the budget's structured errors when *budget* runs out.
        """
        fire("lasg")
        self._record_estimate()
        automaton = self.automaton
        index = self.index
        target = index.id_of(conflict.state_id, conflict.reduce_item)
        terminal_bit = automaton.terminal_bit(conflict.terminal)

        # Restrict to (state, item) pairs that can reach the conflict item
        # (§6 describes a state-level restriction; the pair-level one is a
        # strictly stronger, equally sound prune).
        allowed = automaton.lookups.reaching(target)

        # Id 0 is state 0's first item, ``START' -> . S $``.
        if not allowed[0]:
            raise PathNotFoundError(
                f"start state cannot reach conflict item {conflict.reduce_item} "
                f"in state {conflict.state_id}",
                stage="lasg",
                conflict=str(conflict),
                state_id=conflict.state_id,
            )

        # A key is id * 2 + (conflict terminal in L?): the bit projection
        # of the paper's vertex (see the module docstring).
        end_bit = automaton.terminal_bit(END_OF_INPUT)
        start_key = 1 if end_bit & terminal_bit else 0
        target_key = target * 2 + 1
        #: every key seen -> the key it was first reached from (-1: start)
        parents: dict[int, int] = {start_key: -1}
        queue: deque[int] = deque([start_key])
        skeleton_of = self._skeleton

        while queue:
            if budget is not None:
                budget.charge()
                budget.poll("lasg")
            key = queue.popleft()
            if key == target_key:
                metrics.count("lasg.vertices.materialized", len(parents))
                return self._reconstruct(parents, key)
            skeleton = skeleton_of(key >> 1)
            if skeleton is None:
                continue
            bit = key & 1
            target_id, step_ids, first_mask, nullable = skeleton
            successor = target_id * 2 + bit
            if successor not in parents and allowed[target_id]:
                parents[successor] = key
                queue.append(successor)
            if not step_ids:
                continue
            step_bit = 1 if first_mask & terminal_bit or (nullable and bit) else 0
            for step_id in step_ids:
                successor = step_id * 2 + step_bit
                if successor in parents or not allowed[step_id]:
                    continue
                parents[successor] = key
                queue.append(successor)

        metrics.count("lasg.vertices.materialized", len(parents))
        raise PathNotFoundError(
            f"no lookahead-sensitive path to conflict {conflict} — "
            "the automaton and its lookahead sets disagree",
            stage="lasg",
            conflict=str(conflict),
            state_id=conflict.state_id,
        )

    def _reconstruct(self, parents: dict[int, int], key: int) -> list[LASGEdge]:
        """Materialise the edge objects for the discovered path only.

        An edge into a dot-0 item is a production step, any other edge a
        transition on the source item's next symbol. The full lookahead
        sets come back by pushing ``{$}`` forward along the path:
        transitions keep ``L``, production steps apply the precise
        follow ``FIRST(β) ∪ (L if β nullable)``.
        """
        chain: list[int] = []
        while key >= 0:
            chain.append(key >> 1)
            key = parents[key]
        chain.reverse()
        index = self.index
        view = self.automaton.terminal_table.view
        mask = self.automaton.terminal_bit(END_OF_INPUT)
        source_id = chain[0]
        source = LASGVertex(
            index.state_of[source_id], index.item_of[source_id], view(mask)
        )
        edges: list[LASGEdge] = []
        for node in chain[1:]:
            if index.at_start[node]:
                symbol = None
                _, _, first_mask, nullable = self._skeleton(source_id)
                mask = first_mask | mask if nullable else first_mask
            else:
                symbol = index.next_symbol[source_id]
            target = LASGVertex(
                index.state_of[node], index.item_of[node], view(mask)
            )
            edges.append(LASGEdge(source, symbol, target))
            source, source_id = target, node
        return edges


def path_states(path: list[LASGEdge]) -> frozenset[int]:
    """The parser states visited by a lookahead-sensitive path."""
    states = {edge.source.state_id for edge in path}
    if path:
        states.add(path[-1].target.state_id)
    return frozenset(states)


def path_prefix_symbols(path: list[LASGEdge]) -> tuple[Symbol, ...]:
    """The transition symbols along a path: the counterexample prefix."""
    return tuple(edge.symbol for edge in path if edge.symbol is not None)
