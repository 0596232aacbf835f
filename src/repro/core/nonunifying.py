"""Constructing nonunifying counterexamples (paper §4).

The construction has three parts:

1. the **shortest lookahead-sensitive path** to the conflict reduce item
   (delegated to :mod:`repro.core.lasg`) — its transition symbols are the
   counterexample prefix, and its production steps determine the
   derivation spine;
2. **completion**: the productions left open along the path are closed so
   that the conflict terminal appears immediately after the dot — the
   symbol after a dot is either the conflict terminal itself, a
   nonterminal expanded minimally into a string *beginning with* the
   conflict terminal, or a nullable nonterminal derived to epsilon;
3. the **shift-item derivation** (Figure 5(b)): a backward walk from the
   conflict's other item over the *same* state sequence, using reverse
   transitions and reverse production steps, until it anchors at the
   start item; replaying it forward gives the second derivation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.automaton.conflicts import Conflict
from repro.automaton.items import Item
from repro.automaton.lalr import LALRAutomaton
from repro.core.counterexample import Counterexample
from repro.core.derivation import DOT, Derivation, dleaf, dnode
from repro.core.lasg import LASGEdge, LookaheadSensitiveGraph
from repro.grammar import Nonterminal, Production, Symbol, Terminal
from repro.robust.budget import Budget
from repro.robust.errors import ExplanationError, PathNotFoundError
from repro.robust.faults import fire


class CompletionError(ExplanationError):
    """The conflict terminal could not be placed after the dot.

    On a lookahead-sensitive path this indicates an internal inconsistency
    for the reduce side; for the other side of a reduce/reduce conflict it
    can happen legitimately, and the caller falls back to a plain
    completion (the sides of a nonunifying counterexample may diverge
    after the dot).
    """


@dataclass
class _Frame:
    """An open production during derivation reconstruction."""

    production: Production
    children: list[Derivation] = field(default_factory=list)

    def arity(self) -> int:
        """Number of right-hand-side symbols already derived."""
        return sum(1 for child in self.children if not child.is_dot)

    def remaining(self) -> tuple[Symbol, ...]:
        return self.production.rhs[self.arity() :]

    def close(self) -> Derivation:
        return dnode(self.production, self.children)


class NonunifyingBuilder:
    """Builds nonunifying counterexamples for an automaton's conflicts."""

    def __init__(
        self,
        automaton: LALRAutomaton,
        graph: LookaheadSensitiveGraph | None = None,
    ) -> None:
        """*graph* lets a caller share one lookahead-sensitive graph (and
        its cross-conflict skeleton memo) — the finder passes its own."""
        self.automaton = automaton
        self.analysis = automaton.analysis
        self.grammar = automaton.grammar
        self.graph = graph if graph is not None else LookaheadSensitiveGraph(automaton)

    # ------------------------------------------------------------------ #
    # Public API

    def build(
        self,
        conflict: Conflict,
        path: list[LASGEdge] | None = None,
        budget: Budget | None = None,
    ) -> Counterexample:
        """A nonunifying counterexample for *conflict*.

        *path* may carry a precomputed shortest lookahead-sensitive path
        (the unifying search also needs it, so the finder shares it);
        *budget* bounds the backward walk cooperatively.
        """
        fire("nonunifying")
        if path is None:
            path = self.graph.shortest_path(conflict, budget=budget)
        derivation1 = self._reduce_side(conflict, path)
        derivation2 = self._other_side(conflict, path, budget=budget)
        return Counterexample(
            conflict=conflict,
            unifying=False,
            nonterminal=self.grammar.start,
            derivation1=derivation1,
            derivation2=derivation2,
        )

    # ------------------------------------------------------------------ #
    # Reduce-item side: replay the path, then complete with the conflict
    # terminal after the dot.

    def _reduce_side(self, conflict: Conflict, path: list[LASGEdge]) -> Derivation:
        frames = [_Frame(self.grammar.start_production)]
        for edge in path:
            if edge.is_production_step:
                frames.append(_Frame(edge.target.item.production))
            else:
                assert edge.symbol is not None
                frames[-1].children.append(dleaf(edge.symbol))
        frames[-1].children.append(DOT)
        return self._complete(frames, conflict.terminal, force_terminal=True)

    # ------------------------------------------------------------------ #
    # Completion

    def _complete(
        self, frames: list[_Frame], terminal: Terminal, force_terminal: bool
    ) -> Derivation:
        """Close all open frames bottom-up.

        With *force_terminal*, the first symbol derived after the dot must
        be *terminal*: nullable symbols in the way are derived to epsilon
        and the first symbol that can start with *terminal* is expanded
        minimally; raises :class:`CompletionError` if impossible.
        """
        needs_terminal = force_terminal
        while True:
            frame = frames[-1]
            if needs_terminal:
                needs_terminal = not self._place_terminal(frame, terminal)
            else:
                for symbol in frame.remaining():
                    frame.children.append(dleaf(symbol))
            derivation = frame.close()
            frames.pop()
            if not frames:
                if needs_terminal:
                    raise CompletionError(
                        f"could not place conflict terminal {terminal} after the dot"
                    )
                return derivation
            frames[-1].children.append(derivation)

    def _place_terminal(self, frame: _Frame, terminal: Terminal) -> bool:
        """Try to make *terminal* the first leaf of *frame*'s remaining symbols.

        Returns ``True`` on success (the frame is then fully completed);
        ``False`` if every remaining symbol was nullable and was derived
        to epsilon (the terminal must come from an ancestor frame).
        """
        remaining = list(frame.remaining())
        for index, symbol in enumerate(remaining):
            if symbol == terminal:
                for rest in remaining[index:]:
                    frame.children.append(dleaf(rest))
                return True
            if symbol.is_nonterminal:
                assert isinstance(symbol, Nonterminal)
                if terminal in self.analysis.first[symbol]:
                    frame.children.append(self.derive_starting_with(symbol, terminal))
                    for rest in remaining[index + 1 :]:
                        frame.children.append(dleaf(rest))
                    return True
                if symbol in self.analysis.nullable:
                    frame.children.append(self.derive_epsilon(symbol))
                    continue
            raise CompletionError(
                f"symbol {symbol} can neither start with {terminal} nor derive ε"
            )
        return False

    def derive_starting_with(
        self, nonterminal: Nonterminal, terminal: Terminal
    ) -> Derivation:
        """A minimal derivation of *nonterminal* whose yield begins with *terminal*.

        Symbols not needed to reach the terminal are left unexpanded.
        """
        step = self.analysis.starter_production(nonterminal, terminal)
        if step is None:
            raise CompletionError(f"{terminal} not in FIRST({nonterminal})")
        production, position = step
        children: list[Derivation] = []
        for symbol in production.rhs[:position]:
            assert isinstance(symbol, Nonterminal)
            children.append(self.derive_epsilon(symbol))
        pivot = production.rhs[position]
        if pivot == terminal:
            children.append(dleaf(terminal))
        else:
            assert isinstance(pivot, Nonterminal)
            children.append(self.derive_starting_with(pivot, terminal))
        for symbol in production.rhs[position + 1 :]:
            children.append(dleaf(symbol))
        return dnode(production, children)

    def derive_epsilon(self, nonterminal: Nonterminal) -> Derivation:
        """A derivation of *nonterminal* to the empty string."""
        production = self.analysis.nullable_production(nonterminal)
        children = [
            self.derive_epsilon(symbol)  # type: ignore[arg-type]
            for symbol in production.rhs
        ]
        return dnode(production, children)

    # ------------------------------------------------------------------ #
    # The other side: backward walk over the path's state sequence
    # (Figure 5(b)), then forward replay.

    def _other_side(
        self,
        conflict: Conflict,
        path: list[LASGEdge],
        budget: Budget | None = None,
    ) -> Derivation:
        states, symbols = self._transition_sequence(path)
        operations = self._backward_walk(conflict, states, symbols, budget=budget)

        frames = [_Frame(self.grammar.start_production)]
        for kind, payload in operations:
            if kind == "step":
                frames.append(_Frame(payload))
            else:
                frames[-1].children.append(dleaf(payload))
        frames[-1].children.append(DOT)

        other = conflict.other_item
        if conflict.is_shift_reduce:
            # The shift item has the conflict terminal after its dot; append
            # the rest of the production and close everything plainly.
            for symbol in other.tail():
                frames[-1].children.append(dleaf(symbol))
            return self._complete(frames, conflict.terminal, force_terminal=False)
        # Reduce/reduce: try to place the conflict terminal, as on the
        # reduce side; this can fail for the second item, in which case the
        # sides legitimately diverge after the dot.
        snapshot = [
            _Frame(frame.production, list(frame.children)) for frame in frames
        ]
        try:
            return self._complete(frames, conflict.terminal, force_terminal=True)
        except CompletionError:
            return self._complete(snapshot, conflict.terminal, force_terminal=False)

    @staticmethod
    def _transition_sequence(
        path: list[LASGEdge],
    ) -> tuple[list[int], list[Symbol]]:
        """States at each input position and the symbols consumed between them."""
        states: list[int] = [0]
        symbols: list[Symbol] = []
        for edge in path:
            if not edge.is_production_step:
                assert edge.symbol is not None
                symbols.append(edge.symbol)
                states.append(edge.target.state_id)
        return states, symbols

    def _backward_walk(
        self,
        conflict: Conflict,
        states: list[int],
        symbols: list[Symbol],
        budget: Budget | None = None,
    ) -> list[tuple[str, object]]:
        """Find production steps/transitions reaching the other conflict item.

        Searches backward from ``(position m, other item)`` to
        ``(0, start item)`` over the path's state sequence, using reverse
        transitions (which must consume the recorded symbol) and reverse
        production steps (within the recorded state). Returns forward-order
        operations ``("step", production)`` / ``("shift", symbol)``.
        """
        lookups = self.automaton.lookups
        last_position = len(symbols)
        target = (0, self.automaton.start_item)
        origin = (last_position, conflict.other_item)

        parents: dict[tuple[int, Item], tuple[tuple[int, Item], str]] = {}
        queue: deque[tuple[int, Item]] = deque([origin])
        seen = {origin}
        while queue:
            if budget is not None:
                budget.charge()
                budget.poll("nonunifying")
            position, item = queue.popleft()
            if (position, item) == target:
                break
            if item.dot > 0:
                if position > 0 and item.previous_symbol == symbols[position - 1]:
                    retreated = item.retreat()
                    if retreated in lookups.item_sets[states[position - 1]]:
                        node = (position - 1, retreated)
                        if node not in seen:
                            seen.add(node)
                            parents[node] = ((position, item), "shift")
                            queue.append(node)
            else:
                state = self.automaton.states[states[position]]
                # Prefer parents with fewer symbols left after the dot:
                # those trailing symbols all end up in the counterexample,
                # so this keeps the reported example minimal (Figure 5(b)
                # uses the short if-production as the outer context).
                candidates = sorted(
                    lookups.reverse_production_steps(state, item),
                    key=lambda parent: len(parent.production.rhs) - parent.dot,
                )
                for parent_item in candidates:
                    node = (position, parent_item)
                    if node not in seen:
                        seen.add(node)
                        parents[node] = ((position, item), "step")
                        queue.append(node)
        else:
            raise PathNotFoundError(
                f"no backward walk from {conflict.other_item} over the "
                "lookahead-sensitive path's states — automaton inconsistency",
                stage="nonunifying",
                conflict=str(conflict),
                state_id=conflict.state_id,
            )

        # Read the chain forward from the start item.
        operations: list[tuple[str, object]] = []
        node = target
        while node != origin:
            (successor, kind) = parents[node]
            if kind == "step":
                # Forward direction: node is the parent item, successor the
                # dot-0 item entered by the production step.
                operations.append(("step", successor[1].production))
            else:
                operations.append(("shift", symbols[node[0]]))
            node = successor
        return operations

