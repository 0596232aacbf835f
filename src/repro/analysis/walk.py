"""Bounded pair walks over the SR-automaton: per-conflict ambiguity verdicts.

A parsing conflict says the deterministic tables could not pick a single
action; it does *not* say the grammar is ambiguous.  This module decides
— per conflict — which of three worlds we are in, by walking the
nondeterministic SR view (:class:`~repro.analysis.sr.SRAutomaton`) with
*two* cursors at once, both consuming the same terminals:

``ambiguous``
    The walk found a sentence with two distinct bottom-up parses: both
    cursors took different actions at the conflict point yet reach
    acceptance (a joint shift of ``$``) on the same input.  The witness
    sentence is emitted so :mod:`repro.verify.validate` can confirm the
    two derivations independently.

``unambiguous``
    The walk space is finite and exhausts without either cursor pair
    reaching joint acceptance: in *every* context the two actions lead
    to at most one surviving parse.  This is sound because the walk
    starts from the bare conflict state and expands contexts *below* it
    nondeterministically via the predecessor arrays — all viable
    prefixes reaching the conflict are covered, and LALR lookahead masks
    only over-approximate the true follows, so gating reduces on them
    never prunes a real parse.

``inconclusive``
    The node budget (:mod:`repro.robust`) or a structural cap (stack
    depth, closure size) was hit first.  Nothing is claimed.

The walk state is a *suffix stack* of automaton states — the portion of
the parse stack above the deepest state the walk has committed to.  When
a reduction needs to pop below the suffix, the walk expands downward:
the bottom state's unique entry symbol and predecessor ids enumerate
every way the suffix can be extended, and each expansion prepends the
same state to both cursors, preserving the shared context.  Collected
entry symbols spell the viable prefix consumed before the conflict,
which concretizes (via shortest expansions) into the witness prefix.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.analysis.sr import SRAutomaton
from repro.automaton.conflicts import Conflict
from repro.automaton.lalr import LALRAutomaton
from repro.grammar import END_OF_INPUT, Production, Symbol, Terminal
from repro.perf import metrics
from repro.robust.budget import Budget
from repro.robust.errors import BudgetExhausted, Cancelled, SearchTimeout

#: Default per-conflict node budget for the pair walk.
DEFAULT_MAX_NODES = 4_000
#: Maximum tracked suffix-stack depth before a walk branch is truncated.
DEFAULT_MAX_STACK = 64
#: Maximum closure steps (reduce-chain exploration) per walk node.
DEFAULT_MAX_CLOSURE = 512


class AmbiguityVerdict(enum.Enum):
    """Outcome of a bounded SR pair walk for one conflict."""

    UNAMBIGUOUS = "unambiguous"
    AMBIGUOUS = "ambiguous"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConflictAmbiguity:
    """Per-conflict ambiguity verdict with optional witness sentence.

    Attributes:
        verdict: The walk's conclusion.
        witness: For ``ambiguous`` verdicts, a sentence (terminal
            sequence, without ``$``) with two distinct derivations —
            checkable independently by the Earley-based validator.
        detail: Human-readable one-line justification.
        nodes: Walk configurations explored before concluding.
    """

    verdict: AmbiguityVerdict
    witness: tuple[Terminal, ...] | None = None
    detail: str = ""
    nodes: int = 0

    def describe(self) -> str:
        """One-line rendering used by reports and diagnostics."""
        if self.verdict is AmbiguityVerdict.AMBIGUOUS:
            sentence = " ".join(t.name for t in self.witness or ())
            return f"proved ambiguous — witness: {sentence}" if sentence else (
                "proved ambiguous — witness: <empty sentence>"
            )
        if self.verdict is AmbiguityVerdict.UNAMBIGUOUS:
            return f"proved unambiguous — {self.detail}"
        return f"inconclusive — {self.detail}"

    def to_json(self) -> dict[str, Any]:
        """The verdict as reports and the automaton cache store it."""
        return {
            "verdict": self.verdict.value,
            "witness": (
                [t.name for t in self.witness] if self.witness is not None else None
            ),
            "detail": self.detail,
            "nodes": self.nodes,
        }

    @classmethod
    def from_json(
        cls, data: Mapping[str, Any], terminals: Mapping[str, Terminal]
    ) -> "ConflictAmbiguity":
        """Inverse of :meth:`to_json`; *terminals* maps witness names."""
        witness = data["witness"]
        return cls(
            verdict=AmbiguityVerdict(data["verdict"]),
            witness=(
                tuple(terminals[name] for name in witness)
                if witness is not None
                else None
            ),
            detail=data["detail"],
            nodes=data["nodes"],
        )


# Walk-node kinds: before the two cursors diverge the node tracks one
# suffix stack; afterwards it tracks the pair, sharing the bottom state.
_PRE = 0
_PAIR = 1

# Parent-edge kinds for witness reconstruction.
_TOK = "tok"
_CTX = "ctx"

#: Sentinel yielded by successor generators when the current node can
#: jointly shift ``$`` — acceptance on both cursors at once.
_ACCEPT = (None, None)


@dataclass
class _Walk:
    """One bounded pair walk for one conflict."""

    sr: SRAutomaton
    conflict: Conflict
    budget: Budget
    nodes: int = 0
    truncated: bool = False
    parents: dict = field(default_factory=dict)

    def run(self) -> ConflictAmbiguity:
        sr = self.sr
        t_bit = sr.terminal_bit(self.conflict.terminal)
        root = (_PRE, (self.conflict.state_id,))
        queue: deque[tuple] = deque([root])
        seen = {root}
        self.parents[root] = None
        rejected_witnesses = 0
        try:
            while queue:
                node = queue.popleft()
                self.nodes += 1
                self.budget.charge()
                self.budget.poll("ambiguity")
                for succ, edge in self._successors(node, t_bit):
                    if succ is None:
                        witness = self._witness(node)
                        if witness is not None:
                            return ConflictAmbiguity(
                                verdict=AmbiguityVerdict.AMBIGUOUS,
                                witness=witness,
                                detail=(
                                    "two distinct derivations reach acceptance"
                                ),
                                nodes=self.nodes,
                            )
                        # The accept path crosses a nonproductive context
                        # symbol — unrealizable as a sentence.  Keep
                        # searching; the exhausted walk can no longer
                        # claim unambiguity, only inconclusive.
                        rejected_witnesses += 1
                        self.truncated = True
                        continue
                    if succ in seen:
                        continue
                    seen.add(succ)
                    self.parents[succ] = (node, edge)
                    queue.append(succ)
                    # Enqueues are charged too: one node's successor
                    # cross-product can be huge, and an uncharged queue
                    # would let the walk outgrow its budget unboundedly.
                    self.budget.charge()
                    self.budget.poll("ambiguity")
        except (BudgetExhausted, SearchTimeout, Cancelled) as error:
            return ConflictAmbiguity(
                verdict=AmbiguityVerdict.INCONCLUSIVE,
                detail=(
                    f"walk budget exhausted after {self.nodes} configurations"
                    f" ({error.__class__.__name__})"
                ),
                nodes=self.nodes,
            )
        if self.truncated:
            caps = (
                f"stack depth {DEFAULT_MAX_STACK} / closure {DEFAULT_MAX_CLOSURE}"
                if rejected_witnesses == 0
                else "accept path crossed a nonproductive context symbol"
            )
            return ConflictAmbiguity(
                verdict=AmbiguityVerdict.INCONCLUSIVE,
                detail=f"walk truncated ({caps}) after {self.nodes} configurations",
                nodes=self.nodes,
            )
        return ConflictAmbiguity(
            verdict=AmbiguityVerdict.UNAMBIGUOUS,
            detail=(
                "every SR pair-walk dies or diverges; "
                f"{self.nodes} configurations explored"
            ),
            nodes=self.nodes,
        )

    # ------------------------------------------------------------------ #
    # Successor generation

    def _successors(
        self, node: tuple, t_bit: int
    ) -> Iterator[tuple[Any, Any]]:
        if node[0] == _PRE:
            yield from self._pre_successors(node, t_bit)
        else:
            yield from self._pair_successors(node)

    def _pre_successors(
        self, node: tuple, t_bit: int
    ) -> Iterator[tuple[Any, Any]]:
        """Diverge: cursor A takes the reduce, cursor B the rival action."""
        stack = node[1]
        conflict = self.conflict
        moves_a, under_a = self._forced_reduce(
            stack, conflict.reduce_item.production, t_bit
        )
        if conflict.is_shift_reduce:
            moves_b, under_b = self._forced_shift(stack, t_bit)
        else:
            moves_b, under_b = self._forced_reduce(
                stack, conflict.other_item.production, t_bit
            )
        if moves_a and moves_b:
            if t_bit == self.sr.end_bit:
                yield _ACCEPT
            else:
                for stack_a in moves_a:
                    for stack_b in moves_b:
                        yield (
                            (_PAIR, stack_a, stack_b),
                            (_TOK, conflict.terminal),
                        )
        if under_a or under_b:
            yield from self._expansions(node)

    def _pair_successors(self, node: tuple) -> Iterator[tuple[Any, Any]]:
        """Advance both cursors over one shared terminal."""
        sr = self.sr
        _, stack_a, stack_b = node
        if stack_a == stack_b:
            # Converged: both cursors behave identically from here on, so
            # only diagonal successors matter — any completion to $ works.
            moves, underflow = self._closure_moves(stack_a, sr.full_mask)
            if sr.end_bit in moves:
                yield _ACCEPT
            for bit in sorted(moves):
                terminal = self._terminal_of(bit)
                for stack in moves[bit]:
                    yield ((_PAIR, stack, stack), (_TOK, terminal))
            if underflow:
                yield from self._expansions(node)
            return
        moves_a, under_a = self._closure_moves(stack_a, sr.full_mask)
        moves_b, under_b = self._closure_moves(stack_b, sr.full_mask)
        common = moves_a.keys() & moves_b.keys()
        if sr.end_bit in common:
            yield _ACCEPT
        for bit in sorted(common):
            terminal = self._terminal_of(bit)
            for new_a in moves_a[bit]:
                for new_b in moves_b[bit]:
                    yield ((_PAIR, new_a, new_b), (_TOK, terminal))
        if under_a or under_b:
            yield from self._expansions(node)

    def _expansions(self, node: tuple) -> Iterator[tuple[Any, Any]]:
        """Extend the shared context one state below the suffix bottom."""
        sr = self.sr
        bottom = node[1][0]
        entry = sr.entry_symbols[bottom]
        if entry is None:
            return  # start state: nothing below, by construction.
        if len(node[1]) >= DEFAULT_MAX_STACK:
            self.truncated = True
            return
        for predecessor in sr.predecessor_ids[bottom]:
            if node[0] == _PRE:
                succ = (_PRE, (predecessor, *node[1]))
            else:
                succ = (
                    _PAIR,
                    (predecessor, *node[1]),
                    (predecessor, *node[2]),
                )
            yield succ, (_CTX, entry)

    # ------------------------------------------------------------------ #
    # Single-cursor moves

    def _forced_reduce(
        self, stack: tuple[int, ...], production: Production, t_bit: int
    ) -> tuple[list[tuple[int, ...]], bool]:
        """Apply *production*, then close until *t_bit* can be shifted.

        Returns the post-shift stacks and whether any step needed to pop
        below the tracked suffix.
        """
        pop = len(production.rhs)
        if pop >= len(stack):
            return [], True
        base = stack[:-pop] if pop else stack
        target = self.sr.goto_id(base[-1], production.lhs)
        if target < 0:
            return [], False
        reduced = (*base, target)
        if len(reduced) > DEFAULT_MAX_STACK:
            self.truncated = True
            return [], False
        moves, underflow = self._closure_moves(reduced, t_bit)
        return moves.get(t_bit, []), underflow

    def _forced_shift(
        self, stack: tuple[int, ...], t_bit: int
    ) -> tuple[list[tuple[int, ...]], bool]:
        """Shift the conflict terminal directly off the top state."""
        top = stack[-1]
        if not self.sr.shift_masks[top] & t_bit:
            return [], False
        target = self.sr.shift_targets[top][t_bit]
        shifted = (*stack, target)
        if len(shifted) > DEFAULT_MAX_STACK:
            self.truncated = True
            return [], False
        return [shifted], False

    def _closure_moves(
        self, stack: tuple[int, ...], allowed: int
    ) -> tuple[dict[int, list[tuple[int, ...]]], bool]:
        """All one-terminal moves from *stack*, chasing reduce chains.

        Explores every sequence of reductions (gated by the LALR
        lookahead masks intersected with *allowed*) and records, per
        terminal bit, the stacks reachable by then shifting that
        terminal.  Reports underflow when some chain would pop below the
        suffix; the caller turns that into a context expansion.
        """
        sr = self.sr
        moves: dict[int, list[tuple[int, ...]]] = {}
        emitted: set[tuple[int, tuple[int, ...]]] = set()
        agenda: list[tuple[tuple[int, ...], int]] = [(stack, allowed)]
        visited = {(stack, allowed)}
        underflow = False
        steps = 0
        while agenda:
            steps += 1
            if steps > DEFAULT_MAX_CLOSURE:
                self.truncated = True
                break
            current, mask = agenda.pop()
            top = current[-1]
            shiftable = sr.shift_masks[top] & mask
            if shiftable:
                targets = sr.shift_targets[top]
                remaining = shiftable
                while remaining:
                    low = remaining & -remaining
                    shifted = (*current, targets[low])
                    if len(shifted) > DEFAULT_MAX_STACK:
                        self.truncated = True
                    elif (low, shifted) not in emitted:
                        emitted.add((low, shifted))
                        moves.setdefault(low, []).append(shifted)
                    remaining ^= low
            for production, pop, lhs, la_mask in sr.reduces[top]:
                gated = la_mask & mask
                if not gated:
                    continue
                if pop >= len(current):
                    underflow = True
                    continue
                base = current[:-pop] if pop else current
                target = sr.goto_id(base[-1], lhs)
                if target < 0:
                    continue
                reduced = (*base, target)
                if len(reduced) > DEFAULT_MAX_STACK:
                    self.truncated = True
                    continue
                key = (reduced, gated)
                if key not in visited:
                    visited.add(key)
                    agenda.append(key)
        for stacks in moves.values():
            stacks.sort()
        return moves, underflow

    # ------------------------------------------------------------------ #
    # Witness reconstruction

    def _terminal_of(self, bit: int) -> Terminal:
        for terminal in self.sr.iter_mask(bit):
            return terminal
        raise AssertionError(f"no terminal for bit {bit:#x}")

    def _witness(self, node: tuple) -> tuple[Terminal, ...] | None:
        """Concretize the accept path into a sentence, or ``None``.

        Walking node→root yields the consumed terminals newest-first
        (reversed below) and the context entry symbols deepest-expansion
        first — which *is* sentence-prefix order, since later expansions
        sit further below the conflict state.  A nonproductive context
        nonterminal makes the path unrealizable.
        """
        tokens: list[Terminal] = []
        context: list[Symbol] = []
        cursor = node
        while True:
            parent = self.parents[cursor]
            if parent is None:
                break
            cursor, (kind, payload) = parent
            if kind == _TOK:
                tokens.append(payload)
            else:
                context.append(payload)
        tokens.reverse()
        analysis = self.sr.automaton.analysis
        sentence: list[Terminal] = []
        for symbol in context:
            if symbol.is_terminal:
                if symbol != END_OF_INPUT:
                    sentence.append(symbol)  # type: ignore[arg-type]
                continue
            try:
                sentence.extend(analysis.shortest_expansion(symbol))
            except ValueError:
                return None
        sentence.extend(token for token in tokens if token != END_OF_INPUT)
        return tuple(sentence)


# ---------------------------------------------------------------------- #
# Public entry points


def walk_conflict(
    sr: SRAutomaton,
    conflict: Conflict,
    *,
    budget: Budget | None = None,
) -> ConflictAmbiguity:
    """Run one bounded pair walk and return the conflict's verdict."""
    if budget is None:
        budget = Budget(max_nodes=DEFAULT_MAX_NODES, stage="ambiguity")
    return _Walk(sr=sr, conflict=conflict, budget=budget).run()


def analyze_conflicts(
    automaton: LALRAutomaton, *, max_nodes: int = DEFAULT_MAX_NODES
) -> dict[Conflict, ConflictAmbiguity]:
    """Walk every reported conflict of *automaton*, yielding verdicts.

    Each conflict gets a fresh node-only budget of *max_nodes* —
    deterministic across machines, so golden verdicts can be pinned.
    """
    conflicts = automaton.conflicts
    if not conflicts:
        return {}
    sr = SRAutomaton(automaton)
    with metrics.span("analysis/walk"):
        verdicts = {
            conflict: walk_conflict(
                sr, conflict, budget=Budget(max_nodes=max_nodes, stage="ambiguity")
            )
            for conflict in conflicts
        }
        for verdict in verdicts.values():
            metrics.count(f"analysis.verdict.{verdict.verdict.value}")
        return verdicts

