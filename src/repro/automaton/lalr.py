"""LALR(1) lookahead computation and the main automaton facade.

Lookaheads are computed for **every** item of every state (not just kernel
items) with the channel/propagation-graph algorithm:

* seed: the start item of state 0 carries ``{$}``;
* goto channel: an item's lookahead flows unchanged to its advanced item
  in the successor state;
* closure channel: for ``A -> α . B β`` with lookahead ``L``, each closure
  item ``B -> . γ`` in the same state spontaneously receives ``FIRST(β)``
  and additionally receives ``L`` when ``β`` is nullable.

The fixpoint of these channels is exactly the LALR(1) lookahead function,
and having it for closure items too is what the counterexample algorithms
need (the paper's lookahead-sensitive graph and the stage-1 constraint of
the unifying search both consult arbitrary items' lookahead sets).
"""

from __future__ import annotations

from functools import cached_property

from repro.automaton.bitset import LookaheadBitset, TerminalTable
from repro.automaton.items import Item
from repro.automaton.lr0 import LR0Automaton, LR0State
from repro.perf import metrics
from repro.grammar import (
    END_OF_INPUT,
    Grammar,
    GrammarAnalysis,
    Production,
    Terminal,
)


def compute_lalr_lookahead_masks(
    automaton: LR0Automaton,
    analysis: GrammarAnalysis,
    table: TerminalTable,
) -> dict[tuple[int, Item], int]:
    """LALR(1) lookaheads as int bitmasks over *table*.

    The channels form a propagation graph over the automaton's dense
    ``(state, item)`` ids (:class:`~repro.automaton.index.StateItemIndex`):
    an edge ``u -> v`` says ``v``'s lookahead includes ``u``'s, and each
    id starts from its spontaneous terminals. The least solution is, for
    every id, the union of the starting masks of all ids that reach it —
    DeRemer and Pennello's *digraph* problem ("Efficient Computation of
    LALR(1) Look-Ahead Sets", TOPLAS 1982). Their traversal collapses
    each strongly connected component onto its root and unions masks in
    one depth-first pass, where a worklist re-propagates a mask every
    time it grows. The property tests check the result against a
    ``frozenset`` worklist over the same channels, key by key.
    """
    index = automaton.index
    size = len(index)
    next_symbol = index.next_symbol
    item_number = index.item_number
    item_of = index.item_of
    transition = index.transition
    production_steps = index.production_steps
    mask_of = table.mask_of

    masks = [0] * size
    # Id 0 is state 0's first item, ``START' -> . S $``.
    masks[0] = table.bit_of(END_OF_INPUT)
    #: reads[v]: the ids whose lookahead flows into v.
    reads: list[list[int]] = [[] for _ in range(size)]
    #: item number -> (FIRST(β) mask, β nullable) for ``A -> α . B β``
    closure_parts: dict[int, tuple[int, bool]] = {}
    for node in range(size):
        symbol = next_symbol[node]
        if symbol is None:
            continue
        reads[transition(node)].append(node)
        if symbol.is_nonterminal:
            number = item_number[node]
            parts = closure_parts.get(number)
            if parts is None:
                item = item_of[node]
                first, nullable = analysis.first_of_sequence_ex(
                    item.production.rhs[item.dot + 1 :]
                )
                parts = closure_parts[number] = (mask_of(first), nullable)
            spontaneous, nullable = parts
            for step in production_steps(node):
                masks[step] |= spontaneous
                if nullable:
                    reads[step].append(node)

    # Iterative DeRemer-Pennello traversal. depth[x] is 0 before x is
    # visited, its stack depth while its component is open, and `done`
    # once the component is closed and every member holds the union.
    done = size + 1
    depth = [0] * size
    stack: list[int] = []
    for root in range(size):
        if depth[root]:
            continue
        stack.append(root)
        depth[root] = len(stack)
        call_nodes = [root]
        call_depths = [len(stack)]
        call_reads = [iter(reads[root])]
        while call_nodes:
            node = call_nodes[-1]
            for source in call_reads[-1]:
                if not depth[source]:
                    stack.append(source)
                    depth[source] = len(stack)
                    call_nodes.append(source)
                    call_depths.append(len(stack))
                    call_reads.append(iter(reads[source]))
                    break
                if depth[source] < depth[node]:
                    depth[node] = depth[source]
                masks[node] |= masks[source]
            else:
                call_nodes.pop()
                call_reads.pop()
                if depth[node] == call_depths.pop():
                    mask = masks[node]
                    while True:
                        member = stack.pop()
                        depth[member] = done
                        masks[member] = mask
                        if member == node:
                            break
                if call_nodes:
                    caller = call_nodes[-1]
                    if depth[node] < depth[caller]:
                        depth[caller] = depth[node]
                    masks[caller] |= masks[node]

    return dict(zip(zip(index.state_of, index.item_of), masks))


class LALRAutomaton:
    """An LALR(1) automaton: LR(0) skeleton plus per-item lookahead sets.

    This is the facade the rest of the library builds on. It exposes the
    state graph, lookahead queries, reverse-action lookup tables, the
    parse tables, and the conflict list.
    """

    #: Which table construction produced this automaton. The minimal/
    #: canonical LR(1) subclass (:mod:`repro.automaton.ielr`) and the
    #: serialization decoder override this per instance.
    algorithm: str = "lalr"

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.terminal_table = TerminalTable.for_grammar(grammar)
        with metrics.span("automaton"):
            with metrics.span("lr0"):
                self.lr0 = LR0Automaton(grammar)
            with metrics.span("lookaheads"):
                self.lookahead_masks: dict[tuple[int, Item], int] = (
                    compute_lalr_lookahead_masks(
                        self.lr0, self.analysis, self.terminal_table
                    )
                )
        metrics.count("automaton.states", len(self.lr0.states))
        metrics.count(
            "automaton.items",
            sum(len(state.items) for state in self.lr0.states),
        )

    @cached_property
    def analysis(self) -> GrammarAnalysis:
        """Nullable/FIRST analysis, computed on first use.

        Lazy so that an automaton rebuilt from the serialized cache
        (:mod:`repro.perf.cache`) only pays for the analysis when a
        consumer — the LASG, the lint engine — actually asks for it.
        """
        with metrics.span("analysis"):
            return GrammarAnalysis(self.grammar)

    # ------------------------------------------------------------------ #
    # State graph queries

    @property
    def states(self) -> list[LR0State]:
        return self.lr0.states

    @property
    def start_state(self) -> LR0State:
        return self.lr0.start_state

    @property
    def start_item(self) -> Item:
        """The item ``START' -> . S $`` of state 0."""
        return self.start_state.items[0]

    def goto(self, state: LR0State, symbol) -> LR0State | None:
        return self.lr0.goto(state, symbol)

    @cached_property
    def lookaheads(self) -> dict[tuple[int, Item], LookaheadBitset]:
        """Set-like lookahead views for every ``(state id, item)`` pair.

        Views are interned per distinct mask and compare/hash exactly
        like the frozensets they replaced, so report rendering and tests
        written against the frozenset era are unchanged. Built lazily:
        the hot paths consult :attr:`lookahead_masks` directly and never
        force this materialisation.
        """
        view = self.terminal_table.view
        return {key: view(mask) for key, mask in self.lookahead_masks.items()}

    def lookahead(self, state: LR0State | int, item: Item) -> LookaheadBitset:
        """The LALR(1) lookahead set of *item* within *state*."""
        state_id = state if isinstance(state, int) else state.id
        return self.lookaheads[(state_id, item)]

    @cached_property
    def masks_by_id(self) -> list[int]:
        """:attr:`lookahead_masks` as a list indexed by ``lr0.index`` id.

        Every builder fills the dict state by state in ``state.items``
        order, which is id order; the keys are checked by identity and
        looked up only if that ever fails. The cache decoder fills this
        list directly.
        """
        index = self.lr0.index
        masks = self.lookahead_masks
        keys = list(masks)
        if len(keys) == len(index) and all(
            key[0] == state_id and key[1] is item
            for key, state_id, item in zip(keys, index.state_of, index.item_of)
        ):
            return list(masks.values())
        return [masks[pair] for pair in zip(index.state_of, index.item_of)]

    def lookahead_mask(self, state_id: int, item: Item) -> int:
        """The lookahead of ``(state_id, item)`` as a raw int bitmask."""
        return self.lookahead_masks[(state_id, item)]

    def terminal_bit(self, terminal: Terminal) -> int:
        """Single-bit mask for *terminal* (0 when unknown to the grammar)."""
        return self.terminal_table.bit_of(terminal)

    @cached_property
    def _follow_parts_cache(self) -> dict[tuple[int, int], tuple[int, bool]]:
        return {}

    def follow_parts(self, production: Production, dot: int) -> tuple[int, bool]:
        """``(FIRST(rhs[dot+1:]) as a mask, nullable?)``, memoized.

        The two ingredients of the paper's *precise follow* set
        (``follow_L`` in §4): a production step from ``A -> α . B β``
        with context ``L`` carries lookahead ``FIRST(β) ∪ (L if β
        nullable)``. Keyed by ``(production.index, dot)`` — a handful of
        distinct keys per grammar, consulted hundreds of thousands of
        times by the LASG and the unifying search's reverse moves.
        """
        key = (production.index, dot)
        parts = self._follow_parts_cache.get(key)
        if parts is None:
            first, nullable = self.analysis.first_of_sequence_ex(
                production.rhs[dot + 1 :]
            )
            parts = (self.terminal_table.mask_of(first), nullable)
            self._follow_parts_cache[key] = parts
        return parts

    # ------------------------------------------------------------------ #
    # Derived artifacts (built lazily)

    @cached_property
    def tables(self):
        """ACTION/GOTO parse tables with precedence-based conflict resolution."""
        from repro.automaton.tables import build_tables

        with metrics.span("tables"):
            return build_tables(self)

    @cached_property
    def conflicts(self):
        """Unresolved conflicts, in (state, terminal) order.

        Found from the lookahead masks alone
        (:func:`~repro.automaton.tables.find_conflicts`), without the
        ACTION/GOTO rows; ``tables.conflicts`` is this same list. An
        automaton decoded from the cache (:mod:`repro.automaton.serialize`)
        carries it from the document.
        """
        from repro.automaton.tables import find_conflicts

        with metrics.span("conflicts"):
            conflicts = find_conflicts(self)
        metrics.count("automaton.conflicts", len(conflicts))
        return conflicts

    @cached_property
    def lookups(self):
        """Reverse-action lookup tables (paper §6 "Data structures")."""
        from repro.automaton.lookups import ReverseLookups

        return ReverseLookups(self)

    # ------------------------------------------------------------------ #

    def __str__(self) -> str:
        lines: list[str] = []
        for state in self.states:
            lines.append(f"State {state.id}")
            for item in state.items:
                las = ", ".join(sorted(str(t) for t in self.lookahead(state, item)))
                lines.append(f"  {item}  {{{las}}}")
            for symbol, target in sorted(
                state.transitions.items(), key=lambda pair: str(pair[0])
            ):
                lines.append(f"  on {symbol} -> state {target.id}")
            lines.append("")
        return "\n".join(lines)


def build_lalr(grammar: Grammar) -> LALRAutomaton:
    """Construct the LALR(1) automaton for *grammar*."""
    return LALRAutomaton(grammar)
