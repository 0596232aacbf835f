"""Classic grammar analyses: nullability, FIRST, FOLLOW, and expansions.

:class:`GrammarAnalysis` bundles the fixpoint computations every LR
construction needs, plus two derivation oracles the counterexample
algorithms rely on:

* :meth:`GrammarAnalysis.shortest_expansion` — a minimal terminal string
  derivable from a nonterminal;
* :meth:`GrammarAnalysis.starter_production` — the first step of a minimal
  derivation of a nonterminal whose yield *begins with a given terminal*
  (used in §4 to complete nonunifying counterexamples so that the conflict
  terminal immediately follows the dot).

Nullable and FIRST are computed in the constructor, since every
construction reads them; every other table is computed on first use, so
a consumer pays only for the tables it reads (the automaton cache's warm
path needs neither FOLLOW nor the starter table). Instances are cheap to
query and safe to share.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from repro.grammar.grammar import Grammar, Production
from repro.grammar.symbols import END_OF_INPUT, Nonterminal, Symbol, Terminal

#: Effectively-infinite cost marker for unreachable expansions.
_INFINITY = float("inf")


class GrammarAnalysis:
    """Nullable / FIRST / FOLLOW sets and minimal-derivation oracles."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.nullable: frozenset[Nonterminal] = self._compute_nullable()
        self.first: dict[Symbol, frozenset[Terminal]] = self._compute_first()

    # ------------------------------------------------------------------ #
    # Tables computed on first use

    @cached_property
    def follow(self) -> dict[Nonterminal, frozenset[Terminal]]:
        """FOLLOW sets (read by SLR and the lint rules)."""
        return self._compute_follow()

    @cached_property
    def _min_yield(self) -> dict[Symbol, float]:
        return self._compute_min_yield()

    @cached_property
    def _nullable_production(self) -> dict[Nonterminal, Production]:
        return self._compute_nullable_productions()

    @cached_property
    def _starters(self) -> dict[tuple[Nonterminal, Terminal], tuple[Production, int]]:
        return self._compute_starters()

    @cached_property
    def first_symbols(self) -> dict[Symbol, frozenset[Symbol]]:
        """Symbol-level FIRST (see :meth:`_compute_first_symbols`)."""
        return self._compute_first_symbols()

    # ------------------------------------------------------------------ #
    # Fixpoint computations

    def _compute_nullable(self) -> frozenset[Nonterminal]:
        nullable: set[Nonterminal] = set()
        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                if production.lhs in nullable:
                    continue
                if all(
                    symbol.is_nonterminal and symbol in nullable
                    for symbol in production.rhs
                ):
                    nullable.add(production.lhs)
                    changed = True
        return frozenset(nullable)

    def _compute_first(self) -> dict[Symbol, frozenset[Terminal]]:
        first: dict[Symbol, set[Terminal]] = {}
        for terminal in self.grammar.terminals:
            first[terminal] = {terminal}
        first[END_OF_INPUT] = {END_OF_INPUT}
        for nonterminal in self.grammar.nonterminals:
            first[nonterminal] = set()

        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                target = first[production.lhs]
                before = len(target)
                for symbol in production.rhs:
                    target.update(first[symbol])
                    if not (symbol.is_nonterminal and symbol in self.nullable):
                        break
                if len(target) != before:
                    changed = True
        return {symbol: frozenset(values) for symbol, values in first.items()}

    def _compute_follow(self) -> dict[Nonterminal, frozenset[Terminal]]:
        follow: dict[Nonterminal, set[Terminal]] = {
            nonterminal: set() for nonterminal in self.grammar.nonterminals
        }
        follow[self.grammar.augmented_start].add(END_OF_INPUT)

        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                for index, symbol in enumerate(production.rhs):
                    if not symbol.is_nonterminal:
                        continue
                    assert isinstance(symbol, Nonterminal)
                    target = follow[symbol]
                    before = len(target)
                    tail = production.rhs[index + 1 :]
                    tail_first, tail_nullable = self.first_of_sequence_ex(tail)
                    target.update(tail_first)
                    if tail_nullable:
                        target.update(follow[production.lhs])
                    if len(target) != before:
                        changed = True
        return {symbol: frozenset(values) for symbol, values in follow.items()}

    def _compute_min_yield(self) -> dict[Symbol, float]:
        """Length of the shortest terminal string derivable from each symbol.

        Also records, per nonterminal, the production achieving the minimum
        (``self._min_yield_production``). Because the production is recorded
        only on a strict improvement, following these choices recursively is
        well-founded even for cyclic grammars.
        """
        cost: dict[Symbol, float] = {t: 1.0 for t in self.grammar.terminals}
        cost[END_OF_INPUT] = 1.0
        for nonterminal in self.grammar.nonterminals:
            cost[nonterminal] = _INFINITY
        self._min_yield_production: dict[Nonterminal, Production] = {}

        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                total = 0.0
                for symbol in production.rhs:
                    total += cost[symbol]
                    if total == _INFINITY:
                        break
                if total < cost[production.lhs]:
                    cost[production.lhs] = total
                    self._min_yield_production[production.lhs] = production
                    changed = True
        return cost

    def _compute_nullable_productions(self) -> dict[Nonterminal, Production]:
        """For each nullable nonterminal, one production usable to derive epsilon."""
        chosen: dict[Nonterminal, Production] = {}
        # Iterate in rounds so that the chosen production's nullable
        # children already have chosen productions of their own.
        resolved: set[Nonterminal] = set()
        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                if production.lhs in resolved or production.lhs not in self.nullable:
                    continue
                if all(symbol in resolved for symbol in production.rhs):
                    chosen[production.lhs] = production
                    resolved.add(production.lhs)
                    changed = True
        return chosen

    def _compute_starters(
        self,
    ) -> dict[tuple[Nonterminal, Terminal], tuple[Production, int]]:
        """For each ``(N, t)`` with ``t in FIRST(N)``, a minimal first step.

        The value ``(production, k)`` means: expand ``N`` with *production*,
        derive its first ``k`` right-hand-side symbols to epsilon, and
        continue deriving a ``t``-initial string from ``rhs[k]`` (or stop if
        ``rhs[k]`` is the terminal ``t`` itself). Steps are chosen to
        minimise the number of expansions, making completed
        counterexamples as small as possible.
        """
        cost: dict[tuple[Nonterminal, Terminal], float] = {}
        step: dict[tuple[Nonterminal, Terminal], tuple[Production, int]] = {}

        def symbol_cost(symbol: Symbol, terminal: Terminal) -> float:
            if symbol == terminal:
                return 0.0
            if symbol.is_nonterminal:
                return cost.get((symbol, terminal), _INFINITY)  # type: ignore[arg-type]
            return _INFINITY

        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                nullable_prefix_cost = 0.0
                for k, symbol in enumerate(production.rhs):
                    for terminal in self.first[symbol]:
                        candidate = (
                            1.0 + nullable_prefix_cost + symbol_cost(symbol, terminal)
                        )
                        key = (production.lhs, terminal)
                        if candidate < cost.get(key, _INFINITY):
                            cost[key] = candidate
                            step[key] = (production, k)
                            changed = True
                    if not (symbol.is_nonterminal and symbol in self.nullable):
                        break
                    # Deriving this nullable symbol to epsilon costs at
                    # least one expansion.
                    nullable_prefix_cost += 1.0
        return step

    def _compute_first_symbols(self) -> dict[Symbol, frozenset[Symbol]]:
        """Symbol-level FIRST: all symbols that can begin a derivation.

        Unlike classic FIRST (terminals only), ``first_symbols(X)``
        contains every grammar symbol — terminal or nonterminal — that can
        appear leftmost in some sentential form derived from ``X``,
        including ``X`` itself. The counterexample search uses this to ask
        "can parser 2 possibly produce a transition matching parser 1's?"
        at the *symbol* level, since product-parser transitions are joint
        on arbitrary symbols.
        """
        first_symbols: dict[Symbol, set[Symbol]] = {
            symbol: {symbol} for symbol in self.grammar.symbols
        }
        first_symbols.setdefault(END_OF_INPUT, {END_OF_INPUT})
        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                target = first_symbols[production.lhs]
                before = len(target)
                for symbol in production.rhs:
                    target.update(first_symbols[symbol])
                    if not (symbol.is_nonterminal and symbol in self.nullable):
                        break
                if len(target) != before:
                    changed = True
        return {symbol: frozenset(v) for symbol, v in first_symbols.items()}

    def first_symbols_of_sequence(
        self, symbols: Sequence[Symbol]
    ) -> tuple[frozenset[Symbol], bool]:
        """Symbol-level FIRST of a sentential form, plus its nullability."""
        result: set[Symbol] = set()
        for symbol in symbols:
            result.update(self.first_symbols[symbol])
            if not (symbol.is_nonterminal and symbol in self.nullable):
                return frozenset(result), False
        return frozenset(result), True

    # ------------------------------------------------------------------ #
    # Queries

    def is_nullable_sequence(self, symbols: Sequence[Symbol]) -> bool:
        """Whether every symbol in *symbols* can derive epsilon."""
        return all(
            symbol.is_nonterminal and symbol in self.nullable for symbol in symbols
        )

    def first_of_sequence_ex(
        self, symbols: Sequence[Symbol], tail: Iterable[Terminal] = ()
    ) -> tuple[frozenset[Terminal], bool]:
        """FIRST of a sentential form, and whether the form is nullable.

        *tail* terminals are included when the whole sequence is nullable
        (the ``L`` context of the paper's precise follow sets).
        """
        result: set[Terminal] = set()
        for symbol in symbols:
            result.update(self.first[symbol])
            if not (symbol.is_nonterminal and symbol in self.nullable):
                return frozenset(result), False
        result.update(tail)
        return frozenset(result), True

    def first_of_sequence(
        self, symbols: Sequence[Symbol], tail: Iterable[Terminal] = ()
    ) -> frozenset[Terminal]:
        """FIRST of a sentential form with context *tail* (see paper §4)."""
        return self.first_of_sequence_ex(symbols, tail)[0]

    def precise_follow(
        self, production: Production, dot: int, context: frozenset[Terminal]
    ) -> frozenset[Terminal]:
        """The paper's ``follow_L(itm)`` for an item ``A -> X1..Xk . X(k+1) ...``.

        Returns the terminals that can actually follow the symbol after the
        dot, given that *context* can follow the whole production.
        """
        if dot >= len(production.rhs):
            raise ValueError("precise_follow needs a symbol after the dot")
        return self.first_of_sequence(production.rhs[dot + 1 :], context)

    def min_yield_length(self, symbol: Symbol) -> float:
        """Length of the shortest terminal string derivable from *symbol*."""
        return self._min_yield[symbol]

    def nullable_production(self, nonterminal: Nonterminal) -> Production:
        """A production usable to derive *nonterminal* to epsilon."""
        return self._nullable_production[nonterminal]

    def starter_production(
        self, nonterminal: Nonterminal, terminal: Terminal
    ) -> tuple[Production, int] | None:
        """First step of a minimal derivation of *nonterminal* starting with *terminal*.

        Returns ``None`` when ``terminal not in FIRST(nonterminal)``.
        """
        return self._starters.get((nonterminal, terminal))

    def shortest_expansion(self, symbol: Symbol) -> tuple[Terminal, ...]:
        """A minimal terminal string derivable from *symbol*.

        Raises :class:`ValueError` for nonproductive nonterminals.
        """
        if symbol.is_terminal:
            return (symbol,)  # type: ignore[return-value]
        if self._min_yield[symbol] == _INFINITY:
            raise ValueError(f"{symbol} cannot derive a terminal string")
        assert isinstance(symbol, Nonterminal)
        production = self._min_yield_production[symbol]
        result: list[Terminal] = []
        for child in production.rhs:
            result.extend(self.shortest_expansion(child))
        return tuple(result)
