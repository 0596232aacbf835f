"""Derivation trees for counterexamples.

A :class:`Derivation` is like a parse tree, except that

* leaves may be *nonterminals* — counterexamples keep symbols abstract
  whenever the concrete expansion is irrelevant to the conflict (§3.2);
* a special **dot marker** (:data:`DOT`) records the conflict point in the
  yield, rendered as ``•``.

The final counterexample string is the yield of a derivation; for a
unifying counterexample the two derivations have identical yields, and for
a nonunifying counterexample the yields share a prefix up to the dot.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.grammar import END_OF_INPUT, Grammar, Production, Symbol
from repro.parsing.tree import ParseTree, leaf as tree_leaf, node as tree_node


class Derivation:
    """A derivation node.

    ``children is None`` marks an *unexpanded* leaf: the symbol stands for
    itself (any derivation of it would do). Otherwise the node expands
    *symbol* by *production* into *children*, which may include the
    :data:`DOT` marker in addition to one sub-derivation per right-hand
    side symbol.

    Nodes are immutable by convention and compare by value. Hashes are
    cached bottom-up at construction (deep derivations arise during long
    searches; hashing must not recurse). Slots, not a per-node
    ``__dict__``: a long search keeps hundreds of thousands alive.
    """

    __slots__ = ("symbol", "children", "production", "_hash")

    def __init__(
        self,
        symbol: Symbol | None,
        children: tuple["Derivation", ...] | None = None,
        production: Production | None = None,
    ) -> None:
        self.symbol = symbol
        self.children = children
        self.production = production
        self._hash = hash(
            (
                symbol,
                None if children is None else tuple(child._hash for child in children),
                None if production is None else production.index,
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return (self.symbol, self.children, self.production) == (
            other.symbol,
            other.children,
            other.production,
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Derivation(symbol={self.symbol!r}, children={self.children!r}, "
            f"production={self.production!r})"
        )

    @property
    def is_dot(self) -> bool:
        return self.symbol is None

    @property
    def is_leaf(self) -> bool:
        return self.children is None and self.symbol is not None

    def yield_symbols(self, keep_dot: bool = True) -> tuple[object, ...]:
        """The leaf sequence; the dot appears as the :data:`DOT` object."""
        result: list[object] = []
        for element in self._walk_leaves():
            if element.is_dot:
                if keep_dot:
                    result.append(DOT)
            else:
                result.append(element.symbol)
        return tuple(result)

    def _walk_leaves(self) -> Iterator["Derivation"]:
        stack: list[Derivation] = [self]
        while stack:
            node = stack.pop()
            if node.children is None:
                yield node
            else:
                stack.extend(reversed(node.children))

    # ------------------------------------------------------------------ #

    def to_parse_tree(self) -> ParseTree:
        """Convert to a :class:`~repro.parsing.tree.ParseTree`, dropping the dot."""
        if self.is_dot:
            raise ValueError("the dot marker alone has no parse tree")
        if self.children is None:
            assert self.symbol is not None
            return tree_leaf(self.symbol)
        assert self.production is not None
        children = [
            child.to_parse_tree() for child in self.children if not child.is_dot
        ]
        return tree_node(self.production, children)

    def size(self) -> int:
        """Number of non-dot nodes (iterative — derivations can be deep)."""
        count = 0
        stack: list[Derivation] = [self]
        while stack:
            node = stack.pop()
            if node.is_dot:
                continue
            count += 1
            if node.children is not None:
                stack.extend(node.children)
        return count

    # ------------------------------------------------------------------ #
    # Rendering (paper Figure 11 style)

    def render(self) -> str:
        """Nested bracket rendering: ``expr ::= [expr ::= [expr • + expr] + expr]``."""
        if self.is_dot:
            return "•"
        if self.children is None:
            return str(self.symbol)
        inner = " ".join(child.render() for child in self.children)
        return f"{self.symbol} ::= [{inner}]"

    def __str__(self) -> str:
        return self.render()

    def to_tokens(self) -> list[int | str]:
        """Flat pre-order JSON tokens: per expanded node its production's
        index and child count, per leaf its symbol's name, ``-1`` for the
        dot (:func:`derivation_from_tokens` reads them back)."""
        tokens: list[int | str] = []
        stack: list[Derivation] = [self]
        while stack:
            node = stack.pop()
            if node.children is not None:
                assert node.production is not None
                tokens += (node.production.index, len(node.children))
                stack.extend(reversed(node.children))
            else:
                tokens.append(-1 if node.symbol is None else node.symbol.name)
        return tokens

    def __reduce__(self) -> tuple:
        # Rebuild through the constructor: the cached ``_hash`` embeds
        # per-process-randomized string hashes and must be recomputed on
        # the receiving side, and the :data:`DOT` sentinel is compared by
        # identity so it must unpickle to the module singleton.
        if self.symbol is None and self.children is None:
            return (_restore_dot, ())
        return (Derivation, (self.symbol, self.children, self.production))


#: The conflict-point marker.
DOT = Derivation(None)


def _restore_dot() -> Derivation:
    """Unpickling hook returning the :data:`DOT` singleton."""
    return DOT


def dleaf(symbol: Symbol) -> Derivation:
    """An unexpanded leaf derivation."""
    return Derivation(symbol)


def dnode(production: Production, children: Sequence[Derivation]) -> Derivation:
    """An expansion node applying *production*.

    *children* must contain exactly one non-dot entry per right-hand-side
    symbol, in order, with the dot marker allowed anywhere.
    """
    real = [child for child in children if not child.is_dot]
    if len(real) != len(production.rhs):
        raise ValueError(
            f"production {production} expects {len(production.rhs)} children, "
            f"got {len(real)}"
        )
    for child, expected in zip(real, production.rhs):
        if child.symbol != expected:
            raise ValueError(
                f"child {child.symbol} does not match {expected} in {production}"
            )
    return Derivation(production.lhs, tuple(children), production)


def derivation_from_tokens(tokens: Sequence[object], grammar: Grammar) -> Derivation:
    """The derivation :meth:`Derivation.to_tokens` encoded, over *grammar*.

    Each expanded node is rebuilt by :func:`dnode`, so its children must
    match its production. Malformed tokens raise ``ValueError`` (or
    ``IndexError``/``KeyError``/``TypeError``; ``RecursionError`` past
    the interpreter's depth limit).
    """
    symbols = {symbol.name: symbol for symbol in grammar.symbols}
    stream = iter(tokens)

    def read() -> Derivation:
        token = next(stream, None)
        if type(token) is str:
            return Derivation(symbols[token])
        if token == -1:
            return DOT
        count = next(stream, None)
        if type(token) is not int or token < 0 or type(count) is not int:
            raise ValueError(f"bad derivation tokens {token!r}, {count!r}")
        production = grammar.productions[token]
        return dnode(production, [read() for _ in range(count)])

    root = read()
    if root is DOT or next(stream, None) is not None:
        raise ValueError("not one derivation")
    return root


def format_symbols(elements: Sequence[object], hide_eof: bool = True) -> str:
    """Render a yield (symbols and the dot marker) as one line."""
    parts: list[str] = []
    for element in elements:
        if element is DOT:
            parts.append("•")
        elif isinstance(element, Derivation):
            parts.append("•" if element.is_dot else str(element.symbol))
        else:
            if hide_eof and element == END_OF_INPUT:
                continue
            parts.append(str(element))
    return " ".join(parts)
