"""Interned integer-bitset lookahead sets over a per-grammar terminal index.

The counterexample hot paths — the LALR lookahead fixpoint, the
lookahead-sensitive graph, and the unifying search's stage-1 lookahead
discipline — spend most of their time hashing, comparing, and unioning
small sets of :class:`~repro.grammar.symbols.Terminal` objects. This
module replaces those ``frozenset[Terminal]`` values with plain ``int``
bitmasks over a fixed :class:`TerminalTable`:

* membership is ``mask >> bit & 1``;
* union is ``|``; equality is ``==`` on ints; hashing is int hashing —
  all C-speed, no per-element work;
* the masks of one automaton are *interned*: every distinct lookahead
  set exists as exactly one :class:`LookaheadBitset` adapter object.

:class:`LookaheadBitset` is a :class:`collections.abc.Set` over
``Terminal`` so every existing consumer — report rendering, the
differential oracle's subset checks, tests comparing against
``frozenset`` literals — keeps working unchanged: ``in``, iteration,
``len``, ``==``/``<=``/``|``/``&`` against plain (frozen)sets, and a
hash equal to the hash of the equivalent ``frozenset`` (via
:meth:`collections.abc.Set._hash`). Iteration yields terminals in
table order, which is sorted by name, so ``sorted(...)``-based report
rendering is byte-identical to the frozenset era.

The table's terminal order is deterministic (name-sorted, end marker
included), which also makes the serialized automaton format
(:mod:`repro.automaton.serialize`) stable across machines.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Iterable, Iterator

from repro.grammar import END_OF_INPUT, Grammar, Terminal


class TerminalTable:
    """A fixed bit-position index over one grammar's terminals.

    Bit ``i`` of a mask corresponds to ``self.terminals[i]``; terminals
    are ordered by name so masks, iteration, and serialized pools are
    deterministic. The end-of-input marker always has a bit.
    """

    __slots__ = ("terminals", "index", "_views")

    def __init__(self, terminals: Iterable[Terminal]) -> None:
        ordered = sorted(set(terminals) | {END_OF_INPUT}, key=lambda t: t.name)
        self.terminals: tuple[Terminal, ...] = tuple(ordered)
        self.index: dict[Terminal, int] = {
            terminal: bit for bit, terminal in enumerate(self.terminals)
        }
        #: Interning pool: mask -> the unique adapter for that mask.
        self._views: dict[int, "LookaheadBitset"] = {}

    @classmethod
    def for_grammar(cls, grammar: Grammar) -> "TerminalTable":
        return cls(grammar.terminals)

    # ------------------------------------------------------------------ #

    def bit_of(self, terminal: Terminal) -> int:
        """The single-bit mask for *terminal*, or ``0`` if unknown.

        Unknown terminals (e.g. a doctored conflict terminal in tests)
        get the empty mask so membership tests are simply always false,
        mirroring ``terminal in frozenset(...)`` semantics.
        """
        bit = self.index.get(terminal)
        return 0 if bit is None else 1 << bit

    def mask_of(self, terminals: Iterable[Terminal]) -> int:
        """The mask with one bit per known terminal in *terminals*."""
        if isinstance(terminals, LookaheadBitset) and terminals.table is self:
            return terminals.mask
        index = self.index
        mask = 0
        for terminal in terminals:
            bit = index.get(terminal)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def iter_mask(self, mask: int) -> Iterator[Terminal]:
        """Terminals of *mask* in table (name-sorted) order."""
        terminals = self.terminals
        while mask:
            low = mask & -mask
            yield terminals[low.bit_length() - 1]
            mask ^= low

    def view(self, mask: int) -> "LookaheadBitset":
        """The interned set-like adapter for *mask*."""
        view = self._views.get(mask)
        if view is None:
            view = self._views[mask] = LookaheadBitset(self, mask)
        return view


class LookaheadBitset(AbstractSet):
    """A frozen, set-like view of an ``int`` lookahead mask.

    Equal to (and hashing like) the ``frozenset`` of its terminals, so
    it is a drop-in replacement everywhere the automaton layer used to
    hand out frozensets. Same-table operations short-circuit to integer
    arithmetic; mixed operations fall back to generic set semantics and
    produce plain frozensets.
    """

    __slots__ = ("table", "mask", "_hash")

    def __init__(self, table: TerminalTable, mask: int) -> None:
        self.table = table
        self.mask = mask
        self._hash: int | None = None

    # -- core set protocol --------------------------------------------- #

    def __contains__(self, value: object) -> bool:
        bit = self.table.index.get(value)  # type: ignore[arg-type]
        return bit is not None and (self.mask >> bit) & 1 == 1

    def __iter__(self) -> Iterator[Terminal]:
        return self.table.iter_mask(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    @classmethod
    def _from_iterable(cls, iterable: Iterable) -> frozenset:
        # Results of mixed-type set operations are plain frozensets; the
        # interned views are only ever minted by their TerminalTable.
        return frozenset(iterable)

    # -- fast paths ----------------------------------------------------- #

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LookaheadBitset) and other.table is self.table:
            return self.mask == other.mask
        return super().__eq__(other)

    def __le__(self, other: AbstractSet) -> bool:
        if isinstance(other, LookaheadBitset) and other.table is self.table:
            return self.mask & ~other.mask == 0
        return super().__le__(other)

    def __or__(self, other):
        if isinstance(other, LookaheadBitset) and other.table is self.table:
            return self.table.view(self.mask | other.mask)
        return super().__or__(other)

    def __and__(self, other):
        if isinstance(other, LookaheadBitset) and other.table is self.table:
            return self.table.view(self.mask & other.mask)
        return super().__and__(other)

    def __sub__(self, other):
        if isinstance(other, LookaheadBitset) and other.table is self.table:
            return self.table.view(self.mask & ~other.mask)
        return super().__sub__(other)

    def __hash__(self) -> int:
        # Set._hash computes the same value frozenset would for equal
        # elements, so views and frozensets interoperate as dict keys.
        cached = self._hash
        if cached is None:
            cached = self._hash = self._hash_value()
        return cached

    def _hash_value(self) -> int:
        return AbstractSet._hash(self)

    def __reduce__(self) -> tuple:
        # Cross-process transport (parallel explanation) does not carry
        # the table; unpickle as the equivalent plain frozenset.
        return (frozenset, (tuple(self),))

    def __repr__(self) -> str:
        names = ", ".join(sorted(t.name for t in self))
        return f"LookaheadBitset({{{names}}})"
