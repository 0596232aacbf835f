"""Counterexample result objects."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.automaton.conflicts import Conflict
from repro.core.derivation import (
    DOT,
    Derivation,
    derivation_from_tokens,
    format_symbols,
)
from repro.grammar import Grammar, Nonterminal, Symbol, Terminal


@dataclass(frozen=True)
class Counterexample:
    """A counterexample explaining one parsing conflict.

    Attributes:
        conflict: The conflict being explained.
        unifying: ``True`` when both derivations derive the *same*
            sentential form from the same nonterminal — a proof of
            ambiguity. ``False`` for a nonunifying counterexample: the
            two derivations share a prefix up to the conflict point but
            may diverge after it.
        nonterminal: The unifying nonterminal (for unifying examples) or
            the derivation root (for nonunifying ones).
        derivation1: The derivation using the conflict's *reduce* item.
        derivation2: The derivation using the conflict's shift item (or
            second reduce item for reduce/reduce conflicts).
        timed_out: Whether the unifying search timed out before this
            (necessarily nonunifying) counterexample was produced.
        search_cost: Internal search cost, recorded for benchmarks.
    """

    conflict: Conflict
    unifying: bool
    nonterminal: Nonterminal | None
    derivation1: Derivation
    derivation2: Derivation
    timed_out: bool = False
    search_cost: float = 0.0

    # ------------------------------------------------------------------ #

    def example1(self) -> tuple[object, ...]:
        """Yield of the reduce-item derivation (symbols and the dot marker)."""
        return self.derivation1.yield_symbols()

    def example2(self) -> tuple[object, ...]:
        """Yield of the other derivation."""
        return self.derivation2.yield_symbols()

    def example1_symbols(self) -> tuple[Symbol, ...]:
        """Yield of the reduce-item derivation without the dot marker."""
        return tuple(s for s in self.example1() if s is not DOT)  # type: ignore[misc]

    def example2_symbols(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.example2() if s is not DOT)  # type: ignore[misc]

    def prefix(self) -> tuple[Symbol, ...]:
        """The common prefix up to the conflict point."""
        result: list[Symbol] = []
        for element in self.example1():
            if element is DOT:
                break
            result.append(element)  # type: ignore[arg-type]
        return tuple(result)

    # ------------------------------------------------------------------ #

    def to_json(self) -> dict[str, Any]:
        """JSON-ready form; :meth:`from_json` restores it (conflict aside)."""
        return {
            "unifying": self.unifying,
            "nonterminal": None if self.nonterminal is None else self.nonterminal.name,
            "derivation1": self.derivation1.to_tokens(),
            "derivation2": self.derivation2.to_tokens(),
            "cost": self.search_cost,
        }

    @classmethod
    def from_json(
        cls, data: Mapping[str, Any], conflict: Conflict, grammar: Grammar
    ) -> "Counterexample":
        """The counterexample :meth:`to_json` encoded, for *conflict* of
        *grammar*. Malformed *data* raises ``ValueError`` (or ``KeyError``,
        ``IndexError``, ``TypeError``), and so do unifying derivations
        that do not both expand the nonterminal to one sentential form.
        """
        name = data["nonterminal"]
        example = cls(
            conflict=conflict,
            unifying=bool(data["unifying"]),
            nonterminal=None if name is None else Nonterminal(name),
            derivation1=derivation_from_tokens(data["derivation1"], grammar),
            derivation2=derivation_from_tokens(data["derivation2"], grammar),
            search_cost=float(data["cost"]),
        )
        first, second = example.derivation1, example.derivation2
        if example.unifying and not (
            first.children is not None
            and first.symbol == second.symbol == example.nonterminal
            and example.example1_symbols() == example.example2_symbols()
        ):
            raise ValueError("unifying derivations disagree")
        return example

    def describe(self) -> str:
        """Multi-line, human-oriented description (see also repro.core.report)."""
        lines: list[str] = []
        if self.unifying:
            lines.append(f"Ambiguity detected for nonterminal {self.nonterminal}")
            lines.append(f"Example: {format_symbols(self.example1())}")
            lines.append("Derivation using reduction:")
            lines.append(f"  {self.derivation1.render()}")
            lines.append("Derivation using shift:" if self.conflict.is_shift_reduce
                         else "Derivation using second reduction:")
            lines.append(f"  {self.derivation2.render()}")
        else:
            lines.append(f"Example using reduction: {format_symbols(self.example1())}")
            lines.append(f"  derivation: {self.derivation1.render()}")
            second = "shift" if self.conflict.is_shift_reduce else "second reduction"
            lines.append(f"Example using {second}: {format_symbols(self.example2())}")
            lines.append(f"  derivation: {self.derivation2.render()}")
        return "\n".join(lines)

    def __str__(self) -> str:
        kind = "unifying" if self.unifying else "nonunifying"
        return f"<{kind} counterexample: {format_symbols(self.example1())}>"


@dataclass(frozen=True)
class ConflictStub:
    """The last rung of the degradation ladder: no counterexample, but
    everything the parser tables alone can say about the conflict.

    Emitted when both the unifying search and the nonunifying
    construction failed (fault, budget overrun, or internal
    inconsistency), so the report still explains *where* the conflict
    lives: the state, both items, the lookahead sets of the reduce item,
    and the shortest lookahead-sensitive prefix when one was computed
    before the failure.
    """

    conflict: Conflict
    #: Precise lookaheads of the reduce item in the conflict state.
    lookaheads: frozenset[Terminal] = frozenset()
    #: Transition symbols of the shortest lookahead-sensitive path, when
    #: the LASG stage completed before a later stage failed.
    prefix: tuple[Symbol, ...] | None = None

    def describe(self) -> str:
        conflict = self.conflict
        lines = [
            f"Conflict stub for state #{conflict.state_id} "
            f"under symbol {conflict.terminal}",
            f"  reduce item: {conflict.reduce_item}",
            f"  other item:  {conflict.other_item}",
        ]
        if self.lookaheads:
            las = ", ".join(sorted(str(t) for t in self.lookaheads))
            lines.append(f"  reduce-item lookaheads: {{{las}}}")
        if self.prefix is not None:
            rendered = " ".join(str(s) for s in self.prefix) or "(empty)"
            lines.append(f"  shortest conflict prefix: {rendered}")
        else:
            lines.append("  shortest conflict prefix: unavailable")
        return "\n".join(lines)
