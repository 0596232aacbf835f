"""Shared, lazily computed artifacts for one grammar.

Every lint pass receives one :class:`LintContext`. Expensive artifacts —
the grammar analysis, the automaton, parse tables, the SLR conflict
count, the canonical and minimal LR(1) automata, the SR-walk verdicts and
conflict provenance — are computed at most once per context and shared.
It is the one per-grammar artifact set of every entry point: the CLI,
the service worker, the campaign runner and the fuzz harness (which hands
the same context to the differential oracle) each build one context on
the automaton they already hold. The canonical LR(1) construction is
capped (it can be exponential) and attempted at most once; passes must
treat :attr:`LintContext.lr1` being ``None`` with :attr:`lr1_capped` set
as "unknown", not "clean".
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from repro.automaton.lalr import LALRAutomaton
from repro.automaton.lr1 import LR1Automaton
from repro.automaton.slr import count_slr_conflicts
from repro.grammar import Grammar, GrammarAnalysis
from repro.lint.diagnostics import SourceSpan

if TYPE_CHECKING:
    from repro.perf.cache import AutomatonCache


class LintContext:
    """Everything a lint pass may consult, computed lazily and shared."""

    def __init__(
        self,
        grammar: Grammar,
        source_path: str | None = None,
        automaton: LALRAutomaton | None = None,
        max_lr1_states: int = 20_000,
        cache: AutomatonCache | None = None,
    ) -> None:
        """*automaton* may be any construction (``lalr`` when omitted);
        *cache*, when given, memoizes the LALR automaton the context
        builds and the walk verdicts."""
        self.grammar = grammar
        self.source_path = source_path
        self.max_lr1_states = max_lr1_states
        self.cache = cache
        self._automaton = automaton
        self.lr1_capped = False

    # ------------------------------------------------------------------ #

    @cached_property
    def analysis(self) -> GrammarAnalysis:
        return GrammarAnalysis(self.grammar)

    @property
    def automaton(self) -> LALRAutomaton:
        if self._automaton is None:
            from repro.perf.cache import build_automaton_cached

            self._automaton = build_automaton_cached(self.grammar, self.cache, "lalr")
        return self._automaton

    @property
    def tables(self):
        return self.automaton.tables

    @property
    def conflicts(self):
        return self.automaton.conflicts

    @cached_property
    def slr_conflict_count(self) -> int:
        return count_slr_conflicts(self.automaton.lr0, self.automaton.analysis)

    @cached_property
    def lr1(self) -> LR1Automaton | None:
        """The canonical LR(1) automaton, or ``None`` when capped."""
        try:
            return LR1Automaton(self.grammar, max_states=self.max_lr1_states)
        except RuntimeError:
            self.lr1_capped = True
            return None

    @cached_property
    def minimal_lr1(self):
        """The minimal-LR(1) automaton built from :attr:`lr1`, or ``None``
        when LR(1) is capped."""
        from repro.automaton.ielr import build_ielr

        lr1 = self.lr1
        return None if lr1 is None else build_ielr(self.grammar, lr1=lr1)

    @cached_property
    def ambiguity_verdicts(self):
        """Per-conflict SR-walk ambiguity verdicts (empty if conflict-free).

        With a :attr:`cache`, verdicts are read from (and written back
        to) the ``"ambiguity"`` block of the automaton's cache entry.
        """
        from repro.analysis import analyze_conflicts

        automaton = self.automaton
        if self.cache is None:
            return analyze_conflicts(automaton)
        cached = self.cache.get_verdicts(automaton.grammar, automaton)
        if cached is not None:
            return cached
        verdicts = analyze_conflicts(automaton)
        try:
            self.cache.put_verdicts(automaton.grammar, automaton, verdicts)
        except OSError:
            pass  # a read-only cache directory must not fail the analysis
        return verdicts

    @cached_property
    def provenance(self):
        """Per-conflict genuine/merge-artifact classification.

        A conflict-exact automaton (``ielr``/``lr1``) is classified
        without building LR(1); a capped LR(1) construction yields
        UNKNOWN verdicts rather than a second attempt.
        """
        from repro.automaton.ielr import classify_conflicts

        if not self.conflicts:
            return {}
        lalr = self.automaton.algorithm == "lalr"
        return classify_conflicts(
            self.automaton,
            self.minimal_lr1 if lalr else None,
            max_lr1_states=self.max_lr1_states,
        )

    # ------------------------------------------------------------------ #
    # Span helpers

    def production_span(self, production) -> SourceSpan:
        """Span of one production (unknown for programmatic grammars)."""
        return SourceSpan(line=production.line)

    def nonterminal_span(self, nonterminal) -> SourceSpan:
        """Span of the first production defining *nonterminal*."""
        for production in self.grammar.productions_of(nonterminal):
            if production.line is not None:
                return SourceSpan(line=production.line)
        return SourceSpan()

    def precedence_span(self, terminal) -> SourceSpan:
        """Span of *terminal*'s precedence declaration."""
        return SourceSpan(line=self.grammar.precedence.declaration_line(terminal))
