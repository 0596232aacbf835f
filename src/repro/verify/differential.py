"""Cross-construction and cross-runtime consistency oracle.

The library builds the same grammar through several independent pipelines
— SLR(1), LALR(1) via the channel algorithm, minimal LR(1) (IELR-style
state splitting), canonical LR(1), and three parser runtimes
(table-driven LR, Earley over sentential forms, GLR).
:class:`DifferentialOracle` asserts the invariants that tie them
together; any violation is a bug in one of the constructions, reported as
a :class:`Disagreement` rather than an exception.

Construction invariants (per LR(0) core and item):

* LALR(1) lookaheads equal the union of canonical LR(1) lookaheads over
  the states sharing the core (the defining property of LALR);
* LALR(1) lookaheads are contained in SLR(1) lookaheads for reduce items
  (the classic containment chain);
* a grammar whose LALR automaton is conflict-free before precedence
  resolution has a conflict-free canonical LR(1) automaton (merging can
  only add conflicts, never remove them);
* the minimal-LR(1) automaton has **exactly** the canonical LR(1) raw
  conflict signatures (the defining property of the split criterion) and
  its state count sits in the sandwich LALR ≤ IELR ≤ canonical LR(1).

Runtime invariants over sampled sentences (positive samples drawn by
random derivation, negative samples by random token strings):

* every positive sample is recognised by the Earley oracle;
* the LR and GLR runtimes are *sound*: any accepted string is recognised
  by Earley;
* without precedence declarations the GLR runtime is *complete*: it
  accepts every string Earley recognises (precedence deliberately drops
  table entries, so completeness is only asserted on precedence-free
  grammars);
* a grammar with zero unresolved conflicts never yields two distinct GLR
  parses (conflict-free LALR implies unambiguous).

One static-analysis invariant ties the SR pair walk
(:mod:`repro.analysis`) to the runtimes: a grammar whose conflicts are
**all** proved ``unambiguous`` (with no precedence-resolved table entries
hiding further conflicts) never yields an ambiguous sampled sentence.
The walk's per-conflict checks — every ``ambiguous`` witness re-proved,
no ``unambiguous`` conflict with a verified unifying counterexample —
need the finder's reports and live in the fuzz harness
(:mod:`repro.verify.harness`), so this module knows nothing of how
counterexamples are found.

Every artifact — the LALR automaton, canonical and minimal LR(1), the
walk verdicts — is read from one :class:`~repro.lint.context.LintContext`,
which the harness shares with the lint passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.automaton.lr1 import LR1Automaton
from repro.automaton.slr import compute_slr_lookaheads
from repro.grammar import END_OF_INPUT, Nonterminal, Symbol, Terminal
from repro.parsing.earley import DerivationBudgetExceeded, EarleyParser
from repro.parsing.glr import GLRParser, TooManyParses
from repro.parsing.runtime import LRParser, ParseError

if TYPE_CHECKING:
    from repro.lint.context import LintContext

#: Token budget for sampled sentences.
MAX_SAMPLE_LENGTH = 24
#: GLR live-configuration cap; blow-ups are skipped, not failed.
GLR_MAX_CONFIGURATIONS = 500


@dataclass(frozen=True)
class Disagreement:
    """One violated consistency invariant."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


@dataclass
class DifferentialReport:
    """Everything one oracle run observed."""

    grammar_name: str
    disagreements: list[Disagreement] = field(default_factory=list)
    samples_checked: int = 0
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def describe(self) -> str:
        status = "consistent" if self.ok else "INCONSISTENT"
        lines = [
            f"differential oracle for {self.grammar_name!r}: {status} "
            f"({self.samples_checked} samples)"
        ]
        lines.extend(f"  DISAGREE {d}" for d in self.disagreements)
        lines.extend(f"  skip {reason}" for reason in self.skipped)
        return "\n".join(lines)


class DifferentialOracle:
    """Checks one grammar's constructions and runtimes against each other.

    Args:
        context: The grammar's shared artifacts; its LR(1) cap bounds the
            canonical LR(1) comparison (skipped, not failed, beyond it).
        num_samples: Positive and negative sample sentences each.
        seed: PRNG seed for sampling (deterministic per grammar+seed).
    """

    def __init__(
        self, context: LintContext, num_samples: int = 8, seed: int = 0
    ) -> None:
        self.context = context
        self.grammar = context.grammar
        self.automaton = context.automaton
        self.analysis = self.automaton.analysis
        self.num_samples = num_samples
        self.seed = seed

    # ------------------------------------------------------------------ #

    def check(self) -> DifferentialReport:
        """Run every invariant; collect disagreements instead of raising."""
        report = DifferentialReport(grammar_name=self.grammar.name)
        self._check_slr_containment(report)
        lr1 = self.context.lr1
        if lr1 is None:
            report.skipped.append(
                "lr1-agreement: canonical LR(1) construction exceeded "
                f"{self.context.max_lr1_states} states"
            )
        else:
            self._check_lr1_agreement(report, lr1)
            self._check_ielr_agreement(report, lr1)
        self._check_runtime_agreement(report)
        self._check_ambiguity_agreement(report)
        return report

    # ------------------------------------------------------------------ #
    # Construction invariants

    def _check_slr_containment(self, report: DifferentialReport) -> None:
        slr = compute_slr_lookaheads(self.automaton.lr0, self.analysis)
        for (state_id, item), follow in slr.items():
            lalr = self.automaton.lookahead(state_id, item)
            if not lalr <= follow:
                report.disagreements.append(
                    Disagreement(
                        "slr-containment",
                        f"state {state_id}, item [{item}]: LALR lookaheads "
                        f"{sorted(map(str, lalr - follow))} missing from "
                        f"SLR FOLLOW set",
                    )
                )

    def _check_lr1_agreement(
        self, report: DifferentialReport, lr1: LR1Automaton
    ) -> None:
        merged = lr1.merged_lookaheads()
        for state in self.automaton.states:
            core = frozenset(state.items)
            for item in state.items:
                lalr = self.automaton.lookahead(state, item)
                union = merged.get((core, item))
                if union is None:
                    report.disagreements.append(
                        Disagreement(
                            "lr1-core-missing",
                            f"state {state.id}, item [{item}]: no canonical "
                            "LR(1) state shares this core",
                        )
                    )
                elif union != lalr:
                    report.disagreements.append(
                        Disagreement(
                            "lr1-lookahead-union",
                            f"state {state.id}, item [{item}]: LALR "
                            f"{sorted(map(str, lalr))} != union of LR(1) "
                            f"{sorted(map(str, union))}",
                        )
                    )
        if not self._raw_lalr_conflicts() and lr1.has_conflicts():
            report.disagreements.append(
                Disagreement(
                    "lr1-vs-lalr-conflicts",
                    "canonical LR(1) has conflicts but the merged LALR "
                    "automaton has none",
                )
            )

    def _raw_lalr_conflicts(self) -> bool:
        """Conflicts before precedence resolution (mirrors LR1.has_conflicts)."""
        for state in self.automaton.states:
            reducers: dict[Terminal, int] = {}
            for item in state.items:
                if not item.at_end or item.production.index == 0:
                    continue
                for terminal in self.automaton.lookahead(state, item):
                    reducers[terminal] = reducers.get(terminal, 0) + 1
            for terminal, count in reducers.items():
                if count > 1:
                    return True
                if terminal in state.transitions and terminal != END_OF_INPUT:
                    return True
        return False

    def _check_ielr_agreement(
        self, report: DifferentialReport, lr1: LR1Automaton
    ) -> None:
        from repro.automaton.ielr import (
            canonical_conflict_signatures,
            conflict_signatures,
        )

        ielr = self.context.minimal_lr1
        ielr_signatures = conflict_signatures(ielr)
        lr1_signatures = canonical_conflict_signatures(lr1)
        if ielr_signatures != lr1_signatures:
            extra = ielr_signatures - lr1_signatures
            missing = lr1_signatures - ielr_signatures
            report.disagreements.append(
                Disagreement(
                    "ielr-conflict-signatures",
                    f"minimal LR(1) conflicts differ from canonical: "
                    f"{len(extra)} manufactured, {len(missing)} lost",
                )
            )
        if len(ielr.states) > len(lr1.states):
            report.disagreements.append(
                Disagreement(
                    "ielr-state-sandwich",
                    f"the minimal quotient has more states than canonical "
                    f"LR(1): {len(ielr.states)} > {len(lr1.states)}",
                )
            )
        # The LALR-relative invariants assume the LR(0) and LR(1)
        # collections share their cores, which only holds when every
        # nonterminal is productive (LR(1) closure drops items whose
        # lookahead context is empty, pruning dead regions the LR(0)
        # collection keeps).
        if self.grammar.nonproductive_nonterminals:
            report.skipped.append(
                "ielr-agreement: nonproductive nonterminals; "
                "LALR-relative invariants not applicable"
            )
            return
        if len(self.automaton.states) > len(ielr.states):
            report.disagreements.append(
                Disagreement(
                    "ielr-state-sandwich",
                    f"state counts violate LALR <= IELR: "
                    f"{len(self.automaton.states)} > {len(ielr.states)}",
                )
            )
        # Per LR(0) core and item, the union of IELR lookaheads over the
        # split states must reproduce the LALR lookahead sets — splitting
        # repartitions lookaheads, it never invents or drops them.
        union_by_core: dict[tuple[frozenset, object], set] = {}
        for state in ielr.states:
            core = frozenset(state.items)
            for item in state.items:
                key = (core, item)
                union_by_core.setdefault(key, set()).update(
                    ielr.lookahead(state, item)
                )
        for state in self.automaton.states:
            core = frozenset(state.items)
            for item in state.items:
                lalr = self.automaton.lookahead(state, item)
                union = union_by_core.get((core, item))
                if union is None:
                    report.disagreements.append(
                        Disagreement(
                            "ielr-core-missing",
                            f"state {state.id}, item [{item}]: no minimal "
                            "LR(1) state shares this core",
                        )
                    )
                elif union != lalr:
                    report.disagreements.append(
                        Disagreement(
                            "ielr-lookahead-union",
                            f"state {state.id}, item [{item}]: LALR "
                            f"{sorted(map(str, lalr))} != union of IELR "
                            f"{sorted(map(str, union))}",
                        )
                    )

    # ------------------------------------------------------------------ #
    # Runtime invariants

    def _check_runtime_agreement(self, report: DifferentialReport) -> None:
        if self.grammar.start in self.grammar.nonproductive_nonterminals:
            report.skipped.append("runtime-agreement: start symbol nonproductive")
            return
        rng = random.Random(self.seed)
        earley = EarleyParser(self.grammar)
        glr = GLRParser(self.automaton, max_configurations=GLR_MAX_CONFIGURATIONS)
        lr = LRParser(self.automaton, allow_conflicts=True)
        has_precedence = len(self.grammar.precedence) > 0
        conflict_free = not self.automaton.conflicts
        terminal_pool = [t for t in self.grammar.terminals if t != END_OF_INPUT]

        samples: list[tuple[list[Terminal], bool]] = []
        for _ in range(self.num_samples):
            sentence = self._sample_sentence(rng)
            if sentence is not None:
                samples.append((sentence, True))
        for _ in range(self.num_samples):
            if terminal_pool:
                length = rng.randint(0, min(6, MAX_SAMPLE_LENGTH))
                samples.append(
                    ([rng.choice(terminal_pool) for _ in range(length)], False)
                )

        for sentence, is_positive in samples:
            report.samples_checked += 1
            rendered = " ".join(t.name for t in sentence) or "<empty>"
            in_language = earley.recognizes(self.grammar.start, sentence)
            if is_positive and not in_language:
                report.disagreements.append(
                    Disagreement(
                        "earley-rejects-derived",
                        f"Earley rejects the sampled derivation yield "
                        f"{rendered!r}",
                    )
                )
                continue
            try:
                trees = glr.parse_all(sentence)
            except TooManyParses:
                report.skipped.append(
                    f"runtime-agreement: GLR blow-up on {rendered!r}"
                )
                trees = None
            if trees is not None:
                if trees and not in_language:
                    report.disagreements.append(
                        Disagreement(
                            "glr-unsound",
                            f"GLR accepts {rendered!r} but Earley rejects it",
                        )
                    )
                if not trees and in_language and not has_precedence:
                    report.disagreements.append(
                        Disagreement(
                            "glr-incomplete",
                            f"Earley recognises {rendered!r} but GLR "
                            "rejects it (no precedence to excuse it)",
                        )
                    )
                if len(trees) >= 2 and conflict_free:
                    report.disagreements.append(
                        Disagreement(
                            "ambiguity-without-conflicts",
                            f"{rendered!r} has {len(trees)} GLR parses but "
                            "the LALR automaton reports no conflicts",
                        )
                    )
            lr_accepts = self._lr_accepts(lr, sentence)
            if lr_accepts and not in_language:
                report.disagreements.append(
                    Disagreement(
                        "lr-unsound",
                        f"the LR driver accepts {rendered!r} but Earley "
                        "rejects it",
                    )
                )
            if (
                not lr_accepts
                and in_language
                and conflict_free
                and not has_precedence
            ):
                report.disagreements.append(
                    Disagreement(
                        "lr-incomplete",
                        f"conflict-free tables reject {rendered!r} which "
                        "Earley recognises",
                    )
                )

    def _check_ambiguity_agreement(self, report: DifferentialReport) -> None:
        """When *every* conflict is proved ``unambiguous`` — and no
        precedence-resolved entries hide further nondeterminism — no
        sampled sentence may be ambiguous. Walker exceptions propagate:
        the fuzz harness classifies them as crashes (broken-walker
        canary).
        """
        conflicts = self.automaton.conflicts
        if not conflicts:
            return
        from repro.analysis import AmbiguityVerdict

        proven = {
            conflict
            for conflict, verdict in self.context.ambiguity_verdicts.items()
            if verdict.verdict is AmbiguityVerdict.UNAMBIGUOUS
        }
        if not proven.issuperset(conflicts):
            return
        if self.automaton.tables.resolved_count:
            report.skipped.append(
                "ambiguity-agreement: precedence-resolved entries hide "
                "conflicts the walk never saw"
            )
            return
        start = self.grammar.start
        if start in self.grammar.nonproductive_nonterminals:
            report.skipped.append(
                "ambiguity-agreement: start symbol nonproductive"
            )
            return
        earley = EarleyParser(self.grammar)
        rng = random.Random(self.seed + 1)
        for _ in range(self.num_samples):
            sentence = self._sample_sentence(rng)
            if sentence is None:
                continue
            report.samples_checked += 1
            rendered = " ".join(t.name for t in sentence) or "<empty>"
            try:
                count = earley.count_derivations(
                    start, sentence, limit=2, step_budget=200_000
                )
            except DerivationBudgetExceeded:
                report.skipped.append(
                    "ambiguity-agreement: derivation count ran out of "
                    f"budget on {rendered!r}"
                )
                continue
            if count >= 2:
                report.disagreements.append(
                    Disagreement(
                        "ambiguous-despite-unambiguous-verdicts",
                        f"every conflict proved unambiguous but "
                        f"{rendered!r} has two distinct derivations",
                    )
                )

    @staticmethod
    def _lr_accepts(lr: LRParser, sentence: list[Terminal]) -> bool:
        try:
            lr.parse(sentence)
        except ParseError:
            return False
        return True

    def _sample_sentence(self, rng: random.Random) -> list[Terminal] | None:
        """A random terminal string derived from the start symbol.

        Random leftmost derivation with a step budget; once the budget is
        spent, every remaining nonterminal is spliced with its shortest
        terminal expansion, which guarantees termination.
        """
        start = self.grammar.start
        pending: list[Symbol] = [start]
        result: list[Terminal] = []
        steps = 0
        while pending:
            symbol = pending.pop(0)
            if symbol.is_terminal:
                assert isinstance(symbol, Terminal)
                result.append(symbol)
                continue
            assert isinstance(symbol, Nonterminal)
            steps += 1
            over_budget = (
                steps > 4 * MAX_SAMPLE_LENGTH or len(result) >= MAX_SAMPLE_LENGTH
            )
            if over_budget or symbol in self.grammar.nonproductive_nonterminals:
                try:
                    result.extend(self.analysis.shortest_expansion(symbol))
                except ValueError:
                    return None  # nonproductive: no sample possible
                continue
            production = rng.choice(self.grammar.productions_of(symbol))
            pending[:0] = production.rhs
        return result
