"""Independent validation of counterexamples (the paper's central claim).

The finder promises that every reported counterexample is *true*: a
unifying counterexample exhibits two genuinely distinct derivations of
one sentential form, and a nonunifying counterexample exhibits two
derivable sentential forms sharing a prefix up to the conflict point,
with the conflict terminal immediately after the dot. Nothing in the
finder itself is trusted here — the validator replays each derivation
against the grammar production by production and re-establishes the
semantic claims with the independent parser runtimes:

* the **Earley oracle** (:class:`~repro.parsing.earley.EarleyParser`)
  re-derives each sentential form and, for unifying counterexamples,
  re-counts distinct derivation trees;
* optionally the **GLR runtime** (:class:`~repro.parsing.glr.GLRParser`)
  parses a fully concretised terminal string (nonterminal leaves expanded
  minimally) over a precedence-free automaton rooted at the unifying
  nonterminal, and must also see at least two parses.

The GLR cross-check runs over freshly built tables, so it exercises a
construction path entirely disjoint from the one that produced the
counterexample. Checks that cannot run (GLR configuration blow-up,
nonproductive symbols in the form) are recorded as *skipped*, never as
failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counterexample import Counterexample
from repro.core.derivation import DOT, Derivation, format_symbols
from repro.grammar import (
    END_OF_INPUT,
    Grammar,
    GrammarAnalysis,
    Nonterminal,
    Symbol,
    Terminal,
)
from repro.parsing.earley import DerivationBudgetExceeded, EarleyParser
from repro.parsing.glr import GLRParser, TooManyParses

#: The GLR cross-check is skipped for concretised strings longer than this.
MAX_CONCRETE_LENGTH = 80


@dataclass(frozen=True)
class ValidationResult:
    """The verdict of one counterexample validation.

    Attributes:
        kind: ``"unifying"`` or ``"nonunifying"``.
        passed: Names of the checks that succeeded.
        failures: One ``"check: detail"`` entry per failed check.
        skipped: Checks that could not run (with the reason).
    """

    kind: str
    passed: tuple[str, ...]
    failures: tuple[str, ...]
    skipped: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        """One line per check, grouped by outcome."""
        lines = [f"{self.kind} counterexample: {'OK' if self.ok else 'REJECTED'}"]
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        for name in self.passed:
            lines.append(f"  pass {name}")
        for reason in self.skipped:
            lines.append(f"  skip {reason}")
        return "\n".join(lines)


class _Checks:
    """Accumulates per-check outcomes while a validation runs."""

    def __init__(self) -> None:
        self.passed: list[str] = []
        self.failures: list[str] = []
        self.skipped: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        if ok:
            self.passed.append(name)
        else:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def skip(self, name: str, reason: str) -> None:
        self.skipped.append(f"{name}: {reason}")

    def result(self, kind: str) -> ValidationResult:
        return ValidationResult(
            kind=kind,
            passed=tuple(self.passed),
            failures=tuple(self.failures),
            skipped=tuple(self.skipped),
        )


class CounterexampleValidator:
    """Replays and re-proves counterexamples against their grammar.

    Args:
        grammar: The grammar the counterexamples were found for.
        glr_check: Also cross-check with the GLR runtime over freshly
            built, precedence-free tables (slower; rebuilt tables are
            cached per root nonterminal).
        glr_max_configurations: Live-configuration cap for the GLR
            cross-check; blow-ups are recorded as skipped checks.
        earley_step_budget: Step cap for the Earley derivation count;
            running out (possible only on heavily cyclic grammars) records
            the ambiguity check as skipped, never as failed.
    """

    def __init__(
        self,
        grammar: Grammar,
        glr_check: bool = False,
        glr_max_configurations: int = 2_000,
        earley_step_budget: int | None = 500_000,
    ) -> None:
        self.grammar = grammar
        self.glr_check = glr_check
        self.glr_max_configurations = glr_max_configurations
        self.earley_step_budget = earley_step_budget
        self._earley = EarleyParser(grammar)
        self._analysis = GrammarAnalysis(grammar)
        self._glr_parsers: dict[Nonterminal, GLRParser] = {}

    # ------------------------------------------------------------------ #
    # Public API

    def validate(self, counterexample: Counterexample) -> ValidationResult:
        """Validate one counterexample; never raises on malformed input."""
        if counterexample.unifying:
            return self._validate_unifying(counterexample)
        return self._validate_nonunifying(counterexample)

    def validate_witness(
        self, witness: tuple[Terminal, ...]
    ) -> ValidationResult:
        """Re-prove a static-analysis ambiguity witness.

        The SR pair walk (:mod:`repro.analysis`) claims *witness* is a
        sentence of the grammar with two distinct derivations; nothing
        of the walk is trusted here — the Earley oracle (and optionally
        the GLR runtime) re-counts derivations from the start symbol.
        """
        checks = _Checks()
        root = self.grammar.start
        form = tuple(witness)
        if not checks.record(
            "witness-is-sentence",
            all(
                symbol.is_terminal and symbol != END_OF_INPUT
                for symbol in form
            ),
            f"{format_symbols(form)!r} contains nonterminals or $",
        ):
            return checks.result("witness")
        try:
            ambiguous = (
                self._earley.count_derivations(
                    root, form, limit=2, step_budget=self.earley_step_budget
                )
                >= 2
            )
        except DerivationBudgetExceeded:
            checks.skip("earley-ambiguous", "derivation count ran out of budget")
        else:
            checks.record(
                "earley-ambiguous",
                ambiguous,
                f"Earley finds < 2 derivations of {format_symbols(form)!r} "
                f"from {root}",
            )
        if self.glr_check:
            self._glr_ambiguity_check(checks, root, form)
        return checks.result("witness")

    # ------------------------------------------------------------------ #
    # Unifying counterexamples: two distinct derivations, one form,
    # independently re-proven ambiguous.

    def _validate_unifying(self, cex: Counterexample) -> ValidationResult:
        checks = _Checks()
        ok1 = self._check_derivation(checks, "derivation1", cex.derivation1)
        ok2 = self._check_derivation(checks, "derivation2", cex.derivation2)
        if not (ok1 and ok2):
            return checks.result("unifying")

        root = cex.derivation1.symbol
        checks.record(
            "roots-unify",
            isinstance(root, Nonterminal)
            and cex.derivation2.symbol == root
            and cex.nonterminal == root,
            f"roots {cex.derivation1.symbol}/{cex.derivation2.symbol} vs "
            f"stated nonterminal {cex.nonterminal}",
        )
        checks.record(
            "derivations-distinct",
            cex.derivation1 != cex.derivation2,
            "both sides are the same derivation tree",
        )

        form1 = cex.example1_symbols()
        form2 = cex.example2_symbols()
        if not checks.record(
            "same-sentential-form",
            form1 == form2,
            f"{format_symbols(form1)!r} != {format_symbols(form2)!r}",
        ):
            return checks.result("unifying")
        checks.record(
            "conflict-prefixes-agree",
            cex.prefix() == self._prefix(cex.example2()),
            "the dots mark different positions in the two derivations",
        )

        if not isinstance(root, Nonterminal):
            return checks.result("unifying")
        try:
            ambiguous = (
                self._earley.count_derivations(
                    root, form1, limit=2, step_budget=self.earley_step_budget
                )
                >= 2
            )
        except DerivationBudgetExceeded:
            checks.skip("earley-ambiguous", "derivation count ran out of budget")
        else:
            checks.record(
                "earley-ambiguous",
                ambiguous,
                f"Earley finds < 2 derivations of {format_symbols(form1)!r} "
                f"from {root}",
            )
        if self.glr_check:
            self._glr_ambiguity_check(checks, root, form1)
        return checks.result("unifying")

    # ------------------------------------------------------------------ #
    # Nonunifying counterexamples: two derivable forms, shared prefix,
    # conflict terminal after the dot.

    def _validate_nonunifying(self, cex: Counterexample) -> ValidationResult:
        checks = _Checks()
        ok1 = self._check_derivation(checks, "derivation1", cex.derivation1)
        ok2 = self._check_derivation(checks, "derivation2", cex.derivation2)
        if not (ok1 and ok2):
            return checks.result("nonunifying")

        root = cex.derivation1.symbol
        checks.record(
            "roots-agree",
            isinstance(root, Nonterminal) and cex.derivation2.symbol == root,
            f"derivations rooted at {cex.derivation1.symbol} and "
            f"{cex.derivation2.symbol}",
        )

        yield1 = cex.example1()
        yield2 = cex.example2()
        prefix1 = self._prefix(yield1)
        prefix2 = self._prefix(yield2)
        checks.record(
            "shared-prefix",
            prefix1 == prefix2,
            f"{format_symbols(prefix1)!r} != {format_symbols(prefix2)!r}",
        )
        checks.record(
            "conflict-terminal-after-dot",
            self._after_dot(yield1) == cex.conflict.terminal,
            f"expected {cex.conflict.terminal} after the dot, "
            f"found {self._after_dot(yield1)}",
        )
        if cex.conflict.is_shift_reduce:
            # For shift/reduce conflicts the shift item itself pins the
            # terminal after the dot on the second side too; the sides of
            # a reduce/reduce counterexample may legitimately diverge.
            checks.record(
                "conflict-terminal-after-dot-2",
                self._after_dot(yield2) == cex.conflict.terminal,
                f"expected {cex.conflict.terminal} after the dot, "
                f"found {self._after_dot(yield2)}",
            )

        if not isinstance(root, Nonterminal):
            return checks.result("nonunifying")
        for name, form in (
            ("earley-derives-1", cex.example1_symbols()),
            ("earley-derives-2", cex.example2_symbols()),
        ):
            checks.record(
                name,
                self._earley.recognizes(root, form),
                f"Earley cannot derive {format_symbols(form)!r} from {root}",
            )
        if self.glr_check:
            self._glr_derivability_check(checks, root, cex)
        return checks.result("nonunifying")

    # ------------------------------------------------------------------ #
    # Structural replay

    def _check_derivation(
        self, checks: _Checks, name: str, derivation: Derivation
    ) -> bool:
        """Replay *derivation* bottom-up against the grammar's productions."""
        dots = 0
        error: str | None = None
        productions = self.grammar.productions
        stack = [derivation]
        while stack and error is None:
            node = stack.pop()
            if node.is_dot:
                dots += 1
                continue
            if node.children is None:
                continue
            production = node.production
            if production is None:
                error = f"expansion of {node.symbol} carries no production"
                break
            if (
                not 0 <= production.index < len(productions)
                or productions[production.index] != production
            ):
                error = f"'{production}' is not a production of this grammar"
                break
            if node.symbol != production.lhs:
                error = f"node {node.symbol} expanded by '{production}'"
                break
            real = tuple(c.symbol for c in node.children if not c.is_dot)
            if real != production.rhs:
                error = (
                    f"children {format_symbols(real)!r} do not spell the "
                    f"right-hand side of '{production}'"
                )
                break
            stack.extend(node.children)
        if error is None and dots > 1:
            error = f"{dots} dot markers (at most one conflict point allowed)"
        return checks.record(f"{name}-structure", error is None, error or "")

    @staticmethod
    def _prefix(elements: tuple[object, ...]) -> tuple[object, ...]:
        """Symbols before the dot (the whole yield when there is no dot)."""
        result: list[object] = []
        for element in elements:
            if element is DOT:
                break
            result.append(element)
        return tuple(result)

    @staticmethod
    def _after_dot(elements: tuple[object, ...]) -> object | None:
        """The first symbol after the dot, or ``None``."""
        seen_dot = False
        for element in elements:
            if element is DOT:
                seen_dot = True
            elif seen_dot:
                return element
        return None

    # ------------------------------------------------------------------ #
    # GLR cross-checks over independently rebuilt, precedence-free tables

    def _glr_parser(self, root: Nonterminal) -> GLRParser:
        parser = self._glr_parsers.get(root)
        if parser is None:
            # Precedence is dropped deliberately: ambiguity and membership
            # are properties of the raw grammar, and resolved table entries
            # would hide parses from the GLR runtime.
            regrammar = Grammar(
                [(p.lhs, p.rhs, None) for p in self.grammar.user_productions()],
                start=root,
                precedence=None,
                name=f"{self.grammar.name}@{root}",
            )
            parser = GLRParser(
                regrammar, max_configurations=self.glr_max_configurations
            )
            self._glr_parsers[root] = parser
        return parser

    def _concretize(self, form: tuple[Symbol, ...]) -> list[Terminal] | None:
        """Expand nonterminal leaves minimally into a pure terminal string."""
        concrete: list[Terminal] = []
        nonproductive = self.grammar.nonproductive_nonterminals
        for symbol in form:
            if symbol == END_OF_INPUT:
                continue
            if symbol.is_terminal:
                assert isinstance(symbol, Terminal)
                concrete.append(symbol)
                continue
            if symbol in nonproductive:
                return None
            concrete.extend(self._analysis.shortest_expansion(symbol))
        return concrete

    def _glr_ambiguity_check(
        self, checks: _Checks, root: Nonterminal, form: tuple[Symbol, ...]
    ) -> None:
        name = "glr-ambiguous"
        if root == self.grammar.augmented_start:
            checks.skip(name, "cannot reroot at the augmented start symbol")
            return
        concrete = self._concretize(form)
        if concrete is None:
            checks.skip(name, "form contains a nonproductive nonterminal")
            return
        if len(concrete) > MAX_CONCRETE_LENGTH:
            checks.skip(name, f"concretised string has {len(concrete)} tokens")
            return
        try:
            trees = self._glr_parser(root).parse_all(concrete)
        except TooManyParses:
            checks.skip(name, "GLR configuration cap exceeded")
            return
        checks.record(
            name,
            len(trees) >= 2,
            f"GLR finds {len(trees)} parse(s) of the concretised "
            f"{format_symbols(tuple(concrete))!r} from {root}",
        )

    def _glr_derivability_check(
        self, checks: _Checks, root: Nonterminal, cex: Counterexample
    ) -> None:
        target = (
            self.grammar.start if root == self.grammar.augmented_start else root
        )
        for name, form in (
            ("glr-derives-1", cex.example1_symbols()),
            ("glr-derives-2", cex.example2_symbols()),
        ):
            concrete = self._concretize(form)
            if concrete is None:
                checks.skip(name, "form contains a nonproductive nonterminal")
                continue
            if len(concrete) > MAX_CONCRETE_LENGTH:
                checks.skip(name, f"concretised string has {len(concrete)} tokens")
                continue
            try:
                trees = self._glr_parser(target).parse_all(concrete)
            except TooManyParses:
                checks.skip(name, "GLR configuration cap exceeded")
                continue
            checks.record(
                name,
                len(trees) >= 1,
                f"GLR rejects the concretised {format_symbols(tuple(concrete))!r}",
            )


def validate_counterexample(
    grammar: Grammar, counterexample: Counterexample, glr_check: bool = False
) -> ValidationResult:
    """One-shot convenience wrapper around :class:`CounterexampleValidator`."""
    return CounterexampleValidator(grammar, glr_check=glr_check).validate(
        counterexample
    )


def validate_ambiguity_witness(
    grammar: Grammar, witness: tuple[Terminal, ...], glr_check: bool = False
) -> ValidationResult:
    """One-shot validation of an SR-walk ambiguity witness sentence."""
    return CounterexampleValidator(grammar, glr_check=glr_check).validate_witness(
        witness
    )
