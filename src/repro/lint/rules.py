"""The built-in lint rule catalog.

Each rule is a registered :class:`~repro.lint.registry.LintPass` built on
the existing analyses (:mod:`repro.grammar.transforms`,
:mod:`repro.grammar.analysis`, the automaton layers). Rule ids are stable
API; see ``docs/LINTING.md`` for the user-facing catalog.

The two deeper pattern rules follow the related work cited in the
roadmap: dangling-else shapes are the canonical ambiguity walked by
SR-automaton methods (Quaglia), and the operator-grammar patterns follow
the deep-priority-conflict taxonomy of de Souza Amorim et al.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.analysis import AmbiguityVerdict
from repro.automaton.conflicts import ConflictKind
from repro.automaton.ielr import ProvenanceVerdict
from repro.grammar import (
    Nonterminal,
    Production,
    Terminal,
    left_recursive_nonterminals,
    unit_productions,
)
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Severity, SourceSpan
from repro.lint.registry import LintPass, register


def _sorted_nonterminals(symbols: Iterable[Nonterminal]) -> list[Nonterminal]:
    return sorted(symbols, key=str)


@register
class UnreachableNonterminal(LintPass):
    rule_id = "unreachable-nonterminal"
    severity = Severity.WARNING
    title = "Nonterminal unreachable from the start symbol"
    rationale = (
        "Unreachable rules are dead weight: they bloat the automaton and "
        "usually indicate a missing reference or a stale start symbol."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for nonterminal in _sorted_nonterminals(
            ctx.grammar.unreachable_nonterminals
        ):
            yield self.diagnostic(
                f"nonterminal {nonterminal} is unreachable from start symbol "
                f"{ctx.grammar.start}",
                span=ctx.nonterminal_span(nonterminal),
                fix_hint=(
                    f"reference {nonterminal} from a reachable rule or delete "
                    "its productions"
                ),
            )


@register
class NonproductiveNonterminal(LintPass):
    rule_id = "nonproductive-nonterminal"
    severity = Severity.ERROR
    title = "Nonterminal derives no terminal string"
    rationale = (
        "A nonproductive nonterminal can never complete a parse; any rule "
        "that uses it is unsatisfiable, silently shrinking the language."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for nonterminal in _sorted_nonterminals(
            ctx.grammar.nonproductive_nonterminals
        ):
            yield self.diagnostic(
                f"nonterminal {nonterminal} cannot derive any terminal string",
                span=ctx.nonterminal_span(nonterminal),
                fix_hint=f"add a base-case production for {nonterminal}",
            )


@register
class DerivationCycle(LintPass):
    rule_id = "derivation-cycle"
    severity = Severity.ERROR
    title = "Derivation cycle A =>+ A"
    rationale = (
        "A nonterminal that derives itself makes the grammar infinitely "
        "ambiguous as soon as it participates in a sentence."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        grammar = ctx.grammar
        analysis = ctx.analysis
        # A =>1 B when A -> alpha B beta with alpha and beta nullable
        # (the same edge relation as transforms.has_derivation_cycles,
        # but we need the cycle members, not just existence).
        edges: dict[Nonterminal, set[Nonterminal]] = {
            nonterminal: set() for nonterminal in grammar.nonterminals
        }
        for production in grammar.productions:
            for index, symbol in enumerate(production.rhs):
                if not symbol.is_nonterminal:
                    continue
                rest_nullable = all(
                    other.is_nonterminal and other in analysis.nullable
                    for position, other in enumerate(production.rhs)
                    if position != index
                )
                if rest_nullable:
                    edges[production.lhs].add(symbol)  # type: ignore[arg-type]

        closure: dict[Nonterminal, set[Nonterminal]] = {}
        for origin in edges:
            seen: set[Nonterminal] = set()
            frontier = list(edges[origin])
            while frontier:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                frontier.extend(edges[node])
            closure[origin] = seen

        cyclic = {n for n in edges if n in closure[n]}
        reported: set[Nonterminal] = set()
        for nonterminal in _sorted_nonterminals(cyclic):
            if nonterminal in reported:
                continue
            component = {
                other
                for other in cyclic
                if other == nonterminal
                or (other in closure[nonterminal] and nonterminal in closure[other])
            }
            reported |= component
            members = ", ".join(str(n) for n in _sorted_nonterminals(component))
            yield self.diagnostic(
                f"derivation cycle through {members}: the grammar is "
                "infinitely ambiguous wherever the cycle is reachable",
                span=ctx.nonterminal_span(nonterminal),
                fix_hint="remove or guard the unit/epsilon productions forming the cycle",
            )


@register
class UnitProduction(LintPass):
    rule_id = "unit-production"
    severity = Severity.INFO
    title = "Unit production A -> B"
    rationale = (
        "Unit productions are legal but add automaton states and reduce "
        "steps; chains of them often hide derivation cycles."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for production in unit_productions(ctx.grammar):
            yield self.diagnostic(
                f"unit production {production}",
                span=ctx.production_span(production),
            )


@register
class LeftRecursion(LintPass):
    rule_id = "left-recursion"
    severity = Severity.INFO
    title = "Left-recursive nonterminal"
    rationale = (
        "Left recursion is idiomatic for LR grammars but fatal for LL or "
        "recursive-descent consumers of the same grammar; the report makes "
        "the dependency explicit."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for nonterminal in _sorted_nonterminals(
            left_recursive_nonterminals(ctx.grammar)
        ):
            if nonterminal == ctx.grammar.augmented_start:
                continue
            yield self.diagnostic(
                f"nonterminal {nonterminal} is left-recursive "
                "(fine for LR parsing; fatal for LL consumers)",
                span=ctx.nonterminal_span(nonterminal),
            )


@register
class UnusedPrecedence(LintPass):
    rule_id = "unused-precedence"
    severity = Severity.WARNING
    title = "Precedence declaration never used"
    rationale = (
        "%left/%right/%nonassoc lines that never influence the tables are "
        "misleading: readers assume they resolve a conflict somewhere."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        grammar = ctx.grammar
        used_in_rules = set(grammar.terminals)
        overrides = {
            production.prec_override
            for production in grammar.user_productions()
            if production.prec_override is not None
        }
        conflict_terminals = {conflict.terminal for conflict in ctx.conflicts}
        consulted = ctx.automaton.used_precedence
        for terminal in grammar.precedence.declared_terminals():
            if terminal not in used_in_rules and terminal not in overrides:
                yield self.diagnostic(
                    f"precedence declared for {terminal}, which appears in no "
                    "production",
                    span=ctx.precedence_span(terminal),
                    fix_hint=f"delete the declaration or use {terminal} in a rule",
                )
            elif terminal not in consulted and terminal not in conflict_terminals:
                yield self.diagnostic(
                    f"precedence declaration for {terminal} never participates "
                    "in conflict resolution (conflict-irrelevant)",
                    span=ctx.precedence_span(terminal),
                    severity=Severity.INFO,
                    fix_hint="the declaration can be removed without changing the tables",
                )


@register
class UnusedToken(LintPass):
    rule_id = "unused-token"
    severity = Severity.WARNING
    title = "%token declared but never used"
    rationale = (
        "A declared token that no production consumes is either dead "
        "lexer surface or a typo for the name actually used."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        grammar = ctx.grammar
        nonterminal_names = {str(n) for n in grammar.nonterminals}
        terminal_names = {str(t) for t in grammar.terminals}
        for name, line in grammar.token_declarations.items():
            span = SourceSpan(line=line)
            if name in nonterminal_names:
                yield self.diagnostic(
                    f"{name} is declared with %token but defined as a nonterminal",
                    span=span,
                    fix_hint=f"drop the %token declaration or rename the rule {name}",
                )
            elif name not in terminal_names:
                yield self.diagnostic(
                    f"token {name} is declared but never used in any production",
                    span=span,
                    fix_hint=f"delete the declaration or reference {name} in a rule",
                )


@register
class NullableOverlap(LintPass):
    rule_id = "nullable-overlap"
    severity = Severity.WARNING
    title = "Ambiguity-prone nullable overlap"
    rationale = (
        "Two epsilon-deriving alternatives make every empty derivation "
        "ambiguous; adjacent nullable symbols with overlapping FIRST sets "
        "let the same token string split in multiple ways."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        grammar = ctx.grammar
        analysis = ctx.analysis
        for nonterminal in grammar.nonterminals:
            if nonterminal == grammar.augmented_start:
                continue
            nullable_alternatives = [
                production
                for production in grammar.productions_of(nonterminal)
                if analysis.is_nullable_sequence(production.rhs)
            ]
            if len(nullable_alternatives) >= 2:
                yield self.diagnostic(
                    f"nonterminal {nonterminal} has "
                    f"{len(nullable_alternatives)} alternatives that derive "
                    "the empty string; the empty derivation is ambiguous",
                    span=ctx.production_span(nullable_alternatives[1]),
                    fix_hint="keep a single epsilon alternative",
                )
        for production in grammar.user_productions():
            for left, right in zip(production.rhs, production.rhs[1:]):
                if not (left.is_nonterminal and right.is_nonterminal):
                    continue
                if left not in analysis.nullable or right not in analysis.nullable:
                    continue
                overlap = analysis.first[left] & analysis.first[right]
                if overlap:
                    shared = ", ".join(sorted(str(t) for t in overlap))
                    yield self.diagnostic(
                        f"adjacent nullable nonterminals {left} {right} in "
                        f"'{production}' have overlapping FIRST sets "
                        f"({shared}); token runs can split ambiguously",
                        span=ctx.production_span(production),
                        fix_hint="separate the symbols with a delimiter or make one non-nullable",
                    )


@register
class DanglingElse(LintPass):
    rule_id = "dangling-else"
    severity = Severity.WARNING
    title = "Dangling-else ambiguity pattern"
    rationale = (
        "One alternative is a proper prefix of another and the "
        "continuation terminal can also follow the prefix — the classic "
        "shift/reduce ambiguity (if/then vs if/then/else)."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        grammar = ctx.grammar
        analysis = ctx.analysis
        for nonterminal in grammar.nonterminals:
            if nonterminal == grammar.augmented_start:
                continue
            productions = grammar.productions_of(nonterminal)
            for shorter in productions:
                if not shorter.rhs:
                    continue
                tail = shorter.rhs[-1]
                if not tail.is_nonterminal:
                    continue
                for longer in productions:
                    if len(longer.rhs) <= len(shorter.rhs):
                        continue
                    if longer.rhs[: len(shorter.rhs)] != shorter.rhs:
                        continue
                    continuation = longer.rhs[len(shorter.rhs)]
                    if not continuation.is_terminal:
                        continue
                    assert isinstance(continuation, Terminal)
                    assert isinstance(tail, Nonterminal)
                    if continuation in analysis.follow[tail]:
                        yield self.diagnostic(
                            f"dangling-{continuation} pattern: '{shorter}' is a "
                            f"proper prefix of '{longer}' and {continuation} "
                            f"can follow {tail}",
                            span=ctx.production_span(longer),
                            fix_hint=(
                                f"bind {continuation} with precedence "
                                f"(%prec/%right) or split {nonterminal} into "
                                "matched/unmatched forms"
                            ),
                        )


def _operator_shapes(
    grammar, nonterminal: Nonterminal
) -> tuple[list[tuple[Production, Terminal]], list[tuple[Production, Terminal]], list[tuple[Production, Terminal]]]:
    """Classify *nonterminal*'s productions into (infix, prefix, postfix) ops."""
    infix: list[tuple[Production, Terminal]] = []
    prefix: list[tuple[Production, Terminal]] = []
    postfix: list[tuple[Production, Terminal]] = []
    for production in grammar.productions_of(nonterminal):
        rhs = production.rhs
        if (
            len(rhs) == 3
            and rhs[0] == nonterminal
            and rhs[2] == nonterminal
            and rhs[1].is_terminal
        ):
            infix.append((production, rhs[1]))  # type: ignore[arg-type]
        elif len(rhs) == 2 and rhs[0].is_terminal and rhs[1] == nonterminal:
            prefix.append((production, rhs[0]))  # type: ignore[arg-type]
        elif len(rhs) == 2 and rhs[0] == nonterminal and rhs[1].is_terminal:
            postfix.append((production, rhs[1]))  # type: ignore[arg-type]
    return infix, prefix, postfix


@register
class MissingOperatorPrecedence(LintPass):
    rule_id = "missing-operator-precedence"
    severity = Severity.WARNING
    title = "Infix operator without a precedence declaration"
    rationale = (
        "E -> E op E is ambiguous on its own; without %left/%right/%nonassoc "
        "the conflict falls back to the yacc shift default silently."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        grammar = ctx.grammar
        for nonterminal in grammar.nonterminals:
            if nonterminal == grammar.augmented_start:
                continue
            infix, _, _ = _operator_shapes(grammar, nonterminal)
            for production, operator in infix:
                effective = grammar.precedence.production_level(
                    production.rhs, production.prec_override
                )
                if effective is None:
                    yield self.diagnostic(
                        f"binary operator {operator} in '{production}' has no "
                        "precedence declaration; associativity is ambiguous",
                        span=ctx.production_span(production),
                        fix_hint=f"declare %left {operator} (or %right/%nonassoc)",
                    )


@register
class DeepPriorityConflict(LintPass):
    rule_id = "deep-priority-conflict"
    severity = Severity.WARNING
    title = "Deep priority conflict pattern in an operator grammar"
    rationale = (
        "A low-priority prefix (or postfix) operator nested under a "
        "higher-priority infix operator conflicts at arbitrary depth — the "
        "'dangling prefix/postfix' shapes of de Souza Amorim et al., which "
        "shallow per-state precedence resolution does not fully decide."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        grammar = ctx.grammar
        precedence = grammar.precedence
        for nonterminal in grammar.nonterminals:
            if nonterminal == grammar.augmented_start:
                continue
            infix, prefix, postfix = _operator_shapes(grammar, nonterminal)
            infix_levels = [
                (production, operator, precedence.production_level(production.rhs, production.prec_override))
                for production, operator in infix
            ]
            for unary, kind_name in ((prefix, "prefix"), (postfix, "postfix")):
                for production, operator in unary:
                    unary_level = precedence.production_level(
                        production.rhs, production.prec_override
                    )
                    if unary_level is None:
                        continue
                    for _, infix_operator, infix_level in infix_levels:
                        if infix_level is None:
                            continue
                        if infix_level.rank > unary_level.rank:
                            yield self.diagnostic(
                                f"deep priority conflict pattern: "
                                f"low-priority {kind_name} operator {operator} "
                                f"can nest under higher-priority infix "
                                f"{infix_operator} (dangling-{kind_name} shape)",
                                span=ctx.production_span(production),
                                fix_hint=(
                                    f"raise the precedence of {operator} or add "
                                    "explicit grouping productions"
                                ),
                            )


@register
class ProvedAmbiguous(LintPass):
    rule_id = "proved-ambiguous"
    severity = Severity.ERROR
    title = "Conflict proved to be genuine ambiguity"
    rationale = (
        "A bounded SR-automaton pair walk found one sentence with two "
        "distinct derivations through this conflict: the grammar is "
        "ambiguous, not merely hard for the table construction, and no "
        "stronger construction or precedence shuffle can fix it without "
        "changing the productions."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for conflict, verdict in ctx.ambiguity_verdicts.items():
            if verdict.verdict is not AmbiguityVerdict.AMBIGUOUS:
                continue
            witness = " ".join(t.name for t in verdict.witness or ())
            yield self.diagnostic(
                f"{conflict.kind.value} conflict in state "
                f"{conflict.state_id} on {conflict.terminal} is a proved "
                f"ambiguity: sentence {witness!r} has two distinct "
                "derivations",
                span=ctx.production_span(conflict.reduce_item.production),
                fix_hint=(
                    "restructure the conflicting productions (or add "
                    "precedence to pick one reading) so only a single "
                    "derivation survives"
                ),
            )


@register
class PotentiallyAmbiguous(LintPass):
    rule_id = "potentially-ambiguous"
    severity = Severity.INFO
    title = "Conflict not proved harmless within the walk budget"
    rationale = (
        "The SR pair walk neither proved this conflict unambiguous nor "
        "found a two-derivation witness before its budget ran out; the "
        "conflict deserves a human look (or a larger walk budget)."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for conflict, verdict in ctx.ambiguity_verdicts.items():
            if verdict.verdict is not AmbiguityVerdict.INCONCLUSIVE:
                continue
            yield self.diagnostic(
                f"{conflict.kind.value} conflict in state "
                f"{conflict.state_id} on {conflict.terminal} is "
                f"potentially ambiguous ({verdict.detail})",
                span=ctx.production_span(conflict.reduce_item.production),
                fix_hint=(
                    "run the counterexample finder for an explanation, or "
                    "rerun the walk with a larger node budget"
                ),
            )


@register
class LrClassSummary(LintPass):
    rule_id = "lr-class"
    severity = Severity.INFO
    title = "LR-class and conflict-density summary"
    rationale = (
        "States where the grammar sits in the SLR(1) ⊂ LALR(1) ⊂ LR(1) "
        "hierarchy and how densely conflicted the automaton is."
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        grammar = ctx.grammar
        states = len(ctx.automaton.states)
        conflicts = ctx.conflicts
        span = ctx.nonterminal_span(grammar.start)
        if not conflicts:
            if ctx.slr_conflict_count == 0:
                message = (
                    f"grammar is SLR(1) (hence LALR(1) and LR(1)); "
                    f"{states} states, no conflicts"
                )
            else:
                message = (
                    f"grammar is LALR(1) but not SLR(1) (SLR would leave "
                    f"{ctx.slr_conflict_count} conflicted entries); "
                    f"{states} states"
                )
            yield self.diagnostic(message, span=span)
            return

        shift_reduce = sum(
            1 for c in conflicts if c.kind is ConflictKind.SHIFT_REDUCE
        )
        reduce_reduce = len(conflicts) - shift_reduce
        density = len(conflicts) / states
        detail = (
            f"{len(conflicts)} LALR conflicts ({shift_reduce} shift/reduce, "
            f"{reduce_reduce} reduce/reduce) over {states} states "
            f"(density {density:.2f} conflicts/state)"
        )
        lr1 = ctx.lr1
        if lr1 is not None and not lr1.has_conflicts():
            message = f"grammar is LR(1) but not LALR(1): {detail}"
            provenance = ctx.provenance
            artifacts = sum(
                1
                for entry in provenance.values()
                if entry.verdict is ProvenanceVerdict.MERGE_ARTIFACT
            )
            if provenance and artifacts == len(provenance):
                message += (
                    f"; all {artifacts} conflicts are LALR merge artifacts "
                    "— declare %algorithm ielr (or lr1) to build "
                    "conflict-free tables for this grammar"
                )
        elif lr1 is None:
            message = (
                f"grammar is not LALR(1): {detail}; canonical LR(1) "
                f"construction capped at {ctx.max_lr1_states} states, "
                "LR(1) membership unknown"
            )
        else:
            message = f"grammar is not LR(1): {detail}"
        yield self.diagnostic(
            message,
            span=span,
            severity=Severity.WARNING,
            fix_hint="run the counterexample finder for per-conflict explanations",
        )

