"""Lint engine: rule selection, execution, and the aggregate report.

:func:`run_lint` is the single entry point used by the CLI, the fuzz
harness, and the tests. Pass crashes are *not* swallowed here — the fuzz
harness relies on them propagating so a broken rule is classified as a
campaign failure rather than a silently empty report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.grammar import Grammar
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintPass, all_rules, get_rule


@dataclass(frozen=True)
class LintConfig:
    """Which rules run.

    Attributes:
        enabled: Explicit allow-list of rule ids (``None`` means all
            registered rules).
        disabled: Rule ids to skip (applied after *enabled*).
    """

    enabled: frozenset[str] | None = None
    disabled: frozenset[str] = frozenset()

    def selected_rules(self) -> list[LintPass]:
        """Resolve the configuration to concrete passes, in catalog order.

        Raises :class:`KeyError` for unknown rule ids so typos surface
        instead of silently linting nothing.
        """
        for rule_id in list(self.enabled or ()) + list(self.disabled):
            get_rule(rule_id)  # raises KeyError with the known-id list
        selected = []
        for rule in all_rules():
            if self.enabled is not None and rule.rule_id not in self.enabled:
                continue
            if rule.rule_id in self.disabled:
                continue
            selected.append(rule)
        return selected


@dataclass
class LintReport:
    """All diagnostics of one lint run over one grammar."""

    grammar_name: str
    source_path: str | None
    rules_run: list[str]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """Diagnostic counts keyed by severity value."""
        counts = {severity.value: 0 for severity in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.value] += 1
        return counts

    def worst(self) -> Severity | None:
        """The highest severity present, or ``None`` for a clean report."""
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics), key=lambda s: s.rank)

    def should_fail(self, threshold: Severity) -> bool:
        """Whether any diagnostic is at or above *threshold*."""
        return any(d.severity.at_least(threshold) for d in self.diagnostics)

    def by_rule(self, rule_id: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule_id == rule_id]


def run_lint(
    grammar: Grammar,
    config: LintConfig | None = None,
    source_path: str | None = None,
    context: LintContext | None = None,
) -> LintReport:
    """Run the selected lint passes over *grammar*.

    *context* lets callers that already hold the grammar's artifacts (the
    CLI, the service worker, the campaign runner, the fuzz harness) share
    them instead of paying for a second construction; its own LR(1) cap
    and cache then apply. Lint always judges the LALR automaton: a
    context holding another construction is swapped for a fresh LALR
    context with the same grammar, cap and cache. Pass crashes propagate
    to the caller.
    """
    config = config if config is not None else LintConfig()
    rules = config.selected_rules()
    if context is None:
        ctx = LintContext(grammar, source_path=source_path)
    elif context.automaton.algorithm == "lalr":
        ctx = context
    else:
        ctx = LintContext(
            grammar,
            source_path=context.source_path,
            max_lr1_states=context.max_lr1_states,
            cache=context.cache,
        )
    diagnostics: list[Diagnostic] = []
    for rule in rules:
        diagnostics.extend(rule.run(ctx))
    diagnostics.sort(
        key=lambda d: (
            d.span.line if d.span.line is not None else 1_000_000_000,
            d.rule_id,
            d.message,
        )
    )
    return LintReport(
        grammar_name=grammar.name,
        source_path=source_path,
        rules_run=[rule.rule_id for rule in rules],
        diagnostics=diagnostics,
    )
