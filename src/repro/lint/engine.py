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
    """Which rules run and how the derived artifacts are bounded.

    Attributes:
        enabled: Explicit allow-list of rule ids (``None`` means all
            registered rules).
        disabled: Rule ids to skip (applied after *enabled*).
        max_lr1_states: Cap on the canonical LR(1) construction used by
            the ``lr-class`` rule.
    """

    enabled: frozenset[str] | None = None
    disabled: frozenset[str] = frozenset()
    max_lr1_states: int = 20_000

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
    fuzz harness, the campaign runner) share them instead of paying for a
    second construction; its own LR(1) cap then applies. Pass crashes
    propagate to the caller.
    """
    config = config if config is not None else LintConfig()
    rules = config.selected_rules()
    ctx = context if context is not None else LintContext(
        grammar, source_path=source_path, max_lr1_states=config.max_lr1_states
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
