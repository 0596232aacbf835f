"""Tests for the lint engine: configuration, reports, thresholds."""

import pytest

from repro.automaton import build_lalr
from repro.grammar import load_grammar
from repro.lint import (
    Diagnostic,
    LintConfig,
    LintContext,
    Severity,
    SourceSpan,
    all_rules,
    get_rule,
    rule_ids,
    run_lint,
)

AMBIGUOUS = "e : e '+' e | ID ;"


class TestRegistry:
    def test_all_rules_are_singletons_with_metadata(self):
        for rule in all_rules():
            assert rule.rule_id
            assert isinstance(rule.severity, Severity)
            assert rule.title
            assert rule.rationale

    def test_rule_ids_unique_and_stable_order(self):
        ids = rule_ids()
        assert len(ids) == len(set(ids))
        # Catalog order ends with the always-on summary rule.
        assert ids[-1] == "lr-class"

    def test_get_rule_unknown_lists_known(self):
        with pytest.raises(KeyError, match="unit-production"):
            get_rule("no-such-rule")


class TestLintConfig:
    def test_default_runs_every_rule(self):
        report = run_lint(load_grammar(AMBIGUOUS))
        assert report.rules_run == rule_ids()

    def test_enabled_subset(self):
        config = LintConfig(enabled=frozenset({"lr-class", "unit-production"}))
        report = run_lint(load_grammar(AMBIGUOUS), config=config)
        # Catalog order is preserved regardless of the set's order.
        assert report.rules_run == ["unit-production", "lr-class"]

    def test_disabled_subtracts(self):
        config = LintConfig(disabled=frozenset({"lr-class"}))
        report = run_lint(load_grammar(AMBIGUOUS), config=config)
        assert "lr-class" not in report.rules_run
        assert len(report.rules_run) == len(rule_ids()) - 1

    def test_unknown_enabled_rule_raises(self):
        with pytest.raises(KeyError):
            run_lint(
                load_grammar(AMBIGUOUS),
                config=LintConfig(enabled=frozenset({"tyop-rule"})),
            )

    def test_unknown_disabled_rule_raises(self):
        with pytest.raises(KeyError):
            run_lint(
                load_grammar(AMBIGUOUS),
                config=LintConfig(disabled=frozenset({"tyop-rule"})),
            )


class TestLintReport:
    def test_diagnostics_sorted_by_line_then_rule(self):
        text = """
        %left UNUSED
        s : e 'x' | dead2 ;
        e : e '+' e | ID ;
        dead2 : 'y' ;
        dead1 : 'z' ;
        """
        report = run_lint(load_grammar(text))
        keyed = [
            (d.span.line if d.span.line is not None else 1_000_000_000, d.rule_id, d.message)
            for d in report.diagnostics
        ]
        assert keyed == sorted(keyed)

    def test_counts_and_worst(self):
        report = run_lint(load_grammar("s : t ;  t : 'x' ;  dead : 'y' ;"))
        counts = report.counts()
        assert counts["warning"] >= 1  # unreachable 'dead'
        assert counts["info"] >= 1  # unit production + lr-class
        assert counts["error"] == 0
        assert report.worst() is Severity.WARNING

    def test_should_fail_thresholds(self):
        # Warnings but no errors.
        report = run_lint(load_grammar("s : 'a' ;  dead : 'b' ;"))
        assert report.worst() is Severity.WARNING
        assert not report.should_fail(Severity.ERROR)
        assert report.should_fail(Severity.WARNING)
        assert report.should_fail(Severity.INFO)

    def test_should_fail_on_error(self):
        report = run_lint(load_grammar("s : 'a' | x ;  x : x 'b' ;"))
        assert report.worst() is Severity.ERROR
        assert report.should_fail(Severity.ERROR)

    def test_by_rule_selects_matching_diagnostics(self):
        report = run_lint(load_grammar(AMBIGUOUS))
        summary = report.by_rule("lr-class")
        assert len(summary) == 1
        assert all(d.rule_id == "lr-class" for d in summary)
        total = sum(len(report.by_rule(rule_id)) for rule_id in rule_ids())
        assert total == len(report.diagnostics)

    def test_grammar_name_and_source_path_recorded(self):
        grammar = load_grammar(AMBIGUOUS, name="expr")
        report = run_lint(grammar, source_path="expr.y")
        assert report.grammar_name == "expr"
        assert report.source_path == "expr.y"


class TestAutomatonReuse:
    def test_prebuilt_automaton_is_used(self):
        grammar = load_grammar(AMBIGUOUS)
        automaton = build_lalr(grammar)
        context = LintContext(grammar, automaton=automaton)
        report = run_lint(grammar, context=context)
        # Same conflict summary either way; mainly this must not rebuild
        # (and must not crash when handed a shared automaton).
        fresh = run_lint(grammar)
        assert [d.message for d in report.diagnostics] == [
            d.message for d in fresh.diagnostics
        ]


class TestSeverity:
    def test_parse(self):
        assert Severity.parse("info") is Severity.INFO
        assert Severity.parse("warning") is Severity.WARNING
        assert Severity.parse("error") is Severity.ERROR

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            Severity.parse("fatal")

    def test_ordering(self):
        assert Severity.ERROR.at_least(Severity.WARNING)
        assert Severity.WARNING.at_least(Severity.WARNING)
        assert not Severity.INFO.at_least(Severity.WARNING)

    def test_sarif_levels(self):
        assert Severity.INFO.sarif_level == "note"
        assert Severity.WARNING.sarif_level == "warning"
        assert Severity.ERROR.sarif_level == "error"


class TestDiagnosticModel:
    def test_as_dict_round_trip_fields(self):
        diag = Diagnostic(
            rule_id="unit-production",
            severity=Severity.INFO,
            message="msg",
            span=SourceSpan(line=3, end_line=4),
            fix_hint="inline it",
        )
        data = diag.as_dict()
        assert data["rule"] == "unit-production"
        assert data["severity"] == "info"
        assert data["line"] == 3
        assert data["endLine"] == 4
        assert data["hint"] == "inline it"

    def test_span_defaults_end_line(self):
        span = SourceSpan(line=7)
        assert span.end_line == 7
        assert span.known
        assert not SourceSpan(line=None).known
