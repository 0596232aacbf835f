"""Golden lint reports for corpus grammars.

Full-text goldens pin the small grammars' reports exactly; the large
BV10 grammars are pinned by severity counts and spot findings so
routine message tweaks do not churn hundreds of golden lines.
"""

import pytest

from repro.corpus import all_specs, load
from repro.lint import LintConfig, LintContext, render_text, run_lint

GOLDEN_FIGURE7 = """\
<figure7>:4: warning[dangling-else]: dangling-c pattern: 'S ::= N' is a proper prefix of 'S ::= N c' and c can follow N
    hint: bind c with precedence (%prec/%right) or split S into matched/unmatched forms
<figure7>:4: warning[lr-class]: grammar is not LR(1): 2 LALR conflicts (2 shift/reduce, 0 reduce/reduce) over 16 states (density 0.12 conflicts/state)
    hint: run the counterexample finder for per-conflict explanations
<figure7>:4: info[unit-production]: unit production S ::= N
<figure7>:6: error[proved-ambiguous]: shift/reduce conflict in state 7 on b is a proved ambiguity: sentence 'n a b c' has two distinct derivations
    hint: restructure the conflicting productions (or add precedence to pick one reading) so only a single derivation survives
<figure7>:6: error[proved-ambiguous]: shift/reduce conflict in state 7 on b is a proved ambiguity: sentence 'n a b c' has two distinct derivations
    hint: restructure the conflicting productions (or add precedence to pick one reading) so only a single derivation survives
lint: 2 errors, 2 warnings, 1 notes (14 rules on grammar 'figure7')"""

GOLDEN_ABCD = """\
<abcd>:4: warning[lr-class]: grammar is not LR(1): 3 LALR conflicts (3 shift/reduce, 0 reduce/reduce) over 18 states (density 0.17 conflicts/state)
    hint: run the counterexample finder for per-conflict explanations
<abcd>:5: error[proved-ambiguous]: shift/reduce conflict in state 7 on c is a proved ambiguity: sentence 'a b c d' has two distinct derivations
    hint: restructure the conflicting productions (or add precedence to pick one reading) so only a single derivation survives
<abcd>:7: error[proved-ambiguous]: shift/reduce conflict in state 4 on b is a proved ambiguity: sentence 'a b c d' has two distinct derivations
    hint: restructure the conflicting productions (or add precedence to pick one reading) so only a single derivation survives
<abcd>:7: error[proved-ambiguous]: shift/reduce conflict in state 4 on b is a proved ambiguity: sentence 'a b c d' has two distinct derivations
    hint: restructure the conflicting productions (or add precedence to pick one reading) so only a single derivation survives
lint: 3 errors, 1 warnings, 0 notes (14 rules on grammar 'abcd')"""

GOLDEN_CLEAN_JSON = """\
<clean-json>:4: info[lr-class]: grammar is SLR(1) (hence LALR(1) and LR(1)); 22 states, no conflicts
<clean-json>:9: info[unit-production]: unit production members ::= pairs
<clean-json>:10: info[left-recursion]: nonterminal pairs is left-recursive (fine for LR parsing; fatal for LL consumers)
<clean-json>:10: info[unit-production]: unit production pairs ::= pair
<clean-json>:12: info[unit-production]: unit production elements ::= items
<clean-json>:13: info[left-recursion]: nonterminal items is left-recursive (fine for LR parsing; fatal for LL consumers)
<clean-json>:13: info[unit-production]: unit production items ::= value
lint: 0 errors, 0 warnings, 7 notes (14 rules on grammar 'clean-json')"""


def lint_text(name: str) -> str:
    return render_text(run_lint(load(name)))


class TestFullTextGoldens:
    def test_figure7(self):
        assert lint_text("figure7") == GOLDEN_FIGURE7

    def test_abcd(self):
        assert lint_text("abcd") == GOLDEN_ABCD

    def test_clean_json_is_warning_free(self):
        assert lint_text("clean-json") == GOLDEN_CLEAN_JSON

    def test_figure1_findings(self):
        # Figure 1 is the paper's dangling-else grammar: the lint layer
        # must flag the pattern and the undeclared '+' operator.
        text = lint_text("figure1")
        assert "warning[dangling-else]: dangling-ELSE pattern" in text
        assert "'stmt ::= IF expr THEN stmt'" in text
        assert "warning[missing-operator-precedence]" in text
        assert "binary operator + in 'expr ::= expr + expr'" in text
        assert "3 LALR conflicts (3 shift/reduce, 0 reduce/reduce)" in text
        assert "error[proved-ambiguous]" in text
        assert "info[potentially-ambiguous]" in text
        assert text.endswith(
            "lint: 1 errors, 3 warnings, 5 notes (14 rules on grammar 'figure1')"
        )


class TestLargeGrammarCounts:
    """BV10 grammars: pin severity counts plus one emblematic finding."""

    def test_pascal1(self):
        report = run_lint(load("Pascal.1"))
        assert report.counts() == {"info": 50, "warning": 4, "error": 0}
        dangling = [d.message for d in report.by_rule("dangling-else")]
        assert any("ELSE" in message for message in dangling)

    def test_sql2(self):
        report = run_lint(load("SQL.2"))
        assert report.counts() == {"info": 43, "warning": 4, "error": 0}
        # The injected conflict shows up in the summary rule.
        (summary,) = report.by_rule("lr-class")
        assert "1 LALR conflicts" in summary.message


class TestCleanGrammarStaysClean:
    def test_zero_warnings_zero_errors(self):
        report = run_lint(load("clean-json"))
        counts = report.counts()
        assert counts["warning"] == 0
        assert counts["error"] == 0

    def test_fail_on_warning_would_pass(self):
        from repro.lint import Severity

        report = run_lint(load("clean-json"))
        assert not report.should_fail(Severity.WARNING)


class TestInjectedDefectsAreTruePositives:
    def test_java2_nullable_modifiers_cycle_is_caught(self):
        # Java.2's injected defect (the paper's 1133-conflict variant)
        # really is a derivation cycle; lint must flag it at error
        # severity — CI's corpus gate asserts the same expected failure.
        report = run_lint(
            load("Java.2"),
            config=LintConfig(enabled=frozenset({"derivation-cycle"})),
        )
        (diagnostic,) = report.diagnostics
        assert "Modifiers" in diagnostic.message
        assert report.counts()["error"] == 1


class TestEveryDiagnosticHasALine:
    """Acceptance criterion: every diagnostic produced for a DSL-loaded
    grammar carries a source line."""

    @pytest.mark.parametrize(
        "name", ["figure1", "figure7", "abcd", "clean-json", "Pascal.1", "SQL.2"]
    )
    def test_golden_grammars(self, name):
        report = run_lint(load(name))
        assert report.diagnostics, name
        for diagnostic in report.diagnostics:
            assert diagnostic.span.line is not None, (name, diagnostic)

    @pytest.mark.slow
    def test_whole_registry(self):
        for spec in all_specs():
            grammar = spec.load()
            context = LintContext(grammar, max_lr1_states=2_000)
            report = run_lint(grammar, context=context)
            for diagnostic in report.diagnostics:
                assert diagnostic.span.line is not None, (spec.name, diagnostic)
