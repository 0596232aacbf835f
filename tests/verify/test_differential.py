"""Unit tests for the cross-construction differential oracle."""

import pytest

from repro.corpus import load
from repro.grammar import load_grammar
from repro.lint import LintContext
from repro.verify import DifferentialOracle


class TestConsistentGrammars:
    """Known-good grammars must produce zero disagreements."""

    @pytest.mark.parametrize(
        "name", ["figure1", "figure3", "figure7", "abcd", "xi", "SQL.1"]
    )
    def test_corpus_grammar_consistent(self, name):
        report = DifferentialOracle(LintContext(load(name)), seed=7).check()
        assert report.ok, report.describe()
        assert report.samples_checked > 0

    def test_conflict_free_grammar_consistent(self, expr_grammar):
        report = DifferentialOracle(LintContext(expr_grammar)).check()
        assert report.ok, report.describe()

    def test_epsilon_cycle_grammar_consistent(self):
        # The shape that used to livelock the LR driver: the oracle must
        # classify it without hanging or disagreeing.
        grammar = load_grammar(
            "n0 : %empty | a d n0 n2 | n0 n0 d a ;"
            "n2 : d n2 b a | %empty | n2 n2 ;"
        )
        report = DifferentialOracle(LintContext(grammar), seed=3).check()
        assert report.ok, report.describe()


class TestLr1StateCap:
    def test_cap_skips_rather_than_fails(self):
        context = LintContext(load("figure1"), max_lr1_states=1)
        report = DifferentialOracle(context).check()
        assert report.ok
        assert any("lr1-agreement" in reason for reason in report.skipped)


class TestDescribe:
    def test_describe_mentions_grammar_and_status(self):
        report = DifferentialOracle(LintContext(load("figure3"))).check()
        text = report.describe()
        assert "figure3" in text
        assert "consistent" in text


class TestIELRAgreement:
    """The minimal-LR(1) construction checked as a fourth pipeline."""

    @pytest.mark.parametrize("name", ["nonlalr01", "nonlalr02"])
    def test_nonlalr_grammar_consistent(self, name):
        """The grammars whose whole point is LALR/LR(1) divergence must
        still satisfy every cross-construction invariant."""
        report = DifferentialOracle(LintContext(load(name)), seed=5).check()
        assert report.ok, report.describe()
        assert not any("ielr" in reason for reason in report.skipped)

    def test_broken_splitter_detected(self, monkeypatch):
        """If the minimal construction stopped splitting, the oracle
        must flag the manufactured conflicts it then carries."""
        import repro.automaton.ielr as ielr_module
        from repro.automaton import build_lalr

        monkeypatch.setattr(
            ielr_module, "build_ielr", lambda grammar, **kw: build_lalr(grammar)
        )
        report = DifferentialOracle(LintContext(load("nonlalr01")), seed=5).check()
        assert not report.ok
        assert any(
            d.check == "ielr-conflict-signatures" for d in report.disagreements
        )

    def test_nonproductive_grammar_skips_lalr_invariants(self):
        grammar = load_grammar("n0 : 'a' | 'b' n1 ;\nn1 : n1 'c' ;")
        report = DifferentialOracle(LintContext(grammar), seed=2).check()
        assert report.ok, report.describe()
        assert any("ielr-agreement" in reason for reason in report.skipped)
