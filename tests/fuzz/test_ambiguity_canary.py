"""Ambiguity canary: the fuzz harness walks every conflict to a verdict.

Mirrors the provenance canary: the known fixtures are injected into the
harness's examination loop and their SR pair-walk verdicts pinned, so a
silent regression in the walker (wrong verdict, invalid witness, or an
outright crash) fails the fuzz battery rather than only the unit tests.
"""

import pytest

import repro.analysis as analysis_module
from repro.analysis import AmbiguityVerdict, ConflictAmbiguity
from repro.automaton import build_lalr
from repro.corpus import load
from repro.grammar import GrammarAnalysis, load_grammar
from repro.lint import LintContext
from repro.verify import DifferentialOracle
from repro.verify.harness import FailureKind, FuzzHarness


def patch_walker(monkeypatch, rewrite):
    """Replace the SR walk with ``rewrite(honest_verdicts)``."""
    honest = analysis_module.analyze_conflicts

    def walker(automaton, **kwargs):
        return rewrite(dict(honest(automaton, **kwargs)))

    monkeypatch.setattr(analysis_module, "analyze_conflicts", walker)


class TestInjectedFixtures:
    def test_nonlalr_merge_artifacts_proved_unambiguous(self):
        harness = FuzzHarness(shrink=False)
        examination = harness._examine(load("nonlalr01"), seed=0)
        assert examination.conflicts == 2
        assert examination.ambiguity_unambiguous == 2
        assert examination.ambiguity_ambiguous == 0
        assert examination.ambiguity_inconclusive == 0
        assert not examination.problems

    def test_genuine_sibling_proved_ambiguous_with_valid_witness(self):
        harness = FuzzHarness(shrink=False)
        examination = harness._examine(load("nonlalr03-genuine"), seed=0)
        assert examination.conflicts == 1
        assert examination.ambiguity_ambiguous == 1
        assert examination.ambiguity_unambiguous == 0
        # The witness is re-proved by the Earley recount inside the
        # harness; a rejection would surface as a problem here.
        assert not examination.problems

    def test_verdicts_partition_the_conflict_set(self):
        for name in ("nonlalr01", "nonlalr02", "nonlalr03-genuine"):
            harness = FuzzHarness(shrink=False)
            examination = harness._examine(load(name), seed=0)
            total = (
                examination.ambiguity_unambiguous
                + examination.ambiguity_ambiguous
                + examination.ambiguity_inconclusive
            )
            assert total == examination.conflicts, name



class TestCampaignCounters:
    def test_report_accumulates_and_describes_verdicts(self, campaign_30):
        report = campaign_30
        assert report.ok, report.describe()
        total = (
            report.ambiguity_unambiguous
            + report.ambiguity_ambiguous
            + report.ambiguity_inconclusive
        )
        assert total == report.conflicts
        # Random conflicted grammars are overwhelmingly genuinely
        # ambiguous, so the ambiguous counter must move on a campaign.
        assert report.ambiguity_ambiguous > 0
        assert "ambiguity verdicts:" in report.describe()


class TestBrokenWalkerFailsCampaign:
    def test_raising_walker_is_classified_as_crash(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("walker exploded")

        monkeypatch.setattr(analysis_module, "analyze_conflicts", explode)

        harness = FuzzHarness(shrink=False)
        examination = harness._examine(load("nonlalr01"), seed=0)
        assert any(
            kind is FailureKind.CRASH and "ambiguity" in detail
            for kind, detail in examination.problems
        )

    def test_walker_dropping_a_conflict_is_classified_as_crash(
        self, monkeypatch
    ):
        grammar = load("figure1")
        first = build_lalr(grammar).tables.conflicts[0]

        def drop_first(verdicts):
            del verdicts[first]
            return verdicts

        patch_walker(monkeypatch, drop_first)
        examination = FuzzHarness(shrink=False)._examine(grammar, seed=0)
        crashes = [
            detail
            for kind, detail in examination.problems
            if kind is FailureKind.CRASH
        ]
        assert crashes == [
            f"ambiguity walk left conflicts without a verdict: [{first}]"
        ]

    def test_walker_inventing_a_conflict_is_classified_as_crash(
        self, monkeypatch
    ):
        stranger = build_lalr(load("nonlalr03-genuine")).tables.conflicts[0]

        def invent(verdicts):
            verdicts[stranger] = ConflictAmbiguity(
                AmbiguityVerdict.UNAMBIGUOUS, detail="invented"
            )
            return verdicts

        patch_walker(monkeypatch, invent)
        examination = FuzzHarness(shrink=False)._examine(load("figure1"), seed=0)
        assert (
            FailureKind.CRASH,
            f"ambiguity walk gave verdicts for unknown conflicts: [{stranger}]",
        ) in examination.problems

    def test_invalid_witness_is_one_validator_rejection(self, monkeypatch):
        grammar = load("figure1")
        first = build_lalr(grammar).tables.conflicts[0]
        # The shortest sentence of figure1 has a single derivation.
        witness = tuple(GrammarAnalysis(grammar).shortest_expansion(grammar.start))

        def lie_about_first(verdicts):
            verdicts[first] = ConflictAmbiguity(
                AmbiguityVerdict.AMBIGUOUS, witness=witness, detail="forced"
            )
            return verdicts

        patch_walker(monkeypatch, lie_about_first)
        examination = FuzzHarness(shrink=False)._examine(grammar, seed=0)
        fatal = [
            (kind, detail)
            for kind, detail in examination.problems
            if kind.fatal
        ]
        assert len(fatal) == 1, fatal
        kind, detail = fatal[0]
        assert kind is FailureKind.VALIDATOR_REJECTION
        assert detail.startswith(f"ambiguity witness for [{first}] rejected")


class TestWalkSearchCrossCheck:
    """A conflict the walk proves unambiguous cannot have a unifying
    counterexample; a walker that wrongly says so must be caught."""

    @pytest.fixture
    def lying_walker(self, monkeypatch):
        def always_unambiguous(verdicts):
            return {
                conflict: ConflictAmbiguity(
                    AmbiguityVerdict.UNAMBIGUOUS, detail="forced"
                )
                for conflict in verdicts
            }

        patch_walker(monkeypatch, always_unambiguous)

    def test_harness_flags_forced_unambiguous_on_figure1(self, lying_walker):
        harness = FuzzHarness(shrink=False)
        examination = harness._examine(load("figure1"), seed=0)
        contradictions = [
            detail
            for kind, detail in examination.problems
            if kind is FailureKind.WALK_CONTRADICTION
        ]
        assert contradictions
        assert FailureKind.WALK_CONTRADICTION.fatal

    def test_oracle_samples_ambiguity_behind_forced_unambiguous(
        self, lying_walker
    ):
        """With every conflict forced ``unambiguous``, the oracle's
        sampling invariant catches an ambiguous sentence."""
        grammar = load_grammar("e : e '+' e | 'a' ;")
        report = DifferentialOracle(LintContext(grammar), seed=0).check()
        assert "ambiguous-despite-unambiguous-verdicts" in {
            d.check for d in report.disagreements
        }

    def test_honest_walker_raises_no_contradiction(self):
        for name in ("figure1", "nonlalr01", "nonlalr03-genuine"):
            examination = FuzzHarness(shrink=False)._examine(load(name), seed=0)
            assert FailureKind.WALK_CONTRADICTION not in examination.problem_kinds()
