"""Ambiguity canary: the fuzz harness walks every conflict to a verdict.

Mirrors the provenance canary: the known fixtures are injected into the
harness's examination loop and their SR pair-walk verdicts pinned, so a
silent regression in the walker (wrong verdict, invalid witness, or an
outright crash) fails the fuzz battery rather than only the unit tests.
"""

import pytest

from repro.corpus import load
from repro.verify import DifferentialOracle, run_fuzz_campaign
from repro.verify.harness import FailureKind, FuzzHarness


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
    def test_report_accumulates_and_describes_verdicts(self):
        report = run_fuzz_campaign(30, seed=0, shrink=False)
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
        import repro.analysis as analysis_module

        def explode(*args, **kwargs):
            raise RuntimeError("walker exploded")

        monkeypatch.setattr(analysis_module, "analyze_conflicts", explode)

        harness = FuzzHarness(shrink=False)
        examination = harness._examine(load("nonlalr01"), seed=0)
        assert any(
            kind is FailureKind.CRASH and "ambiguity" in detail
            for kind, detail in examination.problems
        )


class TestWalkSearchCrossCheck:
    """A conflict the walk proves unambiguous cannot have a unifying
    counterexample; a walker that wrongly says so must be caught."""

    @pytest.fixture
    def lying_walker(self, monkeypatch):
        import repro.analysis as analysis_module
        from repro.analysis import AmbiguityVerdict, ConflictAmbiguity

        def always_unambiguous(automaton, **kwargs):
            return {
                conflict: ConflictAmbiguity(
                    AmbiguityVerdict.UNAMBIGUOUS, detail="forced"
                )
                for conflict in automaton.tables.conflicts
            }

        monkeypatch.setattr(
            analysis_module, "analyze_conflicts", always_unambiguous
        )

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
        assert any(
            kind is FailureKind.ORACLE_DISAGREEMENT
            and "unambiguous-despite-unifying-counterexample" in detail
            for kind, detail in examination.problems
        )

    def test_differential_oracle_flags_forced_unambiguous(self, lying_walker):
        report = DifferentialOracle(load("figure1"), seed=0).check()
        assert "unambiguous-despite-unifying-counterexample" in {
            d.check for d in report.disagreements
        }

    def test_honest_walker_raises_no_contradiction(self):
        for name in ("figure1", "nonlalr01", "nonlalr03-genuine"):
            examination = FuzzHarness(shrink=False)._examine(load(name), seed=0)
            assert FailureKind.WALK_CONTRADICTION not in examination.problem_kinds()
