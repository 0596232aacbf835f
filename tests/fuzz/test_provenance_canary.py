"""Provenance canary: the fuzz harness classifies conflicts correctly.

Injects the known non-LALR fixture into the harness's examination loop
and asserts its conflicts are classified as LALR merge artifacts (and
the genuine sibling's as genuine) — so a silent regression in the
minimal-LR(1) splitter fails the fuzz battery, not just the unit tests.
"""

from repro.corpus import load
from repro.verify.harness import FuzzHarness


class TestInjectedNonLalrGrammar:
    def test_merge_artifacts_counted(self):
        harness = FuzzHarness(shrink=False)
        examination = harness._examine(load("nonlalr01"), seed=0)
        assert examination.conflicts == 2
        assert examination.merge_artifacts == 2
        assert examination.genuine == 0
        assert not examination.problems

    def test_genuine_sibling_counted(self):
        harness = FuzzHarness(shrink=False)
        examination = harness._examine(load("nonlalr03-genuine"), seed=0)
        assert examination.conflicts == 1
        assert examination.genuine == 1
        assert examination.merge_artifacts == 0



class TestCampaignCounters:
    def test_report_accumulates_and_describes_provenance(self, campaign_30):
        report = campaign_30
        assert report.ok, report.describe()
        # Random conflicted grammars are overwhelmingly genuinely
        # ambiguous, so the genuine counter must move on a real campaign.
        assert report.genuine_conflicts > 0
        assert "conflict provenance:" in report.describe()


class TestBrokenClassifierFailsCampaign:
    def test_raising_classifier_is_classified_as_crash(self, monkeypatch):
        import repro.automaton.ielr as ielr_module

        def explode(*args, **kwargs):
            raise RuntimeError("classifier exploded")

        monkeypatch.setattr(ielr_module, "classify_conflicts", explode)
        from repro.verify.harness import FailureKind

        harness = FuzzHarness(shrink=False)
        examination = harness._examine(load("nonlalr01"), seed=0)
        assert any(
            kind is FailureKind.CRASH and "provenance" in detail
            for kind, detail in examination.problems
        )


class TestMergeArtifactInvariant:
    """A merge artifact never has a verified unifying counterexample."""

    def test_classifier_labelling_figure1_artifacts_is_flagged(self, monkeypatch):
        import repro.automaton.ielr as ielr_module
        from repro.automaton.ielr import ConflictProvenance, ProvenanceVerdict
        from repro.verify.harness import FailureKind

        def all_artifacts(automaton, minimal, max_lr1_states):
            return {
                conflict: ConflictProvenance(
                    ProvenanceVerdict.MERGE_ARTIFACT, conflict.state_id
                )
                for conflict in automaton.conflicts
            }

        monkeypatch.setattr(ielr_module, "classify_conflicts", all_artifacts)
        examination = FuzzHarness(shrink=False)._examine(load("figure1"), seed=0)
        assert any(
            kind is FailureKind.PROVENANCE_CONTRADICTION
            for kind, _ in examination.problems
        )
        assert FailureKind.PROVENANCE_CONTRADICTION.fatal

    def test_honest_classifier_raises_no_contradiction(self):
        from repro.verify.harness import FailureKind

        for name in ("figure1", "nonlalr01", "nonlalr03-genuine"):
            examination = FuzzHarness(shrink=False)._examine(load(name), seed=0)
            assert (
                FailureKind.PROVENANCE_CONTRADICTION
                not in examination.problem_kinds()
            )
