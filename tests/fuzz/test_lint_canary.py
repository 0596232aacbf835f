"""The fuzz harness runs every lint pass on every fuzzed grammar.

Two invariants: (1) on a healthy lint subsystem the campaign stays
green and actually accumulates diagnostics, and (2) a lint pass that
crashes is classified as a CRASH campaign failure — the harness is the
crash-freedom canary for `repro.lint`, so a broken rule must fail the
campaign rather than vanish into an empty report.
"""

from repro.lint import get_rule
from repro.verify import FailureKind, run_fuzz_campaign

from tests.fuzz.test_fuzz_smoke import SMOKE_OPTIONS


class TestLintRunsDuringFuzzing:
    def test_campaign_accumulates_lint_diagnostics(self):
        report = run_fuzz_campaign(20, seed=0, **SMOKE_OPTIONS)
        assert report.ok, report.describe()
        # Random conflict grammars are messy; the lint passes must have
        # found plenty to say without ever crashing.
        assert report.lint_diagnostics > 0
        assert "lint diagnostics:" in report.describe()

class TestBrokenLintPassFailsCampaign:
    def test_raising_rule_is_classified_as_crash(self, monkeypatch):
        def explode(ctx):
            raise RuntimeError("deliberately broken lint pass")

        # Rules are registry singletons, so patching the instance method
        # breaks the pass for every grammar the campaign examines.
        monkeypatch.setattr(get_rule("unit-production"), "run", explode)
        report = run_fuzz_campaign(10, seed=0, **SMOKE_OPTIONS)
        assert not report.ok
        crashes = [
            f for f in report.failures if f.kind is FailureKind.CRASH
        ]
        assert crashes
        assert any("lint pass raised" in f.detail for f in crashes)
