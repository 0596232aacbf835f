"""One artifact set per grammar at every entry point.

The campaign's ``corpus:`` units, the service worker and provenance all
read the automaton, the walk verdicts and the canonical LR(1) build from
one :class:`~repro.lint.context.LintContext`, so each is computed at most
once per run and the walk not at all on a warm cache.
"""

import pytest

from repro.automaton import LR1Automaton, ProvenanceVerdict, build_ielr, build_lalr
from repro.automaton.serialize import dump_automaton, load_automaton
from repro.campaign.runner import execute_unit
from repro.campaign.units import CampaignSpec, WorkUnit
from repro.corpus import load
from repro.grammar import Terminal, load_grammar
from repro.grammar.emit import dump_grammar
from repro.lint import LintContext, run_lint
from repro.perf import metrics
from repro.perf.cache import AutomatonCache
from repro.service.worker import run_analysis


@pytest.fixture
def lr1_attempts(monkeypatch):
    """A list that grows by one per canonical LR(1) construction attempt."""
    attempts = []
    original = LR1Automaton.__init__

    def counting(self, *args, **kwargs):
        attempts.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(LR1Automaton, "__init__", counting)
    return attempts


def span_count(spans, suffix: str) -> int:
    """Entries into every span path ending in *suffix*."""
    return sum(
        cell["count"] if isinstance(cell, dict) else cell[0]
        for path, cell in spans.items()
        if path.endswith(suffix)
    )


class TestCorpusUnit:
    @pytest.mark.parametrize("name", ["figure1", "nonlalr01"])
    def test_one_lr1_attempt_and_one_cold_walk(self, name, tmp_path, lr1_attempts):
        spec = CampaignSpec(corpus=(name,))
        cache = AutomatonCache(tmp_path)
        payloads = []
        for expected_walks in (1, 0):  # cold, then warm on the same cache
            del lr1_attempts[:]
            with metrics.collecting() as collector:
                result = execute_unit(WorkUnit("corpus", name), spec, cache)
            assert result.outcome == "ok", result.payload
            assert len(lr1_attempts) <= 1
            assert span_count(collector.spans, "analysis/walk") == expected_walks
            payloads.append(result.payload)
        assert payloads[0] == payloads[1]


class TestServiceWorker:
    def test_lint_and_ambiguity_share_one_build_and_walk(self, tmp_path):
        payload = {
            "grammar": dump_grammar(load("figure1")),
            "name": "figure1",
            "cache_dir": str(tmp_path),
            "options": {"lint": True, "ambiguity": True},
        }
        cold = run_analysis(payload)
        warm = run_analysis(payload)
        assert cold["ok"] and warm["ok"]
        assert span_count(cold["phases"], "automaton/lookaheads") == 1
        assert span_count(cold["phases"], "analysis/walk") == 1
        assert span_count(warm["phases"], "automaton/lookaheads") == 0
        assert span_count(warm["phases"], "analysis/walk") == 0
        for key in ("lint", "ambiguity", "reports", "summary"):
            assert cold[key] == warm[key]


@pytest.fixture
def table_builds(monkeypatch):
    """A list that grows by one per ACTION/GOTO table construction."""
    import repro.automaton.tables as tables_module

    builds = []
    original = tables_module.build_tables

    def counting(automaton):
        builds.append(1)
        return original(automaton)

    monkeypatch.setattr(tables_module, "build_tables", counting)
    return builds


class TestNoParseTables:
    """Lint reads conflicts and precedence from the automaton, never the tables."""

    GRAMMAR = "%left '+'\n%right '^'\ne : e '+' e | e '*' e | ID ;"

    def test_cold_and_decoded_automata(self, table_builds):
        grammar = load_grammar(self.GRAMMAR)
        automaton = build_lalr(grammar)
        decoded = load_automaton(dump_automaton(automaton))
        for subject in (automaton, decoded):
            report = run_lint(grammar, context=LintContext(grammar, automaton=subject))
            assert any(d.rule_id == "unused-precedence" for d in report.diagnostics)
        assert table_builds == []
        assert automaton.used_precedence == {Terminal("+")}

    def test_campaign_unit_and_service_lint(self, tmp_path, table_builds):
        cache = AutomatonCache(tmp_path)
        for _ in ("cold", "warm"):
            result = execute_unit(WorkUnit("corpus", "figure1"), CampaignSpec(), cache)
            assert result.outcome == "ok", result.payload
            response = run_analysis(
                {
                    "grammar": dump_grammar(load("figure1")),
                    "name": "figure1",
                    "cache_dir": str(tmp_path),
                    "options": {"lint": True},
                }
            )
            assert response["ok"] and response["lint"]
            assert span_count(response["phases"], "tables") == 0
        assert table_builds == []


class TestCappedProvenance:
    def test_capped_lr1_is_attempted_once(self, lr1_attempts):
        context = LintContext(load("figure1"), max_lr1_states=1)
        provenance = context.provenance
        assert len(lr1_attempts) == 1
        assert context.lr1 is None and context.lr1_capped
        assert provenance
        for entry in provenance.values():
            assert entry.verdict is ProvenanceVerdict.UNKNOWN
            assert entry.detail == (
                "canonical LR(1) collection exceeds 1 states; "
                "provenance not computed"
            )

    def test_exact_construction_needs_no_lr1(self, lr1_attempts):
        grammar = load("nonlalr03-genuine")
        ielr = build_ielr(grammar)
        del lr1_attempts[:]
        provenance = LintContext(grammar, automaton=ielr).provenance
        assert lr1_attempts == []
        assert all(
            entry.verdict is ProvenanceVerdict.GENUINE
            for entry in provenance.values()
        )


class TestLintJudgesLalr:
    def test_non_lalr_context_lints_the_lalr_automaton(self):
        grammar = load("nonlalr01")
        context = LintContext(grammar, automaton=build_ielr(grammar))
        report = run_lint(grammar, context=context)
        assert [d.message for d in report.diagnostics] == [
            d.message for d in run_lint(grammar).diagnostics
        ]
        # The caller's context keeps its own construction.
        assert context.automaton.algorithm == "ielr"
