"""Golden verdicts and behavioural guarantees of the SR pair walk.

The non-LALR fixture family gives the walk all three interesting shapes:
merge-artifact conflicts it must prove unambiguous, a genuinely
ambiguous sibling where it must produce a validating witness, and (via
starved budgets) the graceful-degradation path where the only acceptable
answer is ``inconclusive`` — never a wrong verdict, never a crash.
"""

import pytest

from repro.analysis import (
    DEFAULT_MAX_NODES,
    AmbiguityVerdict,
    ConflictAmbiguity,
    SRAutomaton,
    analyze_conflicts,
    walk_conflict,
)
from repro.automaton import build_lalr
from repro.cli import main
from repro.core import CounterexampleFinder
from repro.corpus import all_specs, load
from repro.lint import LintContext
from repro.verify import validate_ambiguity_witness


class TestGoldenVerdicts:
    def test_nonlalr01_merge_artifacts_proved_unambiguous(self):
        automaton = build_lalr(load("nonlalr01"))
        verdicts = analyze_conflicts(automaton)
        assert len(verdicts) == 2
        assert all(
            v.verdict is AmbiguityVerdict.UNAMBIGUOUS
            for v in verdicts.values()
        )

    def test_nonlalr02_proved_unambiguous(self):
        automaton = build_lalr(load("nonlalr02"))
        verdicts = analyze_conflicts(automaton)
        assert len(verdicts) == 2
        assert all(
            v.verdict is AmbiguityVerdict.UNAMBIGUOUS
            for v in verdicts.values()
        )

    def test_genuine_sibling_proved_ambiguous(self):
        grammar = load("nonlalr03-genuine")
        automaton = build_lalr(grammar)
        verdicts = analyze_conflicts(automaton)
        assert len(verdicts) == 1
        (verdict,) = verdicts.values()
        assert verdict.verdict is AmbiguityVerdict.AMBIGUOUS
        assert verdict.witness is not None
        # The witness is a real two-derivation sentence, independently
        # re-proved by the Earley recognizer.
        result = validate_ambiguity_witness(grammar, verdict.witness)
        assert result.ok, result.describe()

    def test_walk_is_deterministic(self):
        automaton = build_lalr(load("nonlalr03-genuine"))
        first = analyze_conflicts(automaton)
        second = analyze_conflicts(automaton)
        assert first == second

    def test_every_corpus_conflict_gets_a_verdict(self):
        # A cheap slice of the full-corpus sweep (the CI bench job runs
        # the heavyweight grammars): verdicts partition the conflict set.
        for name in ("figure1", "nonlalr01", "nonlalr03-genuine"):
            automaton = build_lalr(load(name))
            verdicts = analyze_conflicts(automaton)
            assert set(verdicts) == set(automaton.tables.conflicts), name


class TestSoundness:
    def test_no_unambiguous_corpus_grammar_proved_ambiguous(self):
        # ambiguous=False corpus grammars are known unambiguous; a single
        # AMBIGUOUS verdict on one of them is a walker soundness bug.
        for spec in all_specs():
            if spec.ambiguous:
                continue
            automaton = build_lalr(spec.load())
            if not automaton.conflicts:
                continue
            verdicts = analyze_conflicts(automaton)
            assert all(
                v.verdict is not AmbiguityVerdict.AMBIGUOUS
                for v in verdicts.values()
            ), spec.name

    def test_ambiguous_verdicts_always_carry_witnesses(self):
        for name in ("figure1", "nonlalr03-genuine"):
            grammar = load(name)
            automaton = build_lalr(grammar)
            for verdict in analyze_conflicts(automaton).values():
                if verdict.verdict is AmbiguityVerdict.AMBIGUOUS:
                    assert verdict.witness is not None
                    assert validate_ambiguity_witness(
                        grammar, verdict.witness
                    ).ok


class TestBudgets:
    def test_near_zero_budget_is_inconclusive_not_wrong(self):
        # Starving the walk must degrade to INCONCLUSIVE (or, for walks
        # that finish within the first node, the true verdict) — never
        # an AMBIGUOUS claim without a witness, never an exception.
        for name in ("nonlalr01", "nonlalr03-genuine", "figure1"):
            automaton = build_lalr(load(name))
            verdicts = analyze_conflicts(automaton, max_nodes=1)
            for verdict in verdicts.values():
                if verdict.verdict is AmbiguityVerdict.AMBIGUOUS:
                    assert verdict.witness is not None
                else:
                    assert verdict.verdict in (
                        AmbiguityVerdict.INCONCLUSIVE,
                        AmbiguityVerdict.UNAMBIGUOUS,
                    )

    def test_starved_walk_reports_budget_in_detail(self):
        automaton = build_lalr(load("figure1"))
        verdicts = analyze_conflicts(automaton, max_nodes=1)
        assert any(
            v.verdict is AmbiguityVerdict.INCONCLUSIVE
            for v in verdicts.values()
        )

    def test_default_budget_constant_used(self):
        automaton = build_lalr(load("nonlalr01"))
        sr = SRAutomaton(automaton)
        (conflict,) = automaton.tables.conflicts[:1]
        verdict = walk_conflict(sr, conflict)
        assert verdict.nodes <= DEFAULT_MAX_NODES


class TestDescribe:
    def test_describe_strings(self):
        assert "proved unambiguous" in ConflictAmbiguity(
            verdict=AmbiguityVerdict.UNAMBIGUOUS, detail="x"
        ).describe()
        assert "inconclusive" in ConflictAmbiguity(
            verdict=AmbiguityVerdict.INCONCLUSIVE, detail="x"
        ).describe()
        ambiguous = ConflictAmbiguity(
            verdict=AmbiguityVerdict.AMBIGUOUS, witness=()
        ).describe()
        assert "proved ambiguous" in ambiguous


class TestAnnotate:
    def test_annotate_sets_report_fields(self, capsys):
        # ``--ambiguity`` attaches the context's verdict to every report.
        grammar = load("nonlalr03-genuine")
        mapping = LintContext(grammar).ambiguity_verdicts
        assert mapping
        main(["--corpus", "nonlalr03-genuine", "--ambiguity"])
        output = capsys.readouterr().out
        assert output.count("Ambiguity : ") == len(mapping)
        for verdict in mapping.values():
            assert f"Ambiguity : {verdict.describe()}" in output

    def test_reports_default_to_no_verdict(self):
        automaton = build_lalr(load("nonlalr03-genuine"))
        summary = CounterexampleFinder(automaton).explain_all()
        assert all(r.ambiguity is None for r in summary.reports)


class TestConflictFree:
    def test_no_conflicts_empty_mapping(self):
        automaton = build_lalr(load("clean-json"))
        assert automaton.tables.conflicts == []
        assert analyze_conflicts(automaton) == {}


@pytest.mark.slow
class TestHeavyCorpus:
    """The grammars the CI bench gate pins, out of the default run."""

    def test_pascal_c2_pinned_verdicts(self):
        automaton = build_lalr(load("C.2"))
        verdicts = analyze_conflicts(automaton)
        counts = {"unambiguous": 0, "ambiguous": 0, "inconclusive": 0}
        for verdict in verdicts.values():
            counts[verdict.verdict.value] += 1
        assert counts == {"unambiguous": 0, "ambiguous": 0, "inconclusive": 7}
