"""Tests for the minimal-LR(1) (IELR-style) construction and provenance."""

import pytest

from repro.automaton import (
    IELRAutomaton,
    LR1Automaton,
    ProvenanceVerdict,
    build_automaton,
    build_ielr,
    build_lalr,
    canonical_conflict_signatures,
    classify_conflicts,
    conflict_signatures,
)
from repro.automaton.lr0 import LR0Automaton
from repro.core import CounterexampleFinder
from repro.corpus import load as load_corpus
from repro.grammar import load_grammar
from repro.lint import LintContext


@pytest.fixture
def nonlalr01():
    return load_corpus("nonlalr01")


@pytest.fixture
def nonlalr02():
    return load_corpus("nonlalr02")


@pytest.fixture
def genuine_sibling():
    return load_corpus("nonlalr03-genuine")


class TestConstruction:
    def test_dissolves_manufactured_conflicts(self, nonlalr01):
        lalr = build_lalr(nonlalr01)
        ielr = build_ielr(nonlalr01)
        assert len(lalr.conflicts) == 2
        assert not ielr.conflicts
        assert not conflict_signatures(ielr)

    def test_state_sandwich(self, nonlalr01):
        lalr = build_lalr(nonlalr01)
        ielr = build_ielr(nonlalr01)
        lr1 = LR1Automaton(nonlalr01)
        assert len(lalr.states) <= len(ielr.states) <= len(lr1.states)
        # The classic grammar needs exactly one extra state.
        assert len(ielr.states) == len(lalr.states) + 1

    def test_exactly_one_core_split(self, nonlalr01):
        ielr = build_ielr(nonlalr01)
        assert len(ielr.splits) == 1
        (split,) = ielr.splits
        assert len(split.state_ids) == 2
        assert ielr.split_states_for_kernel(split.kernel) == split.state_ids

    def test_congruence_propagates_splits(self, nonlalr02):
        """The two-level grammar needs its ``c``-chain split end to end."""
        lalr = build_lalr(nonlalr02)
        ielr = build_ielr(nonlalr02)
        assert len(lalr.conflicts) == 2
        assert not ielr.conflicts
        assert len(ielr.splits) == 2

    def test_lalr_grammar_unchanged(self, expr_grammar):
        """On an LALR(1) grammar the quotient reproduces the LALR automaton."""
        lalr = build_lalr(expr_grammar)
        ielr = build_ielr(expr_grammar)
        assert len(ielr.states) == len(lalr.states)
        assert not ielr.splits
        for lalr_state, ielr_state in zip(lalr.states, ielr.states):
            assert lalr_state.kernel == ielr_state.kernel
            for item in lalr_state.items:
                assert lalr.lookahead(lalr_state, item) == ielr.lookahead(
                    ielr_state, item
                )

    def test_canonical_mode_is_identity_partition(self, nonlalr01):
        canonical = build_ielr(nonlalr01, algorithm="lr1")
        lr1 = LR1Automaton(nonlalr01)
        assert canonical.algorithm == "lr1"
        assert len(canonical.states) == len(lr1.states)
        assert all(len(state.members) == 1 for state in canonical.states)

    def test_rejects_lalr(self, expr_grammar):
        with pytest.raises(ValueError, match="build_lalr"):
            build_ielr(expr_grammar, algorithm="lalr")

    def test_state_bound_raises(self):
        grammar = load_corpus("nonlalr02")
        with pytest.raises(RuntimeError):
            build_ielr(grammar, max_lr1_states=3)

    def test_shared_lr1_reused(self, nonlalr01):
        lr1 = LR1Automaton(nonlalr01)
        ielr = build_ielr(nonlalr01, lr1=lr1)
        assert ielr.canonical_state_count == len(lr1.states)


class TestDispatch:
    def test_default_is_lalr(self, expr_grammar):
        automaton = build_automaton(expr_grammar)
        assert automaton.algorithm == "lalr"
        assert not isinstance(automaton, IELRAutomaton)

    def test_algorithm_directive_respected(self):
        grammar = load_grammar(
            "%algorithm ielr\ns : 'a' X 'd' | 'a' Y 'e' | 'b' X 'e' | 'b' Y 'd' ;"
            "\nX : 'c' ;\nY : 'c' ;"
        )
        automaton = build_automaton(grammar)
        assert isinstance(automaton, IELRAutomaton)
        assert automaton.algorithm == "ielr"
        assert not automaton.conflicts

    def test_explicit_overrides_directive(self, nonlalr01):
        assert build_automaton(nonlalr01, "lr1").algorithm == "lr1"

    def test_aliases(self, nonlalr01):
        assert build_automaton(nonlalr01, "minimal-lr1").algorithm == "ielr"
        assert build_automaton(nonlalr01, "canonical").algorithm == "lr1"


class TestSignatures:
    def test_ielr_matches_canonical(self, nonlalr01, genuine_sibling):
        for grammar in (nonlalr01, genuine_sibling):
            lr1 = LR1Automaton(grammar)
            ielr = build_ielr(grammar, lr1=lr1)
            assert conflict_signatures(ielr) == canonical_conflict_signatures(lr1)

    def test_lalr_superset_of_canonical(self, nonlalr01):
        lalr = build_lalr(nonlalr01)
        lr1 = LR1Automaton(nonlalr01)
        assert conflict_signatures(lalr) > canonical_conflict_signatures(lr1)


class TestProvenance:
    def test_merge_artifacts_name_split_states(self, nonlalr01):
        lalr = build_lalr(nonlalr01)
        ielr = build_ielr(nonlalr01)
        (split,) = ielr.splits
        provenance = LintContext(nonlalr01, automaton=lalr).provenance
        assert len(provenance) == 2
        for verdict in provenance.values():
            assert verdict.verdict is ProvenanceVerdict.MERGE_ARTIFACT
            assert verdict.split_states == split.state_ids
            assert "splits into minimal-LR(1) states" in verdict.describe()

    def test_genuine_conflict(self, genuine_sibling):
        provenance = LintContext(genuine_sibling).provenance
        (verdict,) = provenance.values()
        assert verdict.verdict is ProvenanceVerdict.GENUINE
        assert "survives canonical LR(1)" in verdict.detail

    def test_unknown_when_bound_exceeded(self, genuine_sibling):
        provenance = LintContext(genuine_sibling, max_lr1_states=2).provenance
        (verdict,) = provenance.values()
        assert verdict.verdict is ProvenanceVerdict.UNKNOWN

    def test_exact_construction_classifies_genuine_outright(self, genuine_sibling):
        ielr = build_ielr(genuine_sibling)
        provenance = LintContext(genuine_sibling, automaton=ielr).provenance
        assert all(
            v.verdict is ProvenanceVerdict.GENUINE for v in provenance.values()
        )

    def test_prebuilt_minimal_reused(self, nonlalr01):
        lalr = build_lalr(nonlalr01)
        minimal = build_ielr(nonlalr01)
        provenance = classify_conflicts(lalr, minimal, max_lr1_states=20_000)
        assert all(
            v.verdict is ProvenanceVerdict.MERGE_ARTIFACT
            for v in provenance.values()
        )


class TestDownstream:
    def test_finder_consumes_ielr_automaton(self, ambiguous_expr):
        """The counterexample pipeline runs unchanged on an IELR automaton."""
        automaton = build_ielr(ambiguous_expr)
        summary = CounterexampleFinder(automaton, time_limit=2.0).explain_all()
        assert summary.num_conflicts == len(automaton.conflicts) > 0
        assert summary.num_unifying == summary.num_conflicts

    def test_lr0_view_is_consistent(self, nonlalr01):
        ielr = build_ielr(nonlalr01)
        assert isinstance(ielr.lr0, LR0Automaton)
        for state in ielr.states:
            for symbol, target in state.transitions.items():
                assert state in ielr.lr0.predecessors[target.id][symbol]
