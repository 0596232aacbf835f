"""Golden tests for the non-LALR fixture family and its provenance."""

import pytest

from repro.automaton import (
    ProvenanceVerdict,
    annotate_provenance,
    build_ielr,
    build_lalr,
)
from repro.automaton.conflicts import ConflictKind
from repro.core import CounterexampleFinder, safe_format_report
from repro.core.report import report_to_json
from repro.corpus import all_specs, load
from repro.lint import LintContext
from repro.verify.differential import DifferentialOracle

NONLALR_FAMILY = ("nonlalr01", "nonlalr02", "nonlalr03-genuine")


class TestRegistry:
    def test_family_registered(self):
        names = {spec.name for spec in all_specs(category="nonlalr")}
        assert names == set(NONLALR_FAMILY)

    @pytest.mark.parametrize("name", NONLALR_FAMILY)
    def test_loadable(self, name):
        grammar = load(name)
        assert grammar.name == name


class TestMergeArtifacts:
    @pytest.mark.parametrize("name", ("nonlalr01", "nonlalr02"))
    def test_lalr_conflicted_ielr_clean(self, name):
        """Every non-LALR fixture: LALR reports R/R conflicts where
        canonical LR(1) — and therefore IELR — has none."""
        grammar = load(name)
        lalr = build_lalr(grammar)
        assert lalr.conflicts
        assert all(
            conflict.kind is ConflictKind.REDUCE_REDUCE
            for conflict in lalr.conflicts
        )
        assert not build_ielr(grammar).conflicts

    @pytest.mark.parametrize("name", ("nonlalr01", "nonlalr02"))
    def test_report_labels_merge_artifact(self, name):
        grammar = load(name)
        automaton = build_lalr(grammar)
        summary = CounterexampleFinder(automaton, time_limit=2.0).explain_all()
        mapping = annotate_provenance(summary.reports, automaton)
        assert mapping
        split_ids = {
            sid
            for split in build_ielr(grammar).splits
            for sid in split.state_ids
        }
        for report in summary.reports:
            text = safe_format_report(report)
            assert "Provenance: LALR merge artifact" in text
            assert "splits into minimal-LR(1) states" in text
            assert report.provenance.split_states
            assert f"#{report.provenance.split_states[0]}" in text
            assert set(report.provenance.split_states) <= split_ids

    def test_robust_report_json_carries_provenance(self):
        grammar = load("nonlalr01")
        automaton = build_lalr(grammar)
        summary = CounterexampleFinder(automaton, time_limit=2.0).explain_all()
        annotate_provenance(summary.reports, automaton)
        entry = report_to_json(summary.reports[0])
        assert entry["provenance"]["verdict"] == "LALR merge artifact"
        assert len(entry["provenance"]["split_states"]) >= 2


class TestGenuineSibling:
    def test_conflict_survives_everywhere(self):
        grammar = load("nonlalr03-genuine")
        assert build_lalr(grammar).conflicts
        assert build_ielr(grammar).conflicts
        assert build_ielr(grammar, algorithm="lr1").conflicts

    def test_report_labels_genuine(self):
        grammar = load("nonlalr03-genuine")
        automaton = build_lalr(grammar)
        summary = CounterexampleFinder(automaton, time_limit=2.0).explain_all()
        mapping = annotate_provenance(summary.reports, automaton)
        (provenance,) = mapping.values()
        assert provenance.verdict is ProvenanceVerdict.GENUINE
        text = safe_format_report(summary.reports[0])
        assert "Provenance: genuine LR(1) conflict" in text


class TestOracle:
    @pytest.mark.parametrize("name", NONLALR_FAMILY)
    def test_differential_oracle_consistent(self, name):
        grammar = load(name)
        report = DifferentialOracle(LintContext(grammar), seed=1).check()
        assert report.ok, report.describe()


class TestDefaultOutputUnchanged:
    @pytest.mark.parametrize("name", NONLALR_FAMILY)
    def test_no_provenance_line_without_annotation(self, name):
        """Provenance is strictly opt-in: un-annotated reports render
        byte-identically to the pre-IELR format."""
        automaton = build_lalr(load(name))
        summary = CounterexampleFinder(automaton, time_limit=2.0).explain_all()
        for report in summary.reports:
            assert "Provenance" not in safe_format_report(report)
            assert "provenance" not in report_to_json(report)
