"""Ambiguity-verdict memoization in the content-addressed cache.

:attr:`repro.lint.context.LintContext.ambiguity_verdicts` reads and
writes the verdict block when the context holds a cache.
"""

import contextlib
import json
from pathlib import Path

import pytest

import repro.analysis as analysis_module
import repro.perf.cache as cache_module
from repro.analysis import ANALYSIS_VERSION, AmbiguityVerdict, analyze_conflicts
from repro.automaton import build_lalr
from repro.automaton.serialize import dump_automaton, load_automaton
from repro.corpus import load
from repro.lint import LintContext
from repro.perf import metrics
from repro.perf.cache import AutomatonCache, grammar_fingerprint


def cached_verdicts(automaton, cache):
    """The walk verdicts of a fresh context on *automaton* and *cache*."""
    context = LintContext(automaton.grammar, automaton=automaton, cache=cache)
    return context.ambiguity_verdicts


@pytest.fixture
def cache(tmp_path):
    return AutomatonCache(tmp_path)


@pytest.fixture
def genuine():
    return load("nonlalr03-genuine")


class TestVerdictRoundTrip:
    def test_put_then_get_identical(self, cache, genuine):
        automaton = build_lalr(genuine)
        verdicts = analyze_conflicts(automaton)
        assert cache.put_verdicts(genuine, automaton, verdicts) is not None
        assert cache.get_verdicts(genuine, automaton) == verdicts

    def test_memoized_hit_skips_the_walk(self, cache, genuine, monkeypatch):
        automaton = build_lalr(genuine)
        first = cached_verdicts(automaton, cache)

        def explode(*args, **kwargs):
            raise AssertionError("walked despite a cached verdict block")

        monkeypatch.setattr(analysis_module, "analyze_conflicts", explode)
        second = cached_verdicts(automaton, cache)
        assert second == first

    def test_none_cache_is_a_passthrough(self, genuine):
        automaton = build_lalr(genuine)
        verdicts = cached_verdicts(automaton, None)
        assert verdicts == analyze_conflicts(automaton)

    def test_unwritable_cache_does_not_fail_the_walk(
        self, cache, genuine, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise PermissionError("read-only cache directory")

        monkeypatch.setattr(cache, "put_verdicts", refuse)
        automaton = build_lalr(genuine)
        assert cached_verdicts(automaton, cache) == analyze_conflicts(automaton)

    def test_ambiguous_witness_survives_the_round_trip(self, cache, genuine):
        automaton = build_lalr(genuine)
        cached_verdicts(automaton, cache)
        restored = cache.get_verdicts(genuine, automaton)
        (verdict,) = restored.values()
        assert verdict.verdict is AmbiguityVerdict.AMBIGUOUS
        assert verdict.witness is not None
        assert all(t.is_terminal for t in verdict.witness)

    def test_hit_counter_moves(self, cache, genuine):
        automaton = build_lalr(genuine)
        cached_verdicts(automaton, cache)
        with metrics.collecting() as collector:
            cached_verdicts(automaton, cache)
        assert collector.counters.get("cache.verdicts.hit") == 1


class TestFormatCompatibility:
    def test_verdict_block_invisible_to_automaton_reader(self, cache, genuine):
        # A verdict-bearing entry must stay loadable by the plain
        # serialization reader — the block is an ignored extra key.
        automaton = build_lalr(genuine)
        cached_verdicts(automaton, cache)
        path = cache._path_for(grammar_fingerprint(genuine))
        restored = load_automaton(path.read_text())
        assert [str(c) for c in restored.conflicts] == [
            str(c) for c in automaton.conflicts
        ]

    def test_entry_without_block_is_a_verdict_miss(self, cache, genuine):
        automaton = build_lalr(genuine)
        cache.put(genuine, automaton)
        assert cache.get_verdicts(genuine, automaton) is None

    def test_wrong_analysis_version_is_a_miss(self, cache, genuine):
        automaton = build_lalr(genuine)
        cached_verdicts(automaton, cache)
        path = cache._path_for(grammar_fingerprint(genuine))
        document = json.loads(path.read_text())
        document["ambiguity"]["analysis_version"] = ANALYSIS_VERSION + 1
        path.write_text(json.dumps(document))
        assert cache.get_verdicts(genuine, automaton) is None

    def test_conflict_mismatch_is_a_miss(self, cache, genuine):
        automaton = build_lalr(genuine)
        cached_verdicts(automaton, cache)
        path = cache._path_for(grammar_fingerprint(genuine))
        document = json.loads(path.read_text())
        document["ambiguity"]["verdicts"][0]["state"] += 1
        path.write_text(json.dumps(document))
        assert cache.get_verdicts(genuine, automaton) is None

    def test_partial_verdict_map_not_stored(self, cache):
        grammar = load("nonlalr01")
        automaton = build_lalr(grammar)
        assert len(automaton.tables.conflicts) == 2
        verdicts = analyze_conflicts(automaton)
        partial = dict(list(verdicts.items())[:1])
        assert cache.put_verdicts(grammar, automaton, partial) is None
        assert cache.get_verdicts(grammar, automaton) is None

    def test_analysis_version_folds_into_the_fingerprint(self, genuine, monkeypatch):
        # The fold means stale verdict blocks can never even be looked
        # up after an analysis-version bump: the whole key moves.
        fingerprint = grammar_fingerprint(genuine)
        monkeypatch.setattr(
            cache_module, "ANALYSIS_VERSION", cache_module.ANALYSIS_VERSION + 1
        )
        assert grammar_fingerprint(genuine) != fingerprint
        assert len(fingerprint) == len(grammar_fingerprint(genuine))



@contextlib.contextmanager
def counting_entry_reads(monkeypatch):
    """Count cache-entry ``read_text`` calls and ``json.loads`` parses."""
    seen = {"read_text": 0, "loads": 0}
    read_text, loads = Path.read_text, json.loads

    def counting_read(self, *args, **kwargs):
        if self.suffix == ".json":
            seen["read_text"] += 1
        return read_text(self, *args, **kwargs)

    def counting_loads(*args, **kwargs):
        seen["loads"] += 1
        return loads(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_text", counting_read)
        patch.setattr(json, "loads", counting_loads)
        yield seen


class TestEntryReads:
    """The verdict block rides on the document ``get``/``put`` hold."""

    def test_warm_verdicts_come_from_the_decoded_document(
        self, cache, genuine, monkeypatch
    ):
        cold = LintContext(genuine, cache=cache).ambiguity_verdicts
        automaton = cache.get(genuine)
        assert automaton is not None
        with counting_entry_reads(monkeypatch) as seen:
            context = LintContext(genuine, automaton=automaton, cache=cache)
            warm = context.ambiguity_verdicts
        assert warm == cold
        assert seen == {"read_text": 0, "loads": 0}

    def test_cold_verdicts_are_written_without_reading_back(
        self, cache, genuine, monkeypatch
    ):
        automaton = cache_module.build_automaton_cached(genuine, cache, "lalr")
        with counting_entry_reads(monkeypatch) as seen:
            verdicts = LintContext(
                genuine, automaton=automaton, cache=cache
            ).ambiguity_verdicts
        assert seen == {"read_text": 0, "loads": 0}
        # The bytes are the entry re-serialized with the block last.
        (conflict,) = automaton.conflicts
        verdict = verdicts[conflict]
        document = json.loads(dump_automaton(automaton))
        document["ambiguity"] = {
            "analysis_version": ANALYSIS_VERSION,
            "verdicts": [
                {
                    "state": conflict.state_id,
                    "terminal": conflict.terminal.name,
                    "verdict": verdict.verdict.value,
                    "witness": [t.name for t in verdict.witness],
                    "detail": verdict.detail,
                    "nodes": verdict.nodes,
                }
            ],
        }
        path = cache._path_for(grammar_fingerprint(genuine))
        assert path.read_text() == json.dumps(document, separators=(",", ":"))
