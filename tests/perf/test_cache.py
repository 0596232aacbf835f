"""Tests for the content-addressed automaton cache."""

import pytest

from repro.automaton import build_lalr
from repro.grammar import load_grammar
from repro.perf import metrics
from repro.perf.cache import (
    AutomatonCache,
    build_automaton_cached,
    default_cache_dir,
    grammar_fingerprint,
)


@pytest.fixture
def cache(tmp_path):
    return AutomatonCache(tmp_path)


class TestFingerprint:
    def test_stable_across_equivalent_loads(self, figure1):
        from repro.grammar.emit import dump_grammar

        reloaded = load_grammar(dump_grammar(figure1), name="renamed")
        assert grammar_fingerprint(reloaded) == grammar_fingerprint(figure1)

    def test_name_does_not_affect_the_key(self, figure1):
        # Same productions under a different diagnostic name: same key.
        from repro.grammar.emit import dump_grammar

        other = load_grammar(dump_grammar(figure1), name="something-else")
        assert grammar_fingerprint(other) == grammar_fingerprint(figure1)

    def test_grammar_edit_changes_the_key(self):
        base = load_grammar("e : e '+' e | ID ;")
        edited = load_grammar("e : e '+' e | e '*' e | ID ;")
        assert grammar_fingerprint(base) != grammar_fingerprint(edited)

    def test_precedence_changes_the_key(self):
        base = load_grammar("e : e '+' e | ID ;")
        prec = load_grammar("%left '+'\ne : e '+' e | ID ;")
        assert grammar_fingerprint(base) != grammar_fingerprint(prec)


class TestCache:
    def test_miss_then_hit(self, cache, figure1):
        first = build_automaton_cached(figure1, cache, "lalr")
        assert cache.info() == {
            "entries": 1,
            "hits": 0,
            "misses": 1,
            "quarantined": 0,
            "write_failures": 0,
        }
        second = build_automaton_cached(figure1, cache, "lalr")
        assert cache.hits == 1
        assert len(second.states) == len(first.states)
        assert second.grammar is figure1  # caller's instance swapped in

    def test_hit_keeps_the_callers_source_lines(self, cache):
        """A hit decodes against the caller's productions, so a conflict's
        items point at the caller's source lines, as on a cold build (the
        grammar embedded in the entry is the canonical emission, whose
        lines differ)."""
        text = "// header\n\n// more\n\ne : e '+' e\n  | ID\n  ;\n"
        cold = build_automaton_cached(load_grammar(text), cache, "lalr")
        grammar = load_grammar(text)
        warm = build_automaton_cached(grammar, cache, "lalr")
        assert cache.hits == 1
        assert warm.grammar is grammar
        assert warm.conflicts == cold.conflicts
        lines = [c.reduce_item.production.line for c in warm.conflicts]
        assert lines == [c.reduce_item.production.line for c in cold.conflicts]
        assert lines == [5]
        productions = grammar.productions
        assert all(
            c.reduce_item.production is productions[c.reduce_item.production.index]
            for c in warm.conflicts
        )

    def test_cached_automaton_is_equivalent(self, cache, figure1):
        built = build_automaton_cached(figure1, cache, "lalr")
        loaded = build_automaton_cached(figure1, cache, "lalr")
        assert loaded.lookaheads == built.lookaheads
        assert [str(c) for c in loaded.conflicts] == [
            str(c) for c in built.conflicts
        ]
        assert loaded.tables.action == built.tables.action
        assert loaded.tables.goto == built.tables.goto

    def test_grammar_edit_forces_rebuild(self, cache):
        base = load_grammar("e : e '+' e | ID ;")
        edited = load_grammar("e : e '+' e | e '*' e | ID ;")
        build_automaton_cached(base, cache, "lalr")
        build_automaton_cached(edited, cache, "lalr")
        assert cache.misses == 2
        assert cache.info()["entries"] == 2

    def test_corrupt_entry_is_a_miss_and_gets_rebuilt(self, cache, figure1):
        build_automaton_cached(figure1, cache, "lalr")
        entry = next(cache.directory.glob("*.json"))
        entry.write_text("{definitely not an automaton")
        rebuilt = build_automaton_cached(figure1, cache, "lalr")
        assert cache.misses == 2
        assert len(rebuilt.states) > 0
        # ...and the overwrite repaired the entry.
        assert cache.get(figure1) is not None

    def test_truncated_entry_is_a_miss(self, cache, figure1):
        build_automaton_cached(figure1, cache, "lalr")
        entry = next(cache.directory.glob("*.json"))
        entry.write_text(entry.read_text()[:50])
        assert cache.get(figure1) is None

    def test_clear_removes_entries(self, cache, figure1):
        build_automaton_cached(figure1, cache, "lalr")
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0

    def test_none_cache_is_a_passthrough(self, figure1):
        automaton = build_automaton_cached(figure1, None, "lalr")
        assert len(automaton.states) == len(build_lalr(figure1).states)

    def test_metrics_counters(self, cache, figure1):
        with metrics.collecting() as collector:
            build_automaton_cached(figure1, cache, "lalr")
            build_automaton_cached(figure1, cache, "lalr")
        assert collector.counters["cache.miss"] == 1
        assert collector.counters["cache.hit"] == 1

    def test_cached_automaton_explains_identically(self, cache, figure1):
        from repro.core import CounterexampleFinder
        from repro.core.report import safe_format_report

        build_automaton_cached(figure1, cache, "lalr")  # populate
        loaded = build_automaton_cached(figure1, cache, "lalr")
        fresh = CounterexampleFinder(build_lalr(figure1)).explain_all()
        cached = CounterexampleFinder(loaded).explain_all()
        assert [safe_format_report(r) for r in fresh.reports] == [
            safe_format_report(r) for r in cached.reports
        ]


class TestDefaultDirectory:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_fallback_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "automatons"


class TestAlgorithmAwareCache:
    """The construction algorithm is part of the cache identity."""

    def test_fingerprint_differs_per_algorithm(self, figure1):
        keys = {
            grammar_fingerprint(figure1, algorithm)
            for algorithm in ("lalr", "ielr", "lr1")
        }
        assert len(keys) == 3

    def test_ielr_round_trip(self, cache):
        from repro.automaton import IELRAutomaton
        from repro.corpus import load
        from repro.perf.cache import build_automaton_cached

        grammar = load("nonlalr01")
        first = build_automaton_cached(grammar, cache, "ielr")
        assert cache.misses == 1
        second = build_automaton_cached(grammar, cache, "ielr")
        assert cache.hits == 1
        assert isinstance(first, IELRAutomaton)
        assert second.algorithm == "ielr"
        assert not second.conflicts
        assert len(second.states) == len(first.states)

    def test_algorithms_do_not_collide(self, cache):
        from repro.corpus import load
        from repro.perf.cache import build_automaton_cached

        grammar = load("nonlalr01")
        build_automaton_cached(grammar, cache, "ielr")
        lalr = build_automaton_cached(grammar, cache, "lalr")
        assert cache.hits == 0 and cache.misses == 2
        assert lalr.algorithm == "lalr"
        assert lalr.conflicts  # the LALR entry kept its conflicts

    def test_algorithm_mismatch_at_key_is_a_miss(self, cache, figure1):
        """A hand-moved entry whose recorded algorithm disagrees with the
        requested one is rejected rather than served."""
        from repro.automaton.serialize import dump_automaton

        automaton = build_lalr(figure1)
        _ = automaton.tables
        path = cache.directory / (
            grammar_fingerprint(figure1, "ielr") + ".json"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dump_automaton(automaton))
        assert cache.get(figure1, "ielr") is None
        assert cache.misses == 1

    def test_grammar_directive_is_the_default(self, cache):
        from repro.automaton import IELRAutomaton
        from repro.grammar import load_grammar as load_text
        from repro.perf.cache import build_automaton_cached

        grammar = load_text(
            "%algorithm ielr\ns : 'a' s | 'b' ;", name="directive"
        )
        automaton = build_automaton_cached(grammar, cache, None)
        assert isinstance(automaton, IELRAutomaton)
