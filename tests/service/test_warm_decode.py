"""A service job builds, stores and decodes only what the finder reads.

The worker's analysis reads the automaton's conflicts, states and
lookaheads, never the ACTION/GOTO tables. A cold job finds the
conflicts from the lookahead masks and stores an entry without tables;
a warm job must not build the tables or compute FOLLOW or the
nonunifying starter table (every grammar here is all-unifying). Each
guarded function is patched to count its calls; the warm result must
equal the cold one.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.automaton import tables
from repro.corpus import load
from repro.grammar.analysis import GrammarAnalysis
from repro.grammar.emit import dump_grammar
from repro.perf.cache import AutomatonCache, build_automaton_cached
from repro.service.worker import run_analysis


def _without_phases(result: dict) -> dict:
    return {key: value for key, value in result.items() if key != "phases"}


def _counted(calls: dict[str, int], label, original):
    def wrapper(*args, **kwargs):
        calls[label] = calls.get(label, 0) + 1
        return original(*args, **kwargs)

    return wrapper


def _entries_without_tables(directory) -> int:
    entries = list(directory.glob("*.json"))
    for entry in entries:
        document = json.loads(entry.read_text())
        assert not {"action", "goto"} & set(document), entry
    return len(entries)


@pytest.mark.parametrize("name", ["figure7", "C.1"])
def test_cold_paths_build_no_tables(name, tmp_path):
    payload = {
        "grammar": dump_grammar(load(name)),
        "name": name,
        "options": {},
        "cache_dir": str(tmp_path / "service"),
    }
    calls: dict[str, int] = {}
    with mock.patch.object(
        tables, "build_tables", _counted(calls, "build_tables", tables.build_tables)
    ):
        result = run_analysis(payload)
        automaton = build_automaton_cached(
            load(name), AutomatonCache(tmp_path / "direct"), "lalr"
        )
    assert result["ok"], result
    assert "automaton" in result["phases"]  # a cache miss
    assert automaton.conflicts
    assert calls == {}
    assert _entries_without_tables(tmp_path / "service") == 1
    assert _entries_without_tables(tmp_path / "direct") == 1


@pytest.mark.parametrize("name", ["figure7", "SQL.2", "C.1"])
def test_warm_job_reads_only_the_conflicts(name, tmp_path):
    payload = {
        "grammar": dump_grammar(load(name)),
        "name": name,
        "options": {},
        "cache_dir": str(tmp_path),
    }
    cold = run_analysis(payload)
    assert cold["ok"], cold

    calls: dict[str, int] = {}
    with mock.patch.object(
        tables, "build_tables", _counted(calls, "build_tables", tables.build_tables)
    ), mock.patch.object(
        GrammarAnalysis,
        "_compute_follow",
        _counted(calls, "follow", GrammarAnalysis._compute_follow),
    ), mock.patch.object(
        GrammarAnalysis,
        "_compute_starters",
        _counted(calls, "starters", GrammarAnalysis._compute_starters),
    ):
        warm = run_analysis(payload)

    assert warm["ok"], warm
    assert "automaton" not in warm["phases"]  # a cache hit
    assert calls == {}
    assert _without_phases(warm) == _without_phases(cold)
