"""A warm service job decodes and computes only what the finder reads.

On a cache hit the worker's analysis reads the automaton's conflicts,
states and lookaheads. It must not decode the ACTION/GOTO rows, rebuild
the tables, or compute FOLLOW or the nonunifying starter table (every
grammar here is all-unifying). Each guarded function is patched to
count its calls; the warm result must equal the cold one.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.automaton import serialize, tables
from repro.corpus import load
from repro.grammar.analysis import GrammarAnalysis
from repro.grammar.emit import dump_grammar
from repro.service.worker import run_analysis


def _without_phases(result: dict) -> dict:
    return {key: value for key, value in result.items() if key != "phases"}


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

    def counted(label, original):
        def wrapper(*args, **kwargs):
            calls[label] = calls.get(label, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    with mock.patch.object(
        serialize, "restore_rows", counted("restore_rows", serialize.restore_rows)
    ), mock.patch.object(
        tables, "build_tables", counted("build_tables", tables.build_tables)
    ), mock.patch.object(
        GrammarAnalysis,
        "_compute_follow",
        counted("follow", GrammarAnalysis._compute_follow),
    ), mock.patch.object(
        GrammarAnalysis,
        "_compute_starters",
        counted("starters", GrammarAnalysis._compute_starters),
    ):
        warm = run_analysis(payload)

    assert warm["ok"], warm
    assert "automaton" not in warm["phases"]  # a cache hit
    assert calls == {}
    assert _without_phases(warm) == _without_phases(cold)
