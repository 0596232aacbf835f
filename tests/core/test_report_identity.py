"""Byte-identity of reports across the hot-path representations.

The LASG/bitset/serialization overhaul is pure representation change: a
finder running on bitmask lookaheads, array adjacency, and the lazy
conflict-scoped LASG must produce *byte-identical* reports to the
original frozenset/dict formulation. The golden-counterexample tests pin
the absolute strings (they predate the overhaul); these tests pin the
cross-implementation invariants on a corpus slice:

* serial vs parallel explanation renders identically;
* a format-v2 round-tripped automaton drives the finder to the same
  reports as a freshly built one;
* lookahead views render exactly like the frozensets they replace.
"""

import pytest

from repro.automaton import build_lalr
from repro.automaton.serialize import dump_automaton, load_automaton
from repro.core import CounterexampleFinder
from repro.core.report import safe_format_report
from repro.corpus import get
from repro.perf.parallel import explain_all_parallel

# Small enough to keep the matrix fast, broad enough to cover every
# counterexample shape: unifying, nonunifying, shift/reduce and
# reduce/reduce, timeout fallbacks on the real-language rows.
IDENTITY_GRAMMARS = ["figure1", "figure3", "figure7", "abcd", "SQL.1"]


def _reports(summary):
    return [safe_format_report(report) for report in summary.reports]


@pytest.mark.parametrize("name", IDENTITY_GRAMMARS)
def test_serial_and_parallel_reports_identical(name):
    grammar = get(name).load()
    serial = CounterexampleFinder(build_lalr(grammar)).explain_all()
    parallel = explain_all_parallel(grammar, jobs=2)
    assert _reports(serial) == _reports(parallel)


@pytest.mark.parametrize("name", IDENTITY_GRAMMARS)
def test_v2_round_tripped_automaton_reports_identical(name):
    grammar = get(name).load()
    automaton = build_lalr(grammar)
    _ = automaton.tables
    loaded = load_automaton(dump_automaton(automaton))
    fresh = CounterexampleFinder(automaton).explain_all()
    decoded = CounterexampleFinder(loaded).explain_all()
    assert _reports(fresh) == _reports(decoded)


def test_lookahead_views_render_like_frozensets():
    """Anything formatting a lookahead set (sorted, joined, str()-ed per
    terminal) sees the same sequence from a view as from a frozenset."""
    automaton = build_lalr(get("figure1").load())
    index = automaton.lr0.index
    for node in range(len(index)):
        view = automaton.lookahead(*index.pair(node))
        reference = frozenset(view)
        assert sorted(str(t) for t in view) == sorted(
            str(t) for t in reference
        )
        assert ", ".join(t.name for t in sorted(view, key=str)) == ", ".join(
            t.name for t in sorted(reference, key=str)
        )
