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
* lookahead views render exactly like the frozensets they replace;
* explanations served from the automaton cache (cold, warm, warm with
  two workers, and the service worker) render like fresh ones.
"""

import json

import pytest

from repro.automaton import build_lalr
from repro.automaton.serialize import dump_automaton, load_automaton
from repro.core import CounterexampleFinder
from repro.core.report import safe_format_report, summary_to_json
from repro.corpus import get
from repro.grammar.emit import dump_grammar
from repro.perf import metrics
from repro.perf.cache import AutomatonCache, build_automaton_cached
from repro.perf.parallel import explain_all_parallel
from repro.service.worker import run_analysis

# Small enough to keep the matrix fast, broad enough to cover every
# counterexample shape: unifying, nonunifying, shift/reduce and
# reduce/reduce, timeout fallbacks on the real-language rows.
IDENTITY_GRAMMARS = ["figure1", "figure3", "figure7", "abcd", "SQL.1"]

#: The bases of perfbench's ``service-open`` workload.
SERVICE_BASES = [
    "figure7", "simp2", "eqn", "stackexc01", "stackovf07",
    "SQL.2", "SQL.3", "Pascal.3", "Pascal.5", "C.1",
]


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


def _rendered(summary):
    return _reports(summary), json.dumps(summary_to_json(summary), indent=2)


@pytest.mark.parametrize("name", IDENTITY_GRAMMARS + SERVICE_BASES[1:])
def test_cold_warm_and_parallel_warm_reports_identical(name, tmp_path):
    grammar = get(name).load()
    fresh = _rendered(CounterexampleFinder(build_lalr(grammar)).explain_all())
    runs = []
    for jobs in (1, 1, 2):
        cache = AutomatonCache(tmp_path)
        automaton = build_automaton_cached(grammar, cache)
        with metrics.collecting() as collector:
            summary = explain_all_parallel(automaton, jobs=jobs, cache=cache)
        runs.append(collector)
        assert _rendered(summary) == fresh
    cold, warm, _ = runs
    stored = cold.counters.get("explain.cache.stored", 0)
    assert stored > 0
    assert warm.counters.get("explain.cache.hit", 0) == stored
    assert warm.span_count("explain/search") == summary.num_conflicts - stored


@pytest.mark.parametrize("name", SERVICE_BASES)
def test_service_worker_reports_identical_cold_and_warm(name, tmp_path):
    payload = {"grammar": dump_grammar(get(name).load()), "name": name, "options": {}}
    uncached = run_analysis(payload)
    cold = run_analysis({**payload, "cache_dir": str(tmp_path)})
    warm = run_analysis({**payload, "cache_dir": str(tmp_path)})
    for result in (uncached, cold, warm):
        result.pop("phases")
    assert cold == uncached and warm == uncached
