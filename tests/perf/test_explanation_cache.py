"""Decided explanations stored in the automaton's cache entry.

A run with a cache stores each conflict whose outcome cannot depend on
the clock, the load or injected faults in the entry's
``"explanations"`` block; a later run with the same options serves it
without the LASG or the unifying search, re-proving unifying
counterexamples with Earley. Anything wrong with the block is a miss
that recomputes, never a wrong report or a crash.
"""

import json

import pytest

from repro.cli import main
from repro.core.finder import EXPLANATION_VERSION
from repro.core.lasg import LookaheadSensitiveGraph
from repro.core.report import safe_format_report, summary_to_json
from repro.corpus import load
from repro.grammar import load_grammar
from repro.parsing.earley import EarleyParser
from repro.perf import metrics
from repro.perf.cache import AutomatonCache, build_automaton_cached, grammar_fingerprint
from repro.perf.parallel import explain_all_parallel
from repro.robust.faults import FaultSpec, inject_faults

#: Quick decided conflict, an exhausted search of ~75 ms, quick decided
#: conflict — in that conflict order.
MIXED = """%start top
top : X f | Y s | Z e ;
e : e '+' e | N ;
f : f '-' f | M ;
s : a s a | %empty ;
"""


def run(grammar, directory, jobs=1, **options):
    """One run as a fresh process would make it: a new cache object on
    *directory*; returns the summary, its rendering and the metrics."""
    cache = AutomatonCache(directory)
    automaton = build_automaton_cached(grammar, cache)
    with metrics.collecting() as collector:
        summary = explain_all_parallel(automaton, jobs=jobs, cache=cache, **options)
    rendered = (
        [safe_format_report(report) for report in summary.reports],
        json.dumps(summary_to_json(summary)),
    )
    return summary, rendered, collector


def entry_path(directory, grammar):
    return AutomatonCache(directory)._path_for(grammar_fingerprint(grammar))


def edit_block(directory, grammar, edit):
    path = entry_path(directory, grammar)
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document, separators=(",", ":")))


def spans(collector, name):
    return collector.span_count(f"explain/{name}")


@pytest.fixture
def figure1():
    return load("figure1")


class TestHits:
    def test_warm_run_serves_every_decided_conflict(self, tmp_path, figure1):
        _, cold, first = run(figure1, tmp_path)
        assert first.counters["explain.cache.stored"] == 3
        assert spans(first, "search") == 3
        _, warm, second = run(figure1, tmp_path)
        assert warm == cold
        assert second.counters.get("explain.cache.hit") == 3
        assert "explain.cache.miss" not in second.counters
        assert spans(second, "search") == spans(second, "lasg") == 0

    def test_every_served_unifying_example_is_reproved(
        self, tmp_path, figure1, monkeypatch
    ):
        summary, _, _ = run(figure1, tmp_path)
        unifying = summary.num_unifying
        assert unifying > 0
        checked = []
        original = EarleyParser.is_ambiguous_form

        def counting(self, *args, **kwargs):
            checked.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EarleyParser, "is_ambiguous_form", counting)
        _, _, collector = run(figure1, tmp_path)
        assert collector.counters["explain.cache.hit"] == 3
        assert len(checked) == unifying == spans(collector, "verify")

    def test_unverified_runs_keep_their_own_block(self, tmp_path, figure1):
        run(figure1, tmp_path)
        summary, cold, collector = run(figure1, tmp_path, verify=False)
        assert "explain.cache.hit" not in collector.counters
        assert all(report.verified is None for report in summary.reports)
        _, warm, collector = run(figure1, tmp_path, verify=False)
        assert warm == cold
        assert collector.counters["explain.cache.hit"] == 3
        assert spans(collector, "verify") == 0

    def test_warm_parallel_run_starts_no_pool(self, tmp_path, figure1):
        _, cold, _ = run(figure1, tmp_path)
        _, warm, collector = run(figure1, tmp_path, jobs=2)
        assert warm == cold
        assert collector.span_count("parallel/pool") == 0

    def test_parallel_run_sends_only_misses_to_the_pool(self, tmp_path):
        grammar = load("abcd")
        _, cold, _ = run(grammar, tmp_path)
        edit_block(
            tmp_path, grammar,
            lambda document: document["explanations"]["explanations"].__setitem__(0, None),
        )
        _, warm, collector = run(grammar, tmp_path, jobs=2)
        assert warm == cold
        assert collector.counters["parallel.tasks"] == 1
        assert collector.counters["explain.cache.hit"] == 2

    def test_profile_shows_the_counters(self, tmp_path, capsys):
        for name in ("cold", "warm"):
            main(["--corpus", "figure1", "--cache-dir", str(tmp_path), "--quiet",
                  "--profile-json", str(tmp_path / f"{name}.json")])
        capsys.readouterr()
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert cold["counters"]["explain.cache.stored"] == 3
        assert warm["counters"]["explain.cache.hit"] == 3
        assert not any(path.startswith("explain/search") for path in warm["spans"])


def _tamper_unifying(document):
    """Make every unifying entry claim ``expr ::= [expr + expr]``, which
    has one derivation: well-formed, but not an ambiguity."""
    grammar = load("figure1")
    (production,) = [
        p for p in grammar.productions
        if str(p.lhs) == "expr" and [str(s) for s in p.rhs] == ["expr", "+", "expr"]
    ]
    tokens = [production.index, 3, "expr", "+", "expr"]
    for entry in document["explanations"]["explanations"]:
        if entry["unifying"]:
            entry.update(nonterminal="expr", derivation1=tokens, derivation2=tokens)


def _first_entry(**fields):
    def edit(document):
        document["explanations"]["explanations"][0].update(fields)
    return edit


class TestMisses:
    @pytest.mark.parametrize(
        "edit, misses",
        [
            pytest.param(_tamper_unifying, 3, id="tampered-counterexample"),
            pytest.param(_first_entry(derivation1=[9999, 1]), 1, id="unknown-production"),
            pytest.param(_first_entry(derivation2=["expr", 7]), 1, id="bad-tokens"),
            pytest.param(_first_entry(elapsed="soon"), 1, id="bad-seconds"),
            pytest.param(_first_entry(elapsed=float("nan")), 1, id="nan-seconds"),
            pytest.param(_first_entry(verified=False), 1, id="bad-verified-flag"),
            pytest.param(_first_entry(items=[0, 0, 0, 0]), 3, id="other-items"),
            pytest.param(
                lambda document: document.__setitem__("explanations", "garbage"),
                3, id="corrupt-block",
            ),
            pytest.param(
                lambda document: document["explanations"]["explanations"].pop(),
                3, id="truncated-block",
            ),
            pytest.param(
                lambda document: document["explanations"].__setitem__(
                    "version", EXPLANATION_VERSION + 1
                ),
                3, id="other-version",
            ),
        ],
    )
    def test_bad_block_is_a_miss_that_recomputes(
        self, tmp_path, figure1, edit, misses
    ):
        _, cold, _ = run(figure1, tmp_path)
        edit_block(tmp_path, figure1, edit)
        _, warm, collector = run(figure1, tmp_path)
        assert warm == cold
        assert collector.counters["explain.cache.miss"] == misses
        assert spans(collector, "search") == misses
        # The recomputed explanations heal the block.
        _, again, collector = run(figure1, tmp_path)
        assert again == cold
        assert collector.counters["explain.cache.hit"] == 3

    def test_foreign_block_is_a_miss(self, tmp_path, figure1):
        other = load("abcd")
        run(other, tmp_path)
        foreign = json.loads(entry_path(tmp_path, other).read_text())["explanations"]
        _, cold, _ = run(figure1, tmp_path)
        edit_block(
            tmp_path, figure1,
            lambda document: document.__setitem__("explanations", foreign),
        )
        _, warm, collector = run(figure1, tmp_path)
        assert warm == cold
        assert "explain.cache.hit" not in collector.counters
        assert collector.counters["explain.cache.miss"] == 3

    def test_options_mismatch_is_a_miss(self, tmp_path, figure1):
        run(figure1, tmp_path)
        _, reference, _ = run(figure1, tmp_path / "uncached-equivalent", time_limit=4.0)
        _, warm, collector = run(figure1, tmp_path, time_limit=4.0)
        assert warm == reference
        assert "explain.cache.hit" not in collector.counters
        assert spans(collector, "search") == 3
        block = json.loads(entry_path(tmp_path, figure1).read_text())["explanations"]
        assert block["options"]["time_limit"] == 4.0


def _has_block(directory, grammar):
    return "explanations" in json.loads(entry_path(directory, grammar).read_text())


class TestNeverStored:
    def test_timeouts(self, tmp_path):
        grammar = load_grammar("s : a s a | %empty ;", name="timeouts")
        summary, _, collector = run(grammar, tmp_path, time_limit=0.01)
        assert summary.num_timeout == 1
        assert "explain.cache.stored" not in collector.counters
        assert not _has_block(tmp_path, grammar)

    def test_skipped_searches(self, tmp_path, figure1):
        summary, _, _ = run(figure1, tmp_path, cumulative_limit=0.0)
        assert summary.num_skipped_search == 3
        assert not _has_block(tmp_path, figure1)

    def test_degraded_reports(self, tmp_path, figure1, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("verifier bug")

        monkeypatch.setattr(EarleyParser, "is_ambiguous_form", explode)
        summary, _, _ = run(figure1, tmp_path)
        assert summary.num_degraded == 3
        assert not _has_block(tmp_path, figure1)

    def test_stubs(self, tmp_path, figure1, monkeypatch):
        conflicts = build_automaton_cached(figure1, None).conflicts
        original = LookaheadSensitiveGraph.shortest_path

        def fail_first(self, conflict, *args, **kwargs):
            if conflict == conflicts[0]:
                raise RuntimeError("LASG bug")
            return original(self, conflict, *args, **kwargs)

        monkeypatch.setattr(LookaheadSensitiveGraph, "shortest_path", fail_first)
        summary, _, _ = run(figure1, tmp_path)
        assert summary.num_stub == 1
        block = json.loads(entry_path(tmp_path, figure1).read_text())["explanations"]
        entries = block["explanations"]
        assert entries[0] is None and None not in entries[1:]

    def test_armed_faults_neither_read_nor_write(self, tmp_path, figure1):
        never = FaultSpec(point="search", match="no such grammar")
        with inject_faults(never):
            run(figure1, tmp_path)
        assert not _has_block(tmp_path, figure1)
        _, cold, _ = run(figure1, tmp_path)
        path = entry_path(tmp_path, figure1)
        written = path.read_bytes()
        with inject_faults(never):
            _, warm, collector = run(figure1, tmp_path)
        assert warm == cold
        assert not any(name.startswith("explain.cache") for name in collector.counters)
        assert spans(collector, "search") == 3
        assert path.read_bytes() == written


class TestCumulativeBudget:
    def test_cold_and_warm_skip_at_the_same_conflict(self, tmp_path):
        grammar = load_grammar(MIXED, name="mixed")
        options = {"time_limit": 1.0, "cumulative_limit": 0.03}
        cold_summary, cold, _ = run(grammar, tmp_path, **options)
        # The quick first conflict is decided, the slow second one runs
        # the budget out, the third is skipped.
        assert [report.stats is None for report in cold_summary.reports] == [
            False, False, True
        ]
        assert cold_summary.reports[0].counterexample.unifying
        warm_summary, warm, collector = run(grammar, tmp_path, **options)
        assert warm == cold
        assert collector.counters["explain.cache.hit"] == 1
        assert [report.stats is None for report in warm_summary.reports] == [
            False, False, True
        ]

    def test_hits_charge_their_stored_seconds(self, tmp_path):
        grammar = load("stackovf02")
        options = {"cumulative_limit": 10.0}
        summary, _, _ = run(grammar, tmp_path, **options)
        assert summary.num_unifying == 4

        def slow_first_two(document):
            for entry in document["explanations"]["explanations"][:2]:
                entry["elapsed"] = 6.0

        edit_block(tmp_path, grammar, slow_first_two)
        summary, _, collector = run(grammar, tmp_path, **options)
        assert collector.counters["explain.cache.hit"] == 2
        assert [report.stats is None for report in summary.reports] == [
            False, False, True, True
        ]
        assert summary.num_skipped_search == 2
