"""Tests for parallel per-conflict explanation.

The heavyweight guarantee — byte-identical reports across the whole
corpus — is marked slow (the CI bench job runs the fast subset on every
PR); the tier-1 tests cover the merge machinery, the pickling support it
stands on, and one real end-to-end grammar.
"""

import pickle

import pytest

from repro.core import CounterexampleFinder
from repro.core.derivation import DOT, Derivation, dleaf
from repro.core.report import safe_format_report
from repro.grammar import Nonterminal, Terminal
from repro.perf.parallel import explain_all_parallel, resolve_jobs


class TestPickling:
    def test_symbol_reinterns(self):
        terminal = Terminal("ID")
        assert pickle.loads(pickle.dumps(terminal)) is terminal
        nonterminal = Nonterminal("expr")
        assert pickle.loads(pickle.dumps(nonterminal)) is nonterminal

    def test_terminal_and_nonterminal_stay_distinct(self):
        assert pickle.loads(pickle.dumps(Terminal("x"))) is not Nonterminal("x")

    def test_dot_sentinel_survives_as_singleton(self):
        assert pickle.loads(pickle.dumps(DOT)) is DOT
        # ...also nested inside a derivation tree.
        leaf = dleaf(Terminal("a"))
        restored = pickle.loads(pickle.dumps((DOT, leaf)))
        assert restored[0] is DOT

    def test_derivation_hash_recomputed(self):
        derivation = dleaf(Nonterminal("expr"))
        clone = pickle.loads(pickle.dumps(derivation))
        assert clone == derivation
        assert hash(clone) == hash(derivation)

    def test_deep_derivation_round_trip(self, figure1):
        summary = CounterexampleFinder(figure1, time_limit=1.0).explain_all()
        report = summary.reports[0]
        clone = pickle.loads(pickle.dumps(report))
        assert safe_format_report(clone) == safe_format_report(report)
        assert isinstance(clone.counterexample.derivation1, Derivation)


class TestResolveJobs:
    def test_none_and_zero_mean_cpu_count(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestParallelEquality:
    def test_jobs1_falls_back_to_serial(self, figure1):
        serial = CounterexampleFinder(figure1).explain_all()
        parallel = explain_all_parallel(figure1, jobs=1)
        assert [safe_format_report(r) for r in serial.reports] == [
            safe_format_report(r) for r in parallel.reports
        ]

    def test_pool_reports_byte_identical(self, figure1):
        serial = CounterexampleFinder(figure1).explain_all()
        parallel = explain_all_parallel(figure1, jobs=2)
        assert [safe_format_report(r) for r in serial.reports] == [
            safe_format_report(r) for r in parallel.reports
        ]
        assert parallel.num_conflicts == serial.num_conflicts
        assert parallel.num_unifying == serial.num_unifying
        assert parallel.num_nonunifying == serial.num_nonunifying
        assert parallel.num_stub == serial.num_stub

    def test_pre_cancelled_token_matches_serial(self, figure1):
        from repro.core.report import summary_to_json
        from repro.robust.budget import CancellationToken

        def cancelled() -> CancellationToken:
            token = CancellationToken()
            token.cancel("received SIGTERM")
            return token

        serial = CounterexampleFinder(figure1, token=cancelled()).explain_all()
        parallel = explain_all_parallel(figure1, jobs=2, token=cancelled())
        assert parallel.complete
        assert parallel.num_stub == parallel.num_conflicts
        assert summary_to_json(parallel) == summary_to_json(serial)

    def test_cancel_mid_search_kills_the_workers(self):
        import multiprocessing
        import threading
        import time

        from repro.automaton.lalr import build_lalr
        from repro.core.report import summary_to_json
        from repro.corpus import registry
        from repro.robust.budget import CancellationToken

        # Each java-ext1 search runs to its 5 s limit, so the token
        # fires while both workers are searching.
        automaton = build_lalr(registry.load("java-ext1"))
        token = CancellationToken()
        timer = threading.Timer(1.0, token.cancel, args=("received SIGTERM",))
        started = time.monotonic()
        timer.start()
        parallel = explain_all_parallel(automaton, jobs=2, token=token, time_limit=5.0)
        elapsed = time.monotonic() - started
        assert 1.0 <= elapsed < 3.0
        assert multiprocessing.active_children() == []

        cancelled = CancellationToken()
        cancelled.cancel("received SIGTERM")
        serial = CounterexampleFinder(
            automaton, token=cancelled, time_limit=5.0
        ).explain_all()
        assert parallel.num_stub == parallel.num_conflicts == 3
        assert summary_to_json(parallel) == summary_to_json(serial)

    def test_dead_worker_raises_and_stops_the_pool(self, figure1, monkeypatch):
        import multiprocessing
        import os

        def die(self, conflict):
            os._exit(3)

        # The workers fork after the patch, so each dies on its first task.
        monkeypatch.setattr(CounterexampleFinder, "explain", die)
        with pytest.raises(RuntimeError, match="crash: exitcode=3") as raised:
            explain_all_parallel(figure1, jobs=2)
        # The traceback still holds the pool's frame; its workers are gone.
        assert raised.traceback
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("name", ["figure1", "stackovf10"])
    def test_retry_round_matches_serial(self, name):
        from repro.corpus import registry

        grammar = registry.load(name)
        options = dict(time_limit=0.0, cumulative_limit=30.0, retry_timed_out=True)
        serial = CounterexampleFinder(grammar, **options).explain_all()
        parallel = explain_all_parallel(grammar, jobs=2, **options)
        assert [safe_format_report(r) for r in parallel.reports] == [
            safe_format_report(r) for r in serial.reports
        ]
        assert serial.num_retried == serial.num_retry_upgraded == serial.num_conflicts
        assert parallel.num_retried == serial.num_retried
        assert parallel.num_retry_upgraded == serial.num_retry_upgraded

    def test_worker_metrics_merge_into_parent(self, figure1):
        from repro.perf import metrics

        with metrics.collecting() as collector:
            summary = explain_all_parallel(figure1, jobs=2)
        assert collector.span_count("explain") == summary.num_conflicts
        assert collector.counters["parallel.tasks"] == summary.num_conflicts


@pytest.mark.slow
class TestCorpusEquality:
    """Byte-identical parallel reports on every corpus grammar.

    Grammars whose searches sit near the wall-clock budget can flip
    between unifying and timed-out under CPU contention, so the slow
    sweep runs with generous limits and skips the known conflict
    explosions (they take minutes serially; the per-PR gate covers the
    fast subset).
    """

    HEAVY = {"Java.2", "Java.4", "C.4", "Pascal.1", "java-ext1", "java-ext2"}

    def _names(self):
        from repro.corpus import registry

        return [
            spec.name
            for spec in registry.all_specs()
            if spec.name not in self.HEAVY
        ]

    def test_every_corpus_grammar(self):
        from repro.corpus import registry

        for name in self._names():
            grammar = registry.load(name)
            serial = CounterexampleFinder(grammar, time_limit=10.0).explain_all()
            parallel = explain_all_parallel(grammar, jobs=2, time_limit=10.0)
            assert [safe_format_report(r) for r in serial.reports] == [
                safe_format_report(r) for r in parallel.reports
            ], f"{name}: parallel reports differ from serial"
