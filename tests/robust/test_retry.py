"""The generic RetryPolicy (the service supervisor's backoff schedule)."""

from __future__ import annotations

import random

import pytest

from repro.robust import RetryPolicy


class TestRetryPolicy:
    def test_defaults_are_sane(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.max_retries == 2
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_exponential_backoff_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_delay_is_capped(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=10.0, max_delay=5.0,
            jitter=0.0,
        )
        assert policy.delay(4) == pytest.approx(5.0)

    def test_jitter_is_deterministic_under_a_seeded_rng(self):
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.5)
        a = [policy.delay(i, random.Random(7)) for i in range(1, 4)]
        b = [policy.delay(i, random.Random(7)) for i in range(1, 4)]
        assert a == b
        # Jitter stays within the proportional band around the base value.
        for attempt, delay in enumerate(a, start=1):
            base = min(1.0 * 2.0 ** (attempt - 1), policy.max_delay)
            assert base * 0.5 <= delay <= base * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


AMBIG = """
%grammar ambiguous-expr
%start e
e : e '+' e | e '*' e | ID ;
"""


class TestFinderRetrofit:
    """The finder's ``retry_timed_out`` is a plain bool, not a policy."""

    def _explain(self, retry: bool):
        from repro.automaton import build_automaton
        from repro.core import CounterexampleFinder
        from repro.grammar import load_grammar

        return CounterexampleFinder(
            build_automaton(load_grammar(AMBIG)),
            # A zero search budget times every first search out.
            time_limit=0.0,
            cumulative_limit=30.0,
            retry_timed_out=retry,
        ).explain_all()

    def test_bool_true_maps_to_one_immediate_retry(self):
        summary = self._explain(True)
        assert summary.num_conflicts >= 1
        # One round: every timed-out conflict is re-searched once.
        assert summary.num_retried == summary.num_conflicts
        assert summary.num_retry_upgraded == summary.num_conflicts
        assert all(report.retried for report in summary.reports)

    def test_bool_false_maps_to_no_retry(self):
        summary = self._explain(False)
        assert summary.num_retried == summary.num_retry_upgraded == 0
        assert summary.num_timeout == summary.num_conflicts
