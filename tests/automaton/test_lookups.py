"""Tests for the reverse-action lookup tables."""

import pytest

from repro.automaton import Item, build_lalr
from repro.grammar import Nonterminal, Terminal


@pytest.fixture
def auto(figure1):
    return build_lalr(figure1)


class TestReverseTransitions:
    def test_inverts_forward_transitions(self, auto):
        lookups = auto.lookups
        for state in auto.states:
            for item in state.items:
                if item.dot == 0:
                    assert lookups.reverse_transitions(state, item) == []
                    continue
                for pred_state, pred_item in lookups.reverse_transitions(state, item):
                    symbol = item.previous_symbol
                    assert pred_state.transitions[symbol] is state
                    assert pred_item == item.retreat()
                    assert pred_item in lookups.item_sets[pred_state.id]

    def test_complete_over_all_predecessors(self, auto):
        lookups = auto.lookups
        for state in auto.states:
            predecessors = auto.lr0.predecessors[state.id]
            for item in state.items:
                if item.dot == 0:
                    continue
                found = {p.id for p, _ in lookups.reverse_transitions(state, item)}
                expected = {
                    p for p in predecessors if item.retreat() in lookups.item_sets[p]
                }
                assert found == expected


class TestReverseProductionSteps:
    def test_only_dot_zero_items(self, auto):
        lookups = auto.lookups
        for state in auto.states:
            for item in state.items:
                if item.dot > 0:
                    assert lookups.reverse_production_steps(state, item) == []

    def test_parents_expect_the_lhs(self, auto):
        lookups = auto.lookups
        for state in auto.states:
            for item in state.items:
                if not item.at_start:
                    continue
                for parent in lookups.reverse_production_steps(state, item):
                    assert parent.next_symbol == item.production.lhs
                    assert parent in lookups.item_sets[state.id]

    def test_parents_complete(self, auto):
        lookups = auto.lookups
        state = auto.start_state
        num_start = next(
            item
            for item in state.items
            if str(item.production.lhs) == "num" and item.at_start
        )
        parents = lookups.reverse_production_steps(state, num_start)
        parent_lhs = {str(p.production.lhs) for p in parents}
        # num is produced from expr -> . num and num -> . num DIGIT.
        assert parent_lhs == {"expr", "num"}


class TestReachability:
    def test_conflict_state_reaches_itself(self, auto):
        conflict = auto.conflicts[0]
        state = auto.states[conflict.state_id]
        states = auto.lookups.states_reaching(state, conflict.reduce_item)
        assert conflict.state_id in states

    def test_start_state_always_included(self, auto):
        for conflict in auto.conflicts:
            state = auto.states[conflict.state_id]
            states = auto.lookups.states_reaching(state, conflict.reduce_item)
            assert 0 in states

    def test_pairs_cached(self, auto):
        conflict = auto.conflicts[0]
        state = auto.states[conflict.state_id]
        target = auto.lr0.index.id_of(state.id, conflict.reduce_item)
        assert auto.lookups.reaching(target) is auto.lookups.reaching(target)
        first = auto.lookups.reaching_pairs(state, conflict.reduce_item)
        second = auto.lookups.reaching_pairs(state, conflict.reduce_item)
        assert first == second

    def test_reaching_pairs_closed_under_forward_steps(self, auto):
        """Every pair in the set can actually step toward the target."""
        conflict = auto.conflicts[0]
        target_state = auto.states[conflict.state_id]
        pairs = auto.lookups.reaching_pairs(target_state, conflict.reduce_item)
        target = (conflict.state_id, conflict.reduce_item)
        # Each non-target pair must have a successor inside the set.
        for state_id, item in pairs:
            if (state_id, item) == target:
                continue
            state = auto.states[state_id]
            successors = set()
            symbol = item.next_symbol
            if symbol is not None:
                if symbol in state.transitions:
                    successors.add(
                        (state.transitions[symbol].id, item.advance())
                    )
                if symbol.is_nonterminal:
                    for production in auto.grammar.productions_of(symbol):
                        successors.add((state_id, Item(production, 0)))
            assert successors & set(pairs), f"stranded pair ({state_id}, {item})"


class TestReachingCache:
    """The bounded LRU policy on memoised ``reaching_pairs`` results."""

    def test_hit_and_miss_counters(self, auto):
        lookups = auto.lookups
        conflict = auto.conflicts[0]
        state = auto.states[conflict.state_id]
        before = lookups.cache_info()
        lookups.reaching_pairs(state, conflict.reduce_item)
        lookups.reaching_pairs(state, conflict.reduce_item)
        info = lookups.cache_info()
        assert info["misses"] >= before["misses"] + 1
        assert info["hits"] >= before["hits"] + 1
        assert info["max_entries"] == 128

    def test_eviction_keeps_the_cache_bounded(self, auto, monkeypatch):
        from repro.automaton import lookups as lookups_module

        monkeypatch.setattr(lookups_module, "REACHING_CACHE_ENTRIES", 2)
        lookups = lookups_module.ReverseLookups(auto)
        queried = 0
        for state in auto.states:
            for item in state.items:
                lookups.reaching_pairs(state, item)
                queried += 1
                assert lookups.cache_info()["entries"] <= 2
        info = lookups.cache_info()
        assert queried > 2
        assert info["evictions"] == info["misses"] - info["entries"]

    def test_lru_order_recency_not_insertion(self, auto, monkeypatch):
        from repro.automaton import lookups as lookups_module

        monkeypatch.setattr(lookups_module, "REACHING_CACHE_ENTRIES", 2)
        lookups = lookups_module.ReverseLookups(auto)
        state = auto.states[0]
        a, b = state.items[0], state.items[1]
        lookups.reaching_pairs(state, a)
        lookups.reaching_pairs(state, b)
        lookups.reaching_pairs(state, a)  # refresh a: b is now oldest
        other = auto.states[1]
        lookups.reaching_pairs(other, other.items[0])  # evicts b
        hits = lookups.cache_info()["hits"]
        lookups.reaching_pairs(state, a)
        assert lookups.cache_info()["hits"] == hits + 1

    def test_clear_drops_entries_but_keeps_counters(self, auto):
        lookups = auto.lookups
        conflict = auto.conflicts[0]
        state = auto.states[conflict.state_id]
        lookups.reaching_pairs(state, conflict.reduce_item)
        misses = lookups.cache_info()["misses"]
        lookups.clear_reaching_cache()
        info = lookups.cache_info()
        assert info["entries"] == 0
        assert info["misses"] == misses

    def test_metrics_counters_mirrored(self, auto):
        from repro.perf import metrics

        conflict = auto.conflicts[0]
        state = auto.states[conflict.state_id]
        with metrics.collecting() as collector:
            auto.lookups.reaching_pairs(state, conflict.reduce_item)
            auto.lookups.reaching_pairs(state, conflict.reduce_item)
        assert collector.counters.get("lookups.reaching.hit", 0) >= 1
