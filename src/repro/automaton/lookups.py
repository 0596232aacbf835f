"""Reverse-action lookup tables (paper §6, "Data structures").

The counterexample searches repeatedly ask questions parser generators do
not normally answer:

* which ``(state, item)`` pairs reach this pair via a transition edge
  (**reverse transitions**);
* which items of the same state produced this closure item via a
  production step (**reverse production steps**, i.e. items of the form
  ``A -> α . B β`` for a closure item ``B -> . γ``);
* which states can reach a given conflict item at all (used to prune the
  shortest lookahead-sensitive path search).

:class:`ReverseLookups` answers them from the reverse edges of the
automaton's :class:`~repro.automaton.index.StateItemIndex`, which are
built on first use.

A reaching set is a ``bytearray`` over the index's ids (1 = the pair can
reach the target). The per-target sets are memoised in a *bounded* LRU
cache of :data:`REACHING_CACHE_ENTRIES` entries: each holds one byte per
``(state, item)`` pair of the automaton, so an unbounded cache on a
long-lived automaton — a corpus sweep, a fuzz campaign re-using one
table — grows with every distinct conflict item ever queried. Hits,
misses, and evictions are tracked on the instance
(:meth:`ReverseLookups.cache_info`) and mirrored to the metrics layer
(``lookups.reaching.*``) when profiling is active.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

from repro.automaton.items import Item
from repro.automaton.lr0 import LR0State
from repro.perf import metrics

#: How many reaching sets one :class:`ReverseLookups` keeps.
REACHING_CACHE_ENTRIES = 128


class ReverseLookups:
    """Reverse transition / reverse production-step queries and reaching sets."""

    def __init__(self, automaton) -> None:
        self._automaton = automaton
        self._index = automaton.lr0.index
        self._reaching_cache: OrderedDict[int, bytearray] = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0

    @cached_property
    def item_sets(self) -> dict[int, frozenset[Item]]:
        """state_id -> items of the state, as a set for membership tests."""
        return {state.id: frozenset(state.items) for state in self._automaton.states}

    # ------------------------------------------------------------------ #

    def reverse_transitions(
        self, state: LR0State, item: Item
    ) -> list[tuple[LR0State, Item]]:
        """Predecessor ``(state, item)`` pairs via a transition edge.

        For an item with the dot past position 0, the predecessors are the
        retreated item in every state with a matching transition into
        *state*.
        """
        index = self._index
        states = self._automaton.states
        item_of = index.item_of
        predecessors, retreats = index.reverse_transitions(index.id_of(state.id, item))
        return [
            (states[pred_id], item_of[retreat])
            for pred_id, retreat in zip(predecessors, retreats)
            if retreat >= 0
        ]

    def reverse_production_steps(self, state: LR0State, item: Item) -> list[Item]:
        """Items of *state* that can take a production step into *item*.

        Only items with the dot at position 0 have reverse production
        steps; the result is every item ``A -> α . B β`` of *state* where
        ``B`` is *item*'s left-hand side.
        """
        index = self._index
        item_of = index.item_of
        return [
            item_of[parent]
            for parent in index.production_parents(index.id_of(state.id, item))
        ]

    # ------------------------------------------------------------------ #

    def reaching(self, target: int) -> bytearray:
        """The ids that can reach id *target*, as a 0/1 ``bytearray``.

        Walks reverse transitions and reverse production steps from the
        target. The result bounds the shortest lookahead-sensitive path
        search (§6 "Finding shortest lookahead-sensitive path") — any
        path vertex must be one of these pairs. Results are cached per
        target in a bounded LRU (see the module docstring).
        """
        cache = self._reaching_cache
        cached = cache.get(target)
        if cached is not None:
            cache.move_to_end(target)
            self._cache_hits += 1
            metrics.count("lookups.reaching.hit")
            return cached
        self._cache_misses += 1
        metrics.count("lookups.reaching.miss")
        index = self._index
        at_start = index.at_start
        parents_of = index.production_parents
        reverse_of = index.reverse_transitions
        seen = bytearray(len(index))
        seen[target] = 1
        frontier = [target]
        while frontier:
            node = frontier.pop()
            if at_start[node]:
                sources = parents_of(node)
            else:
                sources = reverse_of(node)[1]
            for source in sources:
                if source >= 0 and not seen[source]:
                    seen[source] = 1
                    frontier.append(source)
        cache[target] = seen
        if len(cache) > REACHING_CACHE_ENTRIES:
            cache.popitem(last=False)
            self._cache_evictions += 1
            metrics.count("lookups.reaching.evicted")
        return seen

    def reaching_pairs(
        self, state: LR0State, item: Item
    ) -> frozenset[tuple[int, Item]]:
        """All ``(state id, item)`` pairs that can reach ``(state, item)``."""
        index = self._index
        seen = self.reaching(index.id_of(state.id, item))
        return frozenset(
            index.pair(node) for node in range(len(seen)) if seen[node]
        )

    def states_reaching(self, state: LR0State, item: Item) -> frozenset[int]:
        """IDs of states that can reach ``(state, item)`` going backward."""
        index = self._index
        seen = self.reaching(index.id_of(state.id, item))
        state_of = index.state_of
        return frozenset(state_of[node] for node in range(len(seen)) if seen[node])

    # ------------------------------------------------------------------ #

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/eviction counters and current size of the LRU cache."""
        return {
            "entries": len(self._reaching_cache),
            "max_entries": REACHING_CACHE_ENTRIES,
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "evictions": self._cache_evictions,
        }

    def clear_reaching_cache(self) -> None:
        """Drop every memoised reaching set (counters kept)."""
        self._reaching_cache.clear()
