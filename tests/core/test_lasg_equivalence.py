"""The bit-projected LASG search finds exactly the paper's shortest path.

:meth:`LookaheadSensitiveGraph.shortest_path` runs its BFS over
``(state, item, conflict-terminal bit)`` and rebuilds the full lookahead
sets afterwards; :func:`reference_shortest_path` runs the same BFS over
full ``(state, item, L)`` vertices. They must agree edge for edge,
lookahead sets included (``str(edge)`` renders them).
"""

import pytest

from repro.automaton import build_lalr
from repro.core.lasg import LookaheadSensitiveGraph
from repro.corpus.registry import all_specs
from repro.verify import GrammarFuzzer

from lasg_reference import reference_shortest_path

#: The full-vertex reference BFS takes ~8 s on C.4 and ~33 s on Java.4.
SLOW_REFERENCE = {"C.4", "Java.4"}


def assert_same_paths(automaton):
    graph = LookaheadSensitiveGraph(automaton)
    for conflict in automaton.conflicts:
        projected = [str(edge) for edge in graph.shortest_path(conflict)]
        reference = [str(edge) for edge in reference_shortest_path(graph, conflict)]
        assert projected == reference, f"conflict [{conflict}]"


@pytest.mark.parametrize(
    "spec",
    [spec for spec in all_specs() if spec.name not in SLOW_REFERENCE],
    ids=lambda spec: spec.name,
)
def test_corpus_paths_match_full_vertex_bfs(spec):
    automaton = build_lalr(spec.load())
    assert_same_paths(automaton)


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_paths_match_full_vertex_bfs(seed):
    assert_same_paths(build_lalr(GrammarFuzzer().generate(seed)))
