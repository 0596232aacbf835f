"""One fuzz examination builds each per-grammar artifact once.

Lint, the differential oracle and the harness's own checks share one
:class:`~repro.lint.context.LintContext`, so the SR walk runs once, the
canonical LR(1) automaton is built at most once, and each conflict is
explained once — by the harness's finder, whose reports every walk
cross-check reads.
"""

import pytest

import repro.analysis as analysis_module
from repro.automaton.lr1 import LR1Automaton
from repro.core.finder import CounterexampleFinder
from repro.corpus import load
from repro.verify.harness import FuzzHarness


@pytest.mark.parametrize("name", ["figure1", "nonlalr01", "xi"])
def test_examine_builds_each_artifact_once(name, monkeypatch):
    calls = {"walk": 0, "lr1": 0, "explain": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        analysis_module,
        "analyze_conflicts",
        counting("walk", analysis_module.analyze_conflicts),
    )
    monkeypatch.setattr(
        LR1Automaton, "__init__", counting("lr1", LR1Automaton.__init__)
    )
    monkeypatch.setattr(
        CounterexampleFinder,
        "explain",
        counting("explain", CounterexampleFinder.explain),
    )
    examination = FuzzHarness(shrink=False)._examine(load(name), seed=0)
    assert not [kind for kind, _ in examination.problems if kind.fatal]
    assert examination.conflicts > 0
    assert calls["walk"] == 1
    assert calls["lr1"] <= 1
    assert calls["explain"] == examination.conflicts
