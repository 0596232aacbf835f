"""Static ambiguity analysis: SR-automata walks with per-conflict verdicts.

The counterexample finder explains *why* a conflict exists; this package
decides *whether it matters* — walking Quaglia-style SR-automata (the
nondeterministic shift/reduce view of the LR automaton before any
resolution) with paired cursors to prove each conflict ``unambiguous``,
``ambiguous`` (with an independently-validatable witness sentence), or
``inconclusive`` under a :mod:`repro.robust` budget.

See ``docs/AMBIGUITY.md`` for construction, budgets, and semantics.
"""

from repro.analysis.sr import SRAutomaton
from repro.analysis.walk import (
    DEFAULT_MAX_CLOSURE,
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_STACK,
    AmbiguityVerdict,
    ConflictAmbiguity,
    analyze_conflicts,
    walk_conflict,
)

#: Version of the walk semantics, folded into cache fingerprints so
#: memoized verdicts from an older walker are clean misses.
ANALYSIS_VERSION = 1

__all__ = [
    "ANALYSIS_VERSION",
    "AmbiguityVerdict",
    "ConflictAmbiguity",
    "DEFAULT_MAX_CLOSURE",
    "DEFAULT_MAX_NODES",
    "DEFAULT_MAX_STACK",
    "SRAutomaton",
    "analyze_conflicts",
    "walk_conflict",
]
