"""Workload definitions: inputs, reference answers, and why each exists.

Every reference below comes from outside the program under test: the
(conflicts, unifying, nonunifying, timed-out) tallies are the measured
column of EXPERIMENTS.md, experiment E1 (Table 1), and the verbatim
counterexamples are the paper's own (Figures 1 and 7, §3.1, §5.2).
None of them is captured from a run of this code.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Tally:
    """One grammar's Table 1 outcome classes (EXPERIMENTS.md E1)."""

    conflicts: int
    unifying: int
    nonunifying: int
    timeouts: int


#: E1's measured (conflicts → u/n/t) column, for every grammar used here.
E1 = {
    "figure1": Tally(3, 3, 0, 0),
    "figure3": Tally(1, 0, 1, 0),
    "figure7": Tally(2, 2, 0, 0),
    "simp2": Tally(1, 1, 0, 0),
    "eqn": Tally(1, 1, 0, 0),
    "xi": Tally(6, 6, 0, 0),
    "stackexc01": Tally(3, 3, 0, 0),
    "stackovf01": Tally(1, 0, 1, 0),
    "stackovf02": Tally(4, 4, 0, 0),
    "stackovf07": Tally(3, 3, 0, 0),
    "stackovf10": Tally(17, 17, 0, 0),
    "SQL.1": Tally(1, 1, 0, 0),
    "SQL.2": Tally(1, 1, 0, 0),
    "SQL.3": Tally(1, 1, 0, 0),
    "SQL.4": Tally(2, 2, 0, 0),
    "SQL.5": Tally(4, 4, 0, 0),
    "Pascal.3": Tally(1, 1, 0, 0),
    "Pascal.4": Tally(2, 2, 0, 0),
    "Pascal.5": Tally(1, 1, 0, 0),
    "C.1": Tally(1, 1, 0, 0),
    "C.2": Tally(7, 7, 0, 0),
    "C.3": Tally(11, 11, 0, 0),
    "C.5": Tally(1, 1, 0, 0),
    "Java.2": Tally(128, 126, 2, 0),
    "Java.3": Tally(6, 6, 0, 0),
    "Java.5": Tally(2, 2, 0, 0),
    "java-ext1": Tally(3, 0, 0, 3),
    "java-ext2": Tally(4, 0, 0, 4),
}

#: The paper's five verbatim counterexamples, as the CLI prints them.
VERBATIM = {
    "figure1": (
        "Example: expr + expr • + expr",
        "Example: IF expr THEN IF expr THEN stmt • ELSE stmt",
        "Example: expr ? arr [ expr ] := num • DIGIT DIGIT ? stmt stmt",
    ),
    "figure7": (
        "Example: n a • b c",
        "Example: n n a • b d c",
    ),
}


@dataclass(frozen=True)
class CliWorkload:
    """A sweep of ``python -m repro --corpus G`` invocations.

    Each invocation runs with ``--cache-dir`` and ``--robust-report``.
    A run makes a cold pass on an empty cache directory and then a warm
    pass over the same grammars against the cache the cold pass filled.
    """

    name: str
    why: str
    grammars: tuple[str, ...]
    flags: tuple[str, ...] = ()
    #: Budget-bound grammars are unambiguous, so a later change may turn
    #: a timeout into a nonunifying verdict: pin only u = 0 and the
    #: conflict count, not the n/t split.
    pin_split: bool = True
    verbatim: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class ServiceWorkload:
    """An open loop of submissions to ``repro-conflicts serve``."""

    name: str
    why: str
    bases: tuple[str, ...]
    #: Bases left out on purpose, with the reason.
    excluded: dict[str, str]
    rate: float  # jobs per second, Poisson arrivals
    new_share: float  # share of submissions that are a fresh variant
    workers: int = 2


LANG_COLD_WARM = CliWorkload(
    name="lang-cold-warm",
    why=(
        "construction, the LASG and cache encode/decode dominate, the "
        "search is small; the warm pass shows cache reads beside the cold "
        "pass's writes"
    ),
    grammars=(
        "C.1", "C.2", "C.3", "C.5", "Java.3", "Java.5",
        "Pascal.3", "Pascal.4", "Pascal.5", "SQL.2", "SQL.3", "SQL.4",
    ),
    flags=("--quiet",),
)

PAPER_SEARCH = CliWorkload(
    name="paper-search",
    why=(
        "UnifyingSearch and report rendering dominate and construction is "
        "negligible: the mirror of lang-cold-warm for the two hot spots"
    ),
    grammars=(
        "figure1", "figure3", "figure7", "xi", "stackexc01", "stackovf01",
        "stackovf02", "stackovf07", "stackovf10", "SQL.1", "SQL.5", "Java.2",
    ),
    verbatim=VERBATIM,
)

BUDGET_BOUND = CliWorkload(
    name="budget-bound",
    why=(
        "every search on these unambiguous grammars times out, so the "
        "budget binds and the degradation ladder and the SR walk answer"
    ),
    grammars=("java-ext1", "java-ext2"),
    flags=("--time-limit", "1", "--ambiguity"),
    pin_split=False,
)

SERVICE_OPEN = ServiceWorkload(
    name="service-open",
    why=(
        "Poisson open loop on the HTTP service: admission, fork-per-attempt "
        "supervision, the journal, and automaton-cache hits against misses"
    ),
    bases=(
        "figure7", "simp2", "eqn", "stackexc01", "stackovf07",
        "SQL.2", "SQL.3", "Pascal.3", "Pascal.5", "C.1",
    ),
    excluded={
        name: (
            "repro.grammar.emit.dump_grammar drops tokens used only for "
            "precedence (e.g. %nonassoc NOELSE), so the emitted text of "
            "C.2/C.3/C.4/C.5 has 8/12/16/2 conflicts instead of 7/11/15/1; "
            "restore these rows once the emitter keeps them"
        )
        for name in ("C.2", "C.3", "C.4", "C.5")
    },
    rate=2.5,
    new_share=0.25,
)

#: Rows of Table 1 left out of every workload, and why.
LEFT_OUT = {
    "Pascal.1": "its u/n/t split depends on host speed (2 timeouts at 5 s, 6 at 1 s)",
    "C.4": "host-speed dependent outcome and 87 s at the paper's budgets",
    "Java.4": "host-speed dependent outcome and 171 s at the paper's budgets",
}

WORKLOADS = {
    workload.name: workload
    for workload in (LANG_COLD_WARM, PAPER_SEARCH, BUDGET_BOUND, SERVICE_OPEN)
}
