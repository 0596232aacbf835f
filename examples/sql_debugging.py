"""Debugging a realistic SQL grammar with counterexamples.

A language-design session: we extend the corpus SQL grammar with a few
"obviously useful" rules, watch the conflicts appear, and use the
counterexamples to understand and fix each defect — the workflow the
paper argues counterexamples enable.

Run with::

    python examples/sql_debugging.py
"""

from repro.automaton import build_lalr
from repro.core import CounterexampleFinder, format_report, format_symbols
from repro.corpus.inject import add_rules
from repro.corpus.sql import SQL_BASE
from repro.grammar import load_grammar


def analyse(title: str, text: str) -> None:
    print(f"=== {title} ===")
    grammar = load_grammar(text, name=title)
    automaton = build_lalr(grammar)
    if not automaton.conflicts:
        print("no conflicts — LALR(1)\n")
        return
    finder = CounterexampleFinder(automaton, time_limit=5.0)
    for report in finder.explain_all().reports:
        print(format_report(report))
        print()


def main() -> None:
    base = SQL_BASE
    analyse("base SQL grammar", base)

    # Defect 1: "JOIN should nest on both sides, right?"
    # The counterexample shows t1 JOIN t2 ON c JOIN t3 ON c parses two
    # ways; the fix is to keep the join left-recursive.
    analyse(
        "after adding join_ref JOIN join_ref",
        add_rules(base, "join_ref : join_ref JOIN join_ref ON cond ;"),
    )

    # Defect 2: "WHEN clauses should allow a per-clause ELSE."
    # The counterexample is the dangling else in CASE clothing.
    analyse(
        "after adding a per-WHEN ELSE",
        add_rules(base, "when_clause : WHEN cond THEN expr ELSE expr ;"),
    )

    # Defect 3: a careless duplicate rule — classic reduce/reduce.
    analyse(
        "after duplicating the DROP TABLE name rule",
        add_rules(base, "drop_stmt : DROP TABLE qualified ;\nqualified : ID ;"),
    )


if __name__ == "__main__":
    main()
