"""Emit a grammar back into the textual DSL.

The inverse of :func:`repro.grammar.dsl.load_grammar`: rendering a
:class:`~repro.grammar.grammar.Grammar` as DSL text that reloads to an
equivalent grammar. Uses:

* persisting programmatically built or transformed grammars (e.g. the
  output of :func:`repro.grammar.transforms.reduce_grammar`);
* golden-file diffs of injected corpus variants;
* the round-trip property tests that pin the DSL's semantics.

Quoting rules match the parser: names that could not be scanned as plain
identifiers (operators, punctuation) are emitted quoted; identifier-like
terminal names are emitted bare. Precedence declarations are re-emitted
in rank order, and ``%prec`` overrides are preserved.
"""

from __future__ import annotations

import re

from repro.grammar.algorithms import DEFAULT_ALGORITHM
from repro.grammar.grammar import Grammar
from repro.grammar.precedence import Associativity
from repro.grammar.symbols import Symbol, Terminal

_PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_'-]*$")


def _emit_name(symbol: Symbol) -> str:
    name = symbol.name
    if symbol.is_terminal and not _PLAIN_NAME.match(name):
        escaped = name.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return name


def dump_grammar(grammar: Grammar) -> str:
    """Render *grammar* as DSL text accepted by ``load_grammar``.

    Productions are emitted in index order, starting a new rule block
    whenever the left-hand side changes — never regrouped by
    nonterminal. Production order is semantically significant (yacc
    defaults resolve reduce/reduce conflicts in favour of the *earliest*
    production), so ``load_grammar(dump_grammar(g))`` yields a grammar
    with identical production indices, start symbol, and precedence
    behaviour.
    """
    name = grammar.name
    if not _PLAIN_NAME.match(name):
        name = "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"
    lines: list[str] = [f"%grammar {name}", f"%start {grammar.start}"]
    # The default construction is implicit; emitting it only when it
    # deviates keeps pre-existing grammars byte-identical round-trips.
    if grammar.table_algorithm != DEFAULT_ALGORITHM:
        lines.append(f"%algorithm {grammar.table_algorithm}")

    # Re-emit precedence levels lowest-rank first, grouping terminals on
    # one line per level. Every declared terminal counts, including
    # tokens used only as ``%prec`` targets (``%nonassoc NOELSE``), which
    # never appear in a production body and so are not grammar terminals.
    levels: dict[int, tuple[Associativity, list[Terminal]]] = {}
    for terminal in grammar.precedence.declared_terminals():
        level = grammar.precedence.level_of(terminal)
        entry = levels.setdefault(level.rank, (level.associativity, []))
        entry[1].append(terminal)
    for rank in sorted(levels):
        associativity, terminals = levels[rank]
        names = " ".join(_emit_name(t) for t in sorted(terminals, key=str))
        lines.append(f"%{associativity.value} {names}")

    lines.append("")
    current_lhs = None
    alternatives: list[str] = []

    def flush() -> None:
        if current_lhs is not None:
            joined = "\n     | ".join(alternatives)
            lines.append(f"{current_lhs} : {joined}\n     ;")

    for production in grammar.user_productions():
        if production.lhs != current_lhs:
            flush()
            current_lhs = production.lhs
            alternatives = []
        body = " ".join(_emit_name(symbol) for symbol in production.rhs)
        if not production.rhs:
            body = "%empty"
        if production.prec_override is not None:
            body += f" %prec {_emit_name(production.prec_override)}"
        alternatives.append(body)
    flush()
    return "\n".join(lines) + "\n"
