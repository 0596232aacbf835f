"""Serialize parse tables — and whole automatons — to plain dictionaries.

Production parser generators emit their tables so that parsing does not
repeat automaton construction. This module provides that:

* :func:`tables_to_dict` — a JSON-compatible dictionary capturing the
  ACTION/GOTO tables, the productions, and the start symbol;
* :func:`tables_from_dict` — reconstructs a
  :class:`~repro.automaton.tables.ParseTables` plus a minimal grammar
  view sufficient to run :class:`~repro.parsing.runtime.LRParser`;
* :func:`dump_tables` / :func:`load_tables` — the same through JSON text.

Conflicts are intentionally *not* serialized in the table format: tables
are only emitted for grammars one intends to parse with, and the loader
refuses tables whose source automaton had unresolved conflicts unless
``allow_conflicts``.

The **full-automaton format** (:func:`automaton_to_dict` /
:func:`automaton_from_dict`) additionally captures everything the
*counterexample* pipeline needs — item sets, the transition graph and
the per-item LALR(1) lookahead function — so a
:class:`~repro.automaton.lalr.LALRAutomaton` can be reconstructed without
re-running LR(0) construction or the lookahead fixpoint.

The format (version 5) holds the automaton and nothing derived from it.
Lookahead sets are pooled *int bitmasks* over the automaton's
name-sorted :class:`~repro.automaton.bitset.TerminalTable`, stored in
state and item order, so decoding fills
:attr:`~repro.automaton.lalr.LALRAutomaton.masks_by_id` straight from
the pool. Items and transitions are flat integer arrays over a shared
symbol list, and whole rows that repeat are interned
(:func:`intern_rows`). The construction algorithm (``"algorithm"``:
lalr/ielr/lr1 — minimal and canonical LR(1) automata from
:mod:`repro.automaton.ielr` serialize through the same writer) is
recorded. Conflicts and ACTION/GOTO rows are not stored: a decoded
automaton derives its
:attr:`~repro.automaton.lalr.LALRAutomaton.conflicts` and
:attr:`~repro.automaton.lalr.LALRAutomaton.tables` on first read, with
the same code as a fresh one.

Only the current version decodes; any other raises ``ValueError``. The
format's one job is to memoize automaton construction in
:mod:`repro.perf.cache`, which folds the version into its cache key, so
documents of an older version are never even looked up.
"""

from __future__ import annotations

import json
from typing import Any

from repro.automaton.bitset import TerminalTable
from repro.automaton.items import Item
from repro.automaton.lalr import LALRAutomaton
from repro.automaton.lr0 import (
    LR0Automaton,
    LR0State,
    expansion_order,
    predecessor_map,
)
from repro.automaton.tables import Accept, Action, ErrorAction, ParseTables, Reduce, Shift
from repro.grammar import Grammar, Nonterminal, Symbol, Terminal

FORMAT_VERSION = 1

#: Version of the full-automaton format. Bump on any change to the
#: encoding below; :mod:`repro.perf.cache` folds it into the cache key,
#: so stale cache entries self-invalidate.
FULL_FORMAT_VERSION = 5


def tables_to_dict(automaton: LALRAutomaton) -> dict[str, Any]:
    """A JSON-compatible snapshot of the automaton's parse tables."""
    grammar = automaton.grammar
    tables = automaton.tables

    def encode_action(action: Action) -> list[Any]:
        if isinstance(action, Shift):
            return ["s", action.state_id]
        if isinstance(action, Reduce):
            return ["r", action.production.index]
        if isinstance(action, Accept):
            return ["a"]
        return ["e"]

    return {
        "version": FORMAT_VERSION,
        "grammar": grammar.name,
        "start": grammar.start.name,
        "conflicts": len(tables.conflicts),
        "productions": [
            {
                "lhs": production.lhs.name,
                "rhs": [
                    ["n" if symbol.is_nonterminal else "t", symbol.name]
                    for symbol in production.rhs
                ],
            }
            for production in grammar.productions
        ],
        "action": [
            {terminal.name: encode_action(action) for terminal, action in row.items()}
            for row in tables.action
        ],
        "goto": [
            {nonterminal.name: target for nonterminal, target in row.items()}
            for row in tables.goto
        ],
    }


def tables_from_dict(
    data: dict[str, Any], allow_conflicts: bool = False
) -> tuple[ParseTables, Grammar]:
    """Reconstruct tables and a grammar view from :func:`tables_to_dict` output.

    The returned grammar is rebuilt from the serialized productions; it
    is equivalent to the original for parsing purposes (same productions,
    same start symbol), though precedence declarations are not preserved
    (they are already baked into the tables).
    """
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported table format version {data.get('version')!r}")
    if data.get("conflicts") and not allow_conflicts:
        raise ValueError(
            f"serialized tables carry {data['conflicts']} unresolved conflicts; "
            "pass allow_conflicts=True to load them anyway"
        )

    productions_raw = data["productions"]
    user_productions = []
    for entry in productions_raw[1:]:  # entry 0 is the augmented production
        rhs = tuple(
            Nonterminal(name) if kind == "n" else Terminal(name)
            for kind, name in entry["rhs"]
        )
        user_productions.append((Nonterminal(entry["lhs"]), rhs, None))
    grammar = Grammar(
        user_productions,
        start=Nonterminal(data["start"]),
        name=data.get("grammar", "loaded"),
    )

    def decode_action(encoded: list[Any]) -> Action:
        tag = encoded[0]
        if tag == "s":
            return Shift(encoded[1])
        if tag == "r":
            return Reduce(grammar.productions[encoded[1]])
        if tag == "a":
            return Accept()
        return ErrorAction()

    action = [
        {Terminal(name): decode_action(encoded) for name, encoded in row.items()}
        for row in data["action"]
    ]
    goto = [
        {Nonterminal(name): target for name, target in row.items()}
        for row in data["goto"]
    ]
    tables = ParseTables(action=action, goto=goto, conflicts=[])
    return tables, grammar


def dump_tables(automaton: LALRAutomaton) -> str:
    """Serialize the automaton's tables to JSON text."""
    return json.dumps(tables_to_dict(automaton), indent=1, sort_keys=True)


def load_tables(text: str, allow_conflicts: bool = False) -> tuple[ParseTables, Grammar]:
    """Inverse of :func:`dump_tables`."""
    return tables_from_dict(json.loads(text), allow_conflicts=allow_conflicts)


# ---------------------------------------------------------------------- #
# The full-automaton format (see the module docstring)


def intern_rows(rows: list[list[int]]) -> dict[str, Any]:
    """Pool unique rows and map each state to its row's index.

    Per-state vectors repeat heavily — half or more of a big grammar's
    states share a lookahead-pool row or a transition row with another.
    """
    pool: list[list[int]] = []
    pool_index: dict[tuple[int, ...], int] = {}
    row_ids: list[int] = []
    for row in rows:
        signature = tuple(row)
        row_id = pool_index.get(signature)
        if row_id is None:
            row_id = pool_index[signature] = len(pool)
            pool.append(list(row))
        row_ids.append(row_id)
    return {"rows": pool, "map": row_ids}


def expand_rows(interned: dict[str, Any]) -> list[list[int]]:
    """Inverse of :func:`intern_rows`."""
    pool = interned["rows"]
    return [pool[row_id] for row_id in interned["map"]]


def automaton_to_dict(
    automaton: LALRAutomaton, grammar_dsl: str | None = None
) -> dict[str, Any]:
    """A JSON-compatible snapshot of the *whole* automaton.

    Captures the grammar (as DSL text — :func:`repro.grammar.emit.dump_grammar`
    round-trips production order, start symbol, and precedence; a
    caller that already emitted it passes it as *grammar_dsl*), the
    construction algorithm, the state graph with item sets and flat
    coded transitions, and the pooled bitmask lookahead function over
    the automaton's terminal table. Conflicts and parse tables are
    neither found nor stored.
    """
    grammar = automaton.grammar
    if grammar_dsl is None:
        from repro.grammar.emit import dump_grammar

        grammar_dsl = dump_grammar(grammar)

    table = automaton.terminal_table
    masks = automaton.masks_by_id

    #: Transition symbols get dense codes in first-seen order (the state
    #: graph's construction order is deterministic, so the dump is).
    symbol_codes: dict[Symbol, int] = {}
    symbol_names: list[str] = []
    pool_index: dict[int, int] = {}
    pool: list[int] = []
    states: list[dict[str, Any]] = []
    lookahead_rows: list[list[int]] = []
    trans_rows: list[list[int]] = []
    node = 0
    for state in automaton.states:
        items_flat: list[int] = []
        row: list[int] = []
        for item in state.items:
            items_flat.append(item.production.index)
            items_flat.append(item.dot)
            mask = masks[node]
            node += 1
            index = pool_index.get(mask)
            if index is None:
                index = pool_index[mask] = len(pool)
                pool.append(mask)
            row.append(index)
        trans_flat: list[int] = []
        for symbol, target in state.transitions.items():
            code = symbol_codes.get(symbol)
            if code is None:
                code = symbol_codes[symbol] = len(symbol_names)
                symbol_names.append(symbol.name)
            trans_flat.append(code)
            trans_flat.append(target.id)
        states.append({"k": len(state.kernel), "items": items_flat})
        lookahead_rows.append(row)
        trans_rows.append(trans_flat)

    return {
        "full_version": FULL_FORMAT_VERSION,
        "algorithm": automaton.algorithm,
        "grammar": grammar.name,
        "grammar_dsl": grammar_dsl,
        "terminals": [t.name for t in table.terminals],
        "symbols": symbol_names,
        "states": states,
        "la_pool": pool,
        "lookaheads": intern_rows(lookahead_rows),
        "trans": intern_rows(trans_rows),
    }


def automaton_from_dict(
    data: dict[str, Any], grammar: Grammar | None = None
) -> LALRAutomaton:
    """Reconstruct an :class:`LALRAutomaton` from :func:`automaton_to_dict`.

    The grammar is reloaded from its embedded DSL text (identical
    production indices by the emitter's round-trip guarantee), unless
    the caller passes *grammar*, which must emit exactly that text (the
    automaton cache checks this): the automaton is then decoded against
    the caller's own productions, source lines included. States,
    transitions and lookahead masks are rebuilt directly, skipping LR(0)
    construction and the lookahead pass. A document of any other
    format version raises ``ValueError`` (which the automaton cache
    treats as a miss).
    """
    version = data.get("full_version")
    if version != FULL_FORMAT_VERSION:
        raise ValueError(f"unsupported full-automaton format version {version!r}")

    algorithm = data["algorithm"]
    if grammar is None:
        from repro.grammar.dsl import load_grammar

        grammar = load_grammar(
            data["grammar_dsl"], name=data.get("grammar", "grammar")
        )
    productions = grammar.productions
    nonterminal_names = {nt.name for nt in grammar.nonterminals}

    symbols: list[Symbol] = [
        Nonterminal(name) if name in nonterminal_names else Terminal(name)
        for name in data["symbols"]
    ]
    terminal_table = TerminalTable(Terminal(name) for name in data["terminals"])
    pool = [int(mask) for mask in data["la_pool"]]

    # One Item per (production, dot), shared by every state holding it,
    # as the builder shares them through ``Item.advance``: the item of
    # production p with the dot at d is ``catalog[offsets[p] + d]``.
    offsets: list[int] = []
    catalog: list[Item] = []
    for production in productions:
        offsets.append(len(catalog))
        catalog.extend(
            Item(production, dot) for dot in range(len(production.rhs) + 1)
        )

    states: list[LR0State] = []
    for state_id, encoded in enumerate(data["states"]):
        raw = encoded["items"]
        items = tuple(
            [catalog[offsets[index] + dot] for index, dot in zip(raw[::2], raw[1::2])]
        )
        states.append(
            LR0State(id=state_id, kernel=frozenset(items[: encoded["k"]]), items=items)
        )
    masks: list[int] = []
    for state, trans, row in zip(
        states, expand_rows(data["trans"]), expand_rows(data["lookaheads"])
    ):
        transitions = state.transitions
        for i in range(0, len(trans), 2):
            transitions[symbols[trans[i]]] = states[trans[i + 1]]
        if len(row) != len(state.items):
            raise ValueError(f"state {state.id}: lookahead row length mismatch")
        masks.extend([pool[pool_id] for pool_id in row])

    # Wire the ``__new__``-made instances together. The nullable/FIRST
    # analysis, the conflicts and the parse tables all stay lazy, as on
    # a fresh build.
    lr0 = LR0Automaton.__new__(LR0Automaton)
    lr0.grammar = grammar
    lr0.states = states
    # Predecessor lists in the order the construction appended them: the
    # LR(0) builder's LIFO expansion for LALR, state ids for the LR(1)
    # quotients. Walks over the reverse graph depend on this order.
    lr0.predecessors = predecessor_map(
        states, expansion_order(states) if algorithm == "lalr" else states
    )

    automaton = LALRAutomaton.__new__(LALRAutomaton)
    automaton.grammar = grammar
    automaton.lr0 = lr0
    automaton.terminal_table = terminal_table
    automaton.masks_by_id = masks
    automaton.algorithm = algorithm
    return automaton


def dump_automaton(automaton: LALRAutomaton, grammar_dsl: str | None = None) -> str:
    """Serialize the full automaton to deterministic JSON text."""
    return json.dumps(
        automaton_to_dict(automaton, grammar_dsl),
        sort_keys=True,
        separators=(",", ":"),
    )


def load_automaton(text: str) -> LALRAutomaton:
    """Inverse of :func:`dump_automaton`."""
    return automaton_from_dict(json.loads(text))
