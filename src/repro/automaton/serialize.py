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
*counterexample* pipeline needs — item sets, the transition graph, the
per-item LALR(1) lookahead function, and the unresolved conflicts — so a
:class:`~repro.automaton.lalr.LALRAutomaton` can be reconstructed without
re-running LR(0) construction or the lookahead fixpoint.

The format (version 3) mirrors the in-memory hot-path representation:
lookahead sets are pooled *int bitmasks* over the automaton's
name-sorted :class:`~repro.automaton.bitset.TerminalTable` (decode is a
dict fill, no set construction), items and transitions are flat integer
arrays over a shared symbol list, and the construction algorithm
(``"algorithm"``: lalr/ielr/lr1 — minimal and canonical LR(1) automata
from :mod:`repro.automaton.ielr` serialize through the same writer) is
recorded. ACTION/GOTO rows are flat coded triples/pairs compressed with
the row/column equivalence-class encoding of
:mod:`repro.automaton.compaction` — identical columns collapse into one
class and identical re-keyed rows are interned, which is where most of a
big automaton's serialized bytes live.

Only the current version decodes; any other raises ``ValueError``. The
format's one job is to memoize automaton construction in
:mod:`repro.perf.cache`, which folds the version into its cache key, so
documents of an older version are never even looked up.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Any

from repro.automaton.bitset import TerminalTable
from repro.automaton.compaction import (
    compact_rows,
    expand_rows,
    intern_rows,
    restore_rows,
)
from repro.automaton.conflicts import Conflict, ConflictKind
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
FULL_FORMAT_VERSION = 3

#: ACTION opcodes of the flat row encoding.
_OP_SHIFT, _OP_REDUCE, _OP_ACCEPT, _OP_ERROR = 0, 1, 2, 3


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


def automaton_to_dict(automaton: LALRAutomaton) -> dict[str, Any]:
    """A JSON-compatible snapshot of the *whole* automaton.

    Captures the grammar (as DSL text — :func:`repro.grammar.emit.dump_grammar`
    round-trips production order, start symbol, and precedence), the
    construction algorithm, the state graph with item sets and flat
    coded transitions, the pooled bitmask lookahead function over the
    automaton's terminal table, and the fully built parse tables
    including unresolved conflicts. Parse tables are forced if not yet
    built.
    """
    grammar = automaton.grammar
    tables = automaton.tables  # force, so conflicts are captured
    from repro.grammar.emit import dump_grammar

    table = automaton.terminal_table
    terminal_code = table.index
    masks = automaton.lookahead_masks

    #: Transition/GOTO symbols get dense codes in first-seen order (the
    #: state graph's construction order is deterministic, so the dump is).
    symbol_codes: dict[Symbol, int] = {}
    symbol_names: list[str] = []

    def code_of(symbol: Symbol) -> int:
        code = symbol_codes.get(symbol)
        if code is None:
            code = symbol_codes[symbol] = len(symbol_names)
            symbol_names.append(symbol.name)
        return code

    pool_index: dict[int, int] = {}
    pool: list[int] = []
    states: list[dict[str, Any]] = []
    lookahead_rows: list[list[int]] = []
    trans_rows: list[list[int]] = []
    for state in automaton.states:
        items_flat: list[int] = []
        row: list[int] = []
        for item in state.items:
            items_flat.append(item.production.index)
            items_flat.append(item.dot)
            mask = masks[(state.id, item)]
            index = pool_index.get(mask)
            if index is None:
                index = pool_index[mask] = len(pool)
                pool.append(mask)
            row.append(index)
        trans_flat: list[int] = []
        for symbol, target in state.transitions.items():
            trans_flat.append(code_of(symbol))
            trans_flat.append(target.id)
        states.append({"k": len(state.kernel), "items": items_flat})
        lookahead_rows.append(row)
        trans_rows.append(trans_flat)

    def encode_action_row(row: dict[Terminal, Action]) -> list[int]:
        flat: list[int] = []
        for terminal, action in sorted(
            row.items(), key=lambda pair: terminal_code[pair[0]]
        ):
            if isinstance(action, Shift):
                op, arg = _OP_SHIFT, action.state_id
            elif isinstance(action, Reduce):
                op, arg = _OP_REDUCE, action.production.index
            elif isinstance(action, Accept):
                op, arg = _OP_ACCEPT, -1
            else:
                op, arg = _OP_ERROR, -1
            flat.extend((terminal_code[terminal], op, arg))
        return flat

    def encode_goto_row(row: dict[Nonterminal, int]) -> list[int]:
        flat: list[int] = []
        for nonterminal, target in sorted(
            row.items(), key=lambda pair: str(pair[0])
        ):
            flat.extend((code_of(nonterminal), target))
        return flat

    action_rows = [encode_action_row(row) for row in tables.action]
    goto_rows = [encode_goto_row(row) for row in tables.goto]
    return {
        "full_version": FULL_FORMAT_VERSION,
        "algorithm": automaton.algorithm,
        "grammar": grammar.name,
        "grammar_dsl": dump_grammar(grammar),
        "terminals": [t.name for t in table.terminals],
        "symbols": symbol_names,
        "states": states,
        "la_pool": pool,
        # Whole-row interning for the remaining per-state vectors:
        # lookahead-pool rows and transition rows repeat heavily (half
        # or more of the states of a big grammar share one).
        "lookaheads": intern_rows(lookahead_rows),
        "trans": intern_rows(trans_rows),
        "action": compact_rows(action_rows, 3, len(table.terminals)),
        "goto": compact_rows(goto_rows, 2, len(symbol_names)),
        "conflicts": [
            {
                "state": c.state_id,
                "terminal": str(c.terminal),
                "kind": c.kind.value,
                "reduce": [c.reduce_item.production.index, c.reduce_item.dot],
                "other": [c.other_item.production.index, c.other_item.dot],
            }
            for c in tables.conflicts
        ],
        "resolved_count": tables.resolved_count,
        "used_precedence": sorted(str(t) for t in tables.used_precedence),
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
    transitions, lookahead masks and conflicts are rebuilt directly,
    skipping LR(0) construction, the lookahead fixpoint, and table
    building. The ACTION/GOTO rows are decoded on first use (see
    :class:`DecodedAutomaton`). A document of any other format version raises
    ``ValueError`` (which the automaton cache treats as a miss).
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
    # as the builder shares them through ``Item.advance``.
    interned: dict[tuple[int, int], Item] = {}

    def decode_item(index: int, dot: int) -> Item:
        item = interned.get((index, dot))
        if item is None:
            item = interned[(index, dot)] = Item(productions[index], dot)
        return item

    states: list[LR0State] = []
    for state_id, encoded in enumerate(data["states"]):
        raw = encoded["items"]
        items = tuple(decode_item(raw[i], raw[i + 1]) for i in range(0, len(raw), 2))
        states.append(
            LR0State(id=state_id, kernel=frozenset(items[: encoded["k"]]), items=items)
        )
    lookahead_masks: dict[tuple[int, Item], int] = {}
    for state, trans, row in zip(
        states, expand_rows(data["trans"]), expand_rows(data["lookaheads"])
    ):
        transitions = state.transitions
        for i in range(0, len(trans), 2):
            transitions[symbols[trans[i]]] = states[trans[i + 1]]
        state_id = state.id
        for item, pool_id in zip(state.items, row):
            lookahead_masks[(state_id, item)] = pool[pool_id]

    # Wire the ``__new__``-made instances together. The nullable/FIRST
    # analysis, the set-like lookahead views, the adjacency arrays and
    # the ACTION/GOTO rows all stay lazy — cached consumers that never
    # touch them never pay for them.
    lr0 = LR0Automaton.__new__(LR0Automaton)
    lr0.grammar = grammar
    lr0.states = states
    lr0._by_kernel = {state.kernel: state for state in states}
    # Predecessor lists in the order the construction appended them: the
    # LR(0) builder's LIFO expansion for LALR, state ids for the LR(1)
    # quotients. Walks over the reverse graph depend on this order.
    lr0.predecessors = predecessor_map(
        states, expansion_order(states) if algorithm == "lalr" else states
    )

    automaton = DecodedAutomaton.__new__(DecodedAutomaton)
    automaton.grammar = grammar
    automaton.lr0 = lr0
    automaton.terminal_table = terminal_table
    automaton.lookahead_masks = lookahead_masks
    automaton.algorithm = algorithm
    automaton.conflicts = [
        Conflict(
            state_id=entry["state"],
            terminal=Terminal(entry["terminal"]),
            kind=ConflictKind(entry["kind"]),
            reduce_item=decode_item(*entry["reduce"]),
            other_item=decode_item(*entry["other"]),
        )
        for entry in data["conflicts"]
    ]
    automaton._encoded_tables = {
        "action": data["action"],
        "goto": data["goto"],
        "symbols": symbols,
        "productions": productions,
        "resolved_count": data.get("resolved_count", 0),
        "used_precedence": data.get("used_precedence", ()),
    }
    return automaton


class DecodedAutomaton(LALRAutomaton):
    """An :class:`LALRAutomaton` rebuilt by :func:`automaton_from_dict`.

    States, transitions, lookahead masks and :attr:`conflicts` are
    decoded up front. The ACTION/GOTO rows stay in their compacted
    encoding until :attr:`tables` is first read: the counterexample
    pipeline, the walk and the service read only the conflicts.
    """

    _encoded_tables: dict[str, Any]

    @cached_property
    def tables(self) -> ParseTables:
        """The parse tables, decoded from the document on first use."""
        encoded = self.__dict__.pop("_encoded_tables")
        terminals = self.terminal_table.terminals
        symbols: list[Symbol] = encoded["symbols"]
        productions = encoded["productions"]

        def decode_action_row(flat: list[int]) -> dict[Terminal, Action]:
            row: dict[Terminal, Action] = {}
            for i in range(0, len(flat), 3):
                terminal = terminals[flat[i]]
                op, arg = flat[i + 1], flat[i + 2]
                if op == _OP_SHIFT:
                    row[terminal] = Shift(arg)
                elif op == _OP_REDUCE:
                    row[terminal] = Reduce(productions[arg])
                elif op == _OP_ACCEPT:
                    row[terminal] = Accept()
                else:
                    row[terminal] = ErrorAction()
            return row

        def decode_goto_row(flat: list[int]) -> dict[Nonterminal, int]:
            row: dict[Nonterminal, int] = {}
            for i in range(0, len(flat), 2):
                symbol = symbols[flat[i]]
                assert isinstance(symbol, Nonterminal)
                row[symbol] = flat[i + 1]
            return row

        return ParseTables(
            action=[
                decode_action_row(flat)
                for flat in restore_rows(encoded["action"], 3)
            ],
            goto=[
                decode_goto_row(flat) for flat in restore_rows(encoded["goto"], 2)
            ],
            conflicts=self.conflicts,
            resolved_count=encoded["resolved_count"],
            used_precedence=frozenset(
                Terminal(name) for name in encoded["used_precedence"]
            ),
        )


def dump_automaton(automaton: LALRAutomaton) -> str:
    """Serialize the full automaton to deterministic JSON text."""
    return json.dumps(
        automaton_to_dict(automaton), sort_keys=True, separators=(",", ":")
    )


def load_automaton(text: str) -> LALRAutomaton:
    """Inverse of :func:`dump_automaton`."""
    return automaton_from_dict(json.loads(text))
