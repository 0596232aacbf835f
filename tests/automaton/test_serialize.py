"""Tests for parse-table serialization."""

import pytest

from repro.automaton import build_lalr
from repro.automaton.serialize import (
    dump_tables,
    load_tables,
    tables_from_dict,
    tables_to_dict,
)
from repro.parsing import LRParser


class TestRoundTrip:
    def test_parser_from_loaded_tables(self, expr_grammar):
        automaton = build_lalr(expr_grammar)
        tables, grammar = load_tables(dump_tables(automaton))
        parser = LRParser.from_tables(tables, grammar)
        assert parser.accepts(["ID", "+", "ID", "*", "ID"])
        assert not parser.accepts(["ID", "+"])

    def test_trees_identical(self, expr_grammar):
        automaton = build_lalr(expr_grammar)
        direct = LRParser(automaton)
        tables, grammar = load_tables(dump_tables(automaton))
        loaded = LRParser.from_tables(tables, grammar)
        tokens = ["(", "ID", "+", "ID", ")", "*", "ID"]
        assert (
            direct.parse(tokens).bracketed() == loaded.parse(tokens).bracketed()
        )

    def test_precedence_baked_in(self):
        from repro.grammar import load_grammar

        grammar = load_grammar("%left '+'\ne : e '+' e | ID ;")
        automaton = build_lalr(grammar)
        tables, loaded_grammar = load_tables(dump_tables(automaton))
        parser = LRParser.from_tables(tables, loaded_grammar)
        tree = parser.parse(["ID", "+", "ID", "+", "ID"])
        # Left associativity survived: ((ID + ID) + ID).
        assert len(tree.children[0].children) == 3

    def test_corpus_grammar_roundtrip(self):
        from repro.corpus.sql import sql_base
        from repro.corpus.lexers import sql_lexer

        automaton = build_lalr(sql_base())
        tables, grammar = load_tables(dump_tables(automaton))
        parser = LRParser.from_tables(tables, grammar)
        tokens = sql_lexer().tokenize("SELECT a FROM t WHERE x = 1 ;")
        assert parser.accepts(tokens)


class TestSafety:
    def test_conflicted_tables_refused(self, figure1):
        automaton = build_lalr(figure1)
        payload = tables_to_dict(automaton)
        with pytest.raises(ValueError, match="unresolved conflicts"):
            tables_from_dict(payload)

    def test_conflicted_tables_opt_in(self, figure1):
        automaton = build_lalr(figure1)
        tables, grammar = tables_from_dict(
            tables_to_dict(automaton), allow_conflicts=True
        )
        parser = LRParser.from_tables(tables, grammar)
        # Yacc defaults are baked into the table entries.
        assign = "arr [ DIGIT ] := DIGIT".split()
        assert parser.accepts(
            ["IF", "DIGIT", "THEN"] + assign
        )

    def test_version_check(self, expr_grammar):
        payload = tables_to_dict(build_lalr(expr_grammar))
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            tables_from_dict(payload)

    def test_json_stability(self, expr_grammar):
        automaton = build_lalr(expr_grammar)
        assert dump_tables(automaton) == dump_tables(automaton)


class TestFullAutomatonFormat:
    """Round-trips of the full-automaton format behind repro.perf.cache."""

    def _round_trip(self, grammar):
        from repro.automaton.serialize import dump_automaton, load_automaton

        automaton = build_lalr(grammar)
        return automaton, load_automaton(dump_automaton(automaton))

    def test_states_and_transitions_identical(self, figure1):
        original, loaded = self._round_trip(figure1)
        assert len(loaded.states) == len(original.states)
        for a, b in zip(original.states, loaded.states):
            assert a.items == b.items
            assert a.kernel == b.kernel
            assert {str(s): t.id for s, t in a.transitions.items()} == {
                str(s): t.id for s, t in b.transitions.items()
            }

    def test_lookaheads_identical(self, figure1):
        original, loaded = self._round_trip(figure1)
        assert loaded.masks_by_id == original.masks_by_id
        for state in original.states:
            for item in state.items:
                assert loaded.lookahead(state.id, item) == original.lookahead(
                    state, item
                )

    def test_tables_and_conflicts_identical(self, figure1):
        original, loaded = self._round_trip(figure1)
        assert loaded.tables.action == original.tables.action
        assert loaded.tables.goto == original.tables.goto
        assert [str(c) for c in loaded.conflicts] == [
            str(c) for c in original.conflicts
        ]

    def test_predecessors_rebuilt(self, figure1):
        original, loaded = self._round_trip(figure1)
        assert loaded.lr0.predecessors == original.lr0.predecessors

    def test_dump_is_deterministic_and_idempotent(self, figure1):
        from repro.automaton.serialize import dump_automaton, load_automaton

        automaton = build_lalr(figure1)
        text = dump_automaton(automaton)
        assert dump_automaton(automaton) == text
        assert dump_automaton(load_automaton(text)) == text

    def test_precedence_metadata_preserved(self):
        from repro.automaton.serialize import dump_automaton, load_automaton
        from repro.grammar import load_grammar

        grammar = load_grammar("%left '+'\ne : e '+' e | ID ;")
        automaton = build_lalr(grammar)
        loaded = load_automaton(dump_automaton(automaton))
        assert len(loaded.resolutions) == len(automaton.resolutions) == 1
        assert loaded.used_precedence == automaton.used_precedence
        assert loaded.tables.action == automaton.tables.action
        assert loaded.conflicts == automaton.conflicts == []

    def test_version_check(self, expr_grammar):
        from repro.automaton.serialize import (
            automaton_from_dict,
            automaton_to_dict,
        )

        payload = automaton_to_dict(build_lalr(expr_grammar))
        payload["full_version"] = 99
        with pytest.raises(ValueError, match="version"):
            automaton_from_dict(payload)

    def test_loaded_automaton_drives_the_finder(self, figure1):
        from repro.core import CounterexampleFinder
        from repro.core.report import safe_format_report

        original, loaded = self._round_trip(figure1)
        fresh = CounterexampleFinder(original).explain_all()
        decoded = CounterexampleFinder(loaded).explain_all()
        assert [safe_format_report(r) for r in fresh.reports] == [
            safe_format_report(r) for r in decoded.reports
        ]


def _encode_v1(automaton):
    """Re-encode *automaton* in the legacy v1 document shape.

    Later formats replaced this layout (name-keyed transitions and
    tables, lookahead pool of terminal-code *lists*). This helper
    reconstructs a faithful v1 document to check that such entries are
    rejected by the reader and unreachable through the cache.
    """
    from repro.automaton.tables import Accept, ErrorAction, Reduce, Shift
    from repro.grammar.emit import dump_grammar

    grammar = automaton.grammar
    tables = automaton.tables
    table = automaton.terminal_table
    terminals = [t.name for t in table.terminals]
    code_of = {t: i for i, t in enumerate(table.terminals)}

    pool_index: dict[tuple[int, ...], int] = {}
    pool: list[list[int]] = []
    states = []
    lookahead_rows = []
    for state in automaton.states:
        row = []
        for item in state.items:
            codes = tuple(
                sorted(
                    code_of[t]
                    for t in automaton.lookahead(state, item)
                )
            )
            index = pool_index.get(codes)
            if index is None:
                index = pool_index[codes] = len(pool)
                pool.append(list(codes))
            row.append(index)
        lookahead_rows.append(row)
        states.append(
            {
                "k": len(state.kernel),
                "items": [
                    [item.production.index, item.dot] for item in state.items
                ],
                "trans": [
                    [symbol.name, target.id]
                    for symbol, target in state.transitions.items()
                ],
            }
        )

    def encode_action(action):
        if isinstance(action, Shift):
            return ["s", action.state_id]
        if isinstance(action, Reduce):
            return ["r", action.production.index]
        if isinstance(action, Accept):
            return ["a"]
        assert isinstance(action, ErrorAction)
        return ["e"]

    return {
        "full_version": 1,
        "grammar": grammar.name,
        "grammar_dsl": dump_grammar(grammar),
        "terminals": terminals,
        "la_pool": pool,
        "states": states,
        "lookaheads": lookahead_rows,
        "action": [
            {t.name: encode_action(a) for t, a in row.items()}
            for row in tables.action
        ],
        "goto": [
            {nt.name: target for nt, target in row.items()}
            for row in tables.goto
        ],
        "conflicts": [
            {
                "state": c.state_id,
                "terminal": c.terminal.name,
                "kind": c.kind.value,
                "reduce": [c.reduce_item.production.index, c.reduce_item.dot],
                "other": [c.other_item.production.index, c.other_item.dot],
            }
            for c in automaton.conflicts
        ],
        "resolved_count": len(automaton.resolutions),
        "used_precedence": sorted(t.name for t in automaton.used_precedence),
    }


class TestV1Fallback:
    """Legacy v1 documents no longer decode; stale cache entries miss cleanly."""

    def test_v1_document_is_rejected(self, figure1):
        from repro.automaton.serialize import automaton_from_dict

        automaton = build_lalr(figure1)
        _ = automaton.tables
        with pytest.raises(ValueError, match="version 1"):
            automaton_from_dict(_encode_v1(automaton))

    def test_v1_cache_entry_is_a_clean_miss(self, figure1, tmp_path):
        """Pre-upgrade cache entries live under v1 fingerprints (the
        format version is folded into the key), so after the bump they
        are unreachable: a miss and a rebuild, never an error."""
        import hashlib
        import json

        from repro.grammar.emit import dump_grammar
        from repro.perf.cache import AutomatonCache, build_automaton_cached

        automaton = build_lalr(figure1)
        _ = automaton.tables
        # Recreate the v1-era key: same payload recipe, version 1.
        canonical = dump_grammar(figure1)
        v1_key = hashlib.sha256(
            f"repro.automaton/1\n{canonical}".encode()
        ).hexdigest()
        cache = AutomatonCache(tmp_path)
        (tmp_path / f"{v1_key}.json").write_text(
            json.dumps(_encode_v1(automaton))
        )

        rebuilt = build_automaton_cached(figure1, cache, "lalr")
        assert cache.misses == 1 and cache.hits == 0
        assert len(rebuilt.states) == len(automaton.states)
        # The rebuild was stored under the current key; next call hits.
        assert build_automaton_cached(figure1, cache, "lalr") is not None
        assert cache.hits == 1

    def test_unknown_version_cache_entry_is_a_clean_miss(
        self, figure1, tmp_path
    ):
        """Even a corrupt/foreign entry *at the current key* is a miss."""
        import json

        from repro.automaton.serialize import automaton_to_dict
        from repro.perf.cache import (
            AutomatonCache,
            build_automaton_cached,
            grammar_fingerprint,
        )

        automaton = build_lalr(figure1)
        _ = automaton.tables
        payload = automaton_to_dict(automaton)
        payload["full_version"] = 99
        cache = AutomatonCache(tmp_path)
        (tmp_path / f"{grammar_fingerprint(figure1)}.json").write_text(
            json.dumps(payload)
        )
        rebuilt = build_automaton_cached(figure1, cache, "lalr")
        assert cache.misses == 1
        assert len(rebuilt.states) == len(automaton.states)


class TestFormatV3:
    """The layout v3 introduced and v5 keeps: pooled int masks, flat
    coded items and transitions, interned rows."""

    def _payload(self, grammar):
        from repro.automaton.serialize import automaton_to_dict

        automaton = build_lalr(grammar)
        return automaton, automaton_to_dict(automaton)

    def test_tables_are_pooled(self, figure1):
        _, payload = self._payload(figure1)
        for interned in (payload["lookaheads"], payload["trans"]):
            assert set(interned) == {"rows", "map"}
        # Per-state transition vectors moved to the interned top-level
        # pool; the state records keep only kernel size and items.
        assert all("trans" not in state for state in payload["states"])

    def test_lookahead_pool_holds_int_masks(self, figure1):
        from repro.automaton.serialize import expand_rows

        automaton, payload = self._payload(figure1)
        assert payload["la_pool"]
        assert all(isinstance(mask, int) for mask in payload["la_pool"])
        # Pool entries are deduplicated masks over the terminal table.
        assert len(set(payload["la_pool"])) == len(payload["la_pool"])
        pool = payload["la_pool"]
        rows = expand_rows(payload["lookaheads"])
        for state, row in zip(automaton.states, rows):
            for item, pool_id in zip(state.items, row):
                node = automaton.lr0.index.id_of(state.id, item)
                assert pool[pool_id] == automaton.masks_by_id[node]

    def test_transitions_and_tables_are_flat_coded(self, figure1):
        from repro.automaton.serialize import expand_rows

        _, payload = self._payload(figure1)
        for state in payload["states"]:
            assert all(isinstance(v, int) for v in state["items"])
            assert len(state["items"]) % 2 == 0
        for table in (payload["trans"], payload["lookaheads"]):
            for row in expand_rows(table):
                assert all(isinstance(v, int) for v in row)
        for row in expand_rows(payload["trans"]):
            assert len(row) % 2 == 0

    def test_terminal_table_round_trips(self, figure1):
        from repro.automaton.serialize import automaton_from_dict

        automaton, payload = self._payload(figure1)
        loaded = automaton_from_dict(payload)
        assert loaded.terminal_table.terminals == (
            automaton.terminal_table.terminals
        )
        assert loaded.masks_by_id == automaton.masks_by_id

    def test_ielr_automaton_round_trips(self):
        from repro.automaton import build_ielr
        from repro.automaton.serialize import dump_automaton, load_automaton
        from repro.corpus import load as load_corpus

        automaton = build_ielr(load_corpus("nonlalr01"))
        text = dump_automaton(automaton)
        loaded = load_automaton(text)
        assert loaded.algorithm == "ielr"
        assert len(loaded.states) == len(automaton.states)
        assert not loaded.conflicts
        # Split states (same kernel, distinct ids) survive the round trip.
        kernels = [state.kernel for state in loaded.states]
        assert len(kernels) > len(set(kernels))
        assert dump_automaton(loaded) == text

    def test_missing_algorithm_is_rejected(self, figure1):
        from repro.automaton.serialize import (
            automaton_from_dict,
            automaton_to_dict,
        )

        automaton = build_lalr(figure1)
        payload = automaton_to_dict(automaton)
        del payload["algorithm"]
        with pytest.raises(KeyError, match="algorithm"):
            automaton_from_dict(payload)


def _encode_v3(automaton):
    """*automaton*'s current document re-shaped as a v3 one: the version
    marker and the compacted ACTION/GOTO blocks and precedence fields
    that v4 dropped (their contents do not matter to the reader)."""
    from repro.automaton.serialize import automaton_to_dict

    payload = automaton_to_dict(automaton)
    payload["full_version"] = 3
    payload["action"] = {"cols": [], "rows": [], "map": []}
    payload["goto"] = {"cols": [], "rows": [], "map": []}
    payload["resolved_count"] = 0
    payload["used_precedence"] = []
    return payload


class TestFormatV4:
    """v4 dropped the ACTION/GOTO rows, and v5 keeps them out."""

    def test_entry_holds_no_parse_tables(self, figure1):
        from repro.automaton.serialize import automaton_to_dict

        automaton = build_lalr(figure1)
        payload = automaton_to_dict(automaton)
        assert "tables" not in automaton.__dict__
        for key in ("action", "goto", "resolved_count", "used_precedence"):
            assert key not in payload

    def test_v3_document_is_rejected(self, figure1):
        from repro.automaton.serialize import automaton_from_dict

        with pytest.raises(ValueError, match="version 3"):
            automaton_from_dict(_encode_v3(build_lalr(figure1)))

    def test_v3_cache_entry_is_a_clean_miss(self, figure1, tmp_path):
        """A v3 entry sits under a v3 fingerprint, which a v4 reader
        never looks up; and were one found at the current key, it would
        be rejected and quarantined. Either way: a miss and a rebuild."""
        import hashlib
        import json

        from repro.analysis import ANALYSIS_VERSION
        from repro.grammar.emit import dump_grammar
        from repro.perf.cache import (
            AutomatonCache,
            build_automaton_cached,
            grammar_fingerprint,
        )

        document = json.dumps(_encode_v3(build_lalr(figure1)))
        v3_key = hashlib.sha256(
            f"repro.automaton/3/a{ANALYSIS_VERSION}/lalr\n"
            f"{dump_grammar(figure1)}".encode()
        ).hexdigest()
        assert v3_key != grammar_fingerprint(figure1)
        cache = AutomatonCache(tmp_path)
        (tmp_path / f"{v3_key}.json").write_text(document)
        build_automaton_cached(figure1, cache, "lalr")
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 0)

        current = tmp_path / f"{grammar_fingerprint(figure1)}.json"
        current.write_text(document)
        rebuilt = build_automaton_cached(figure1, cache, "lalr")
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 2, 1)
        assert len(rebuilt.conflicts) == 3
        assert build_automaton_cached(figure1, cache, "lalr") is not None
        assert cache.hits == 1


def _encode_v4(automaton):
    """*automaton*'s current document re-shaped as a v4 one: the version
    marker and the conflict list v5 dropped."""
    from repro.automaton.serialize import automaton_to_dict

    payload = automaton_to_dict(automaton)
    payload["full_version"] = 4
    payload["conflicts"] = []
    return payload


class TestFormatV5:
    """v5 stores the automaton alone: conflicts are derived on decode."""

    def test_version_marker_is_5(self, figure1):
        from repro.automaton.serialize import FULL_FORMAT_VERSION, automaton_to_dict

        payload = automaton_to_dict(build_lalr(figure1))
        assert FULL_FORMAT_VERSION == 5
        assert payload["full_version"] == 5
        assert payload["algorithm"] == "lalr"

    def test_entry_holds_no_conflicts(self, figure1):
        from repro.automaton.serialize import automaton_from_dict, automaton_to_dict

        automaton = build_lalr(figure1)
        payload = automaton_to_dict(automaton)
        assert "conflicts" not in payload
        assert "_conflict_pass" not in automaton.__dict__
        loaded = automaton_from_dict(payload)
        assert loaded.conflicts == automaton.conflicts and len(loaded.conflicts) == 3

    def test_v4_document_is_rejected(self, figure1):
        from repro.automaton.serialize import automaton_from_dict

        with pytest.raises(ValueError, match="version 4"):
            automaton_from_dict(_encode_v4(build_lalr(figure1)))

    def test_v4_cache_entry_is_a_clean_miss(self, figure1, tmp_path):
        """A v4 entry sits under a v4 fingerprint, which a v5 reader never
        looks up; one found at the current key is quarantined."""
        import hashlib
        import json

        from repro.analysis import ANALYSIS_VERSION
        from repro.grammar.emit import dump_grammar
        from repro.perf.cache import (
            AutomatonCache,
            build_automaton_cached,
            grammar_fingerprint,
        )

        document = json.dumps(_encode_v4(build_lalr(figure1)))
        v4_key = hashlib.sha256(
            f"repro.automaton/4/a{ANALYSIS_VERSION}/lalr\n"
            f"{dump_grammar(figure1)}".encode()
        ).hexdigest()
        assert v4_key != grammar_fingerprint(figure1)
        cache = AutomatonCache(tmp_path)
        (tmp_path / f"{v4_key}.json").write_text(document)
        build_automaton_cached(figure1, cache, "lalr")
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 0)

        current = tmp_path / f"{grammar_fingerprint(figure1)}.json"
        current.write_text(document)
        rebuilt = build_automaton_cached(figure1, cache, "lalr")
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 2, 1)
        assert len(rebuilt.conflicts) == 3
        assert len(build_automaton_cached(figure1, cache, "lalr").conflicts) == 3
        assert cache.hits == 1


class TestInternRows:
    def test_round_trip(self):
        from repro.automaton.serialize import expand_rows, intern_rows

        rows = [[1, 2], [], [1, 2], [3]]
        interned = intern_rows(rows)
        assert expand_rows(interned) == rows
        assert len(interned["rows"]) == 3
