"""Tests for equivalence-class row/column table compaction."""

import json

import pytest
from hypothesis import given, settings, strategies as st
from restore_reference import reference_restore_rows

from repro.automaton import build_lalr, compact_rows, compaction_stats, restore_rows
from repro.automaton.compaction import expand_rows, intern_rows
from repro.automaton.tables import build_tables


def as_maps(rows, stride):
    payload = stride - 1
    return [
        {
            row[i]: tuple(row[i + 1 : i + 1 + payload])
            for i in range(0, len(row), stride)
        }
        for row in rows
    ]


class TestCompactRows:
    def test_round_trip_preserves_mappings(self):
        rows = [
            [0, 5, 1, 2, 7, 3],
            [0, 5, 1, 2, 7, 3],
            [1, 9, 9],
            [],
        ]
        compacted = compact_rows(rows, 3, 4)
        restored = restore_rows(compacted, 3)
        assert as_maps(restored, 3) == as_maps(rows, 3)

    def test_identical_rows_share_pool_entry(self):
        rows = [[0, 1], [0, 1], [0, 1]]
        compacted = compact_rows(rows, 2, 1)
        assert len(compacted["rows"]) == 1
        assert compacted["map"] == [0, 0, 0]

    def test_identical_columns_share_class(self):
        # Keys 0 and 1 carry the same payload in every row: one class.
        rows = [[0, 7, 1, 7], [0, 8, 1, 8]]
        compacted = compact_rows(rows, 2, 3)
        assert compacted["cols"][0] == compacted["cols"][1]
        assert compacted["cols"][2] != compacted["cols"][0]
        assert as_maps(restore_rows(compacted, 2), 2) == as_maps(rows, 2)

    def test_empty_input(self):
        compacted = compact_rows([], 3, 0)
        assert restore_rows(compacted, 3) == []

    def test_restored_keys_ascending(self):
        rows = [[3, 1, 0, 2, 1, 3]]
        restored = restore_rows(compact_rows(rows, 2, 4), 2)
        keys = restored[0][::2]
        assert keys == sorted(keys)


@st.composite
def coded_tables(draw, stride):
    """Flat rows over a small key universe with few distinct payloads, so
    identical columns and identical rows both occur often."""
    num_keys = draw(st.integers(min_value=0, max_value=8))
    payloads = st.lists(
        st.integers(min_value=-1, max_value=2),
        min_size=stride - 1,
        max_size=stride - 1,
    )
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        keys = draw(st.permutations(range(num_keys)))
        keys = keys[: draw(st.integers(min_value=0, max_value=num_keys))]
        flat = []
        for key in keys:
            flat.append(key)
            flat.extend(draw(payloads))
        rows.append(flat)
    return rows, num_keys


class TestRestoreMatchesReference:
    """The O(entries) restorer returns what the column-probing one did."""

    @pytest.mark.parametrize("stride", [2, 3])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_reference_restorer(self, stride, data):
        rows, num_keys = data.draw(coded_tables(stride))
        compacted = compact_rows(rows, stride, num_keys)
        restored = restore_rows(compacted, stride)
        assert restored == reference_restore_rows(compacted, stride)
        assert as_maps(restored, stride) == as_maps(rows, stride)


class TestInternRows:
    def test_round_trip(self):
        rows = [[1, 2], [], [1, 2], [3]]
        interned = intern_rows(rows)
        assert expand_rows(interned) == rows
        assert len(interned["rows"]) == 3


class TestStats:
    @pytest.mark.parametrize("name", ["SQL.2", "C.2", "Java.3"])
    def test_compaction_shrinks_real_tables(self, name):
        """Compaction beats the raw flat rows on large tables, in integer
        count and in the JSON bytes a cache entry stores."""
        from repro.corpus import load

        from repro.automaton.tables import Accept, Reduce, Shift

        automaton = build_lalr(load(name))
        tables = build_tables(automaton)
        terminals = sorted({t for row in tables.action for t in row}, key=str)
        code_of = {t: code for code, t in enumerate(terminals)}
        rows = []
        for row in tables.action:
            flat = []
            for terminal in sorted(row, key=str):
                action = row[terminal]
                if isinstance(action, Shift):
                    op, arg = 0, action.state_id
                elif isinstance(action, Reduce):
                    op, arg = 1, action.production.index
                elif isinstance(action, Accept):
                    op, arg = 2, -1
                else:
                    op, arg = 3, -1
                flat.extend((code_of[terminal], op, arg))
            rows.append(flat)
        stats = compaction_stats(rows, 3, len(code_of))
        assert stats["flat_ints"] == sum(len(r) for r in rows)
        assert stats["compact_ints"] < stats["flat_ints"]
        assert stats["unique_rows"] < len(rows)
        compacted = compact_rows(rows, 3, len(code_of))
        assert len(json.dumps(compacted)) < len(json.dumps(rows))
        round_tripped = restore_rows(compacted, 3)
        assert as_maps(round_tripped, 3) == as_maps(rows, 3)
