"""Equivalence-class row/column compaction for flat coded tables.

The full-automaton serialization (:mod:`repro.automaton.serialize`)
stores ACTION/GOTO as one flat coded row per state. Real tables are
highly redundant — many states share identical action rows, and many
terminals behave identically in every state (the row/column
equivalence-class compression of "Parsing methods streamlined"). This
module exploits both:

* **columns** — keys (terminal or symbol codes) whose column vector over
  all states is identical collapse into one *column class*; each row is
  re-keyed by class id;
* **rows** — re-keyed rows that became identical are interned into a
  unique-row pool; each state stores only its pool index.

The encoding is loss-free with respect to the *mapping* each row
represents: :func:`restore_rows` returns rows with exactly the original
``key -> payload`` entries, emitted in ascending key order. Both the
serializer (format v3) and therefore every content-addressed cache
entry (:mod:`repro.perf.cache`) go through this encoding; the bench
report records each entry's size.

Rows are flat ``[key, payload..., key, payload...]`` integer lists with
a fixed *stride* (entry width): stride 3 for ACTION rows
(``terminal code, opcode, argument``), stride 2 for GOTO rows
(``symbol code, target state``).
"""

from __future__ import annotations

from typing import Any


def compact_rows(
    rows: list[list[int]], stride: int, num_keys: int
) -> dict[str, Any]:
    """Compact flat coded *rows* by column classes and row interning.

    Args:
        rows: One flat ``[key, payload...]`` list per state; each entry
            is *stride* integers, keys unique within a row and below
            *num_keys*.
        stride: Entry width, including the key.
        num_keys: Size of the key universe (column count).

    Returns:
        A JSON-compatible dict with ``"cols"`` (key -> column-class id),
        ``"rows"`` (the unique re-keyed row pool), and ``"map"`` (state
        -> pool index).
    """
    payload = stride - 1
    row_maps: list[dict[int, tuple[int, ...]]] = []
    for flat in rows:
        entries: dict[int, tuple[int, ...]] = {}
        for i in range(0, len(flat), stride):
            entries[flat[i]] = tuple(flat[i + 1 : i + 1 + payload])
        row_maps.append(entries)

    class_of_column: dict[tuple, int] = {}
    cols: list[int] = []
    for key in range(num_keys):
        column = tuple(entries.get(key) for entries in row_maps)
        class_id = class_of_column.setdefault(column, len(class_of_column))
        cols.append(class_id)

    pool: list[list[int]] = []
    pool_index: dict[tuple[int, ...], int] = {}
    row_ids: list[int] = []
    for entries in row_maps:
        # Keys of one column class carry identical payloads by
        # construction, so re-keying by class id cannot collide.
        by_class = {cols[key]: value for key, value in entries.items()}
        flat: list[int] = []
        for class_id in sorted(by_class):
            flat.append(class_id)
            flat.extend(by_class[class_id])
        signature = tuple(flat)
        row_id = pool_index.get(signature)
        if row_id is None:
            row_id = pool_index[signature] = len(pool)
            pool.append(flat)
        row_ids.append(row_id)

    return {"cols": cols, "rows": pool, "map": row_ids}


def restore_rows(compacted: dict[str, Any], stride: int) -> list[list[int]]:
    """Inverse of :func:`compact_rows`.

    Returns one flat row per state with the original ``key -> payload``
    entries, keys ascending. ``cols`` is inverted into class -> keys
    once and each pooled row expanded once, so the work is proportional
    to the entries restored, not to states × columns. States sharing a
    pooled row share one list object.
    """
    payload = stride - 1
    cols: list[int] = compacted["cols"]
    keys_of_class: dict[int, list[int]] = {}
    for key, class_id in enumerate(cols):
        keys_of_class.setdefault(class_id, []).append(key)

    expanded: list[list[int]] = []
    for pooled in compacted["rows"]:
        entries: list[tuple[int, list[int]]] = []
        for i in range(0, len(pooled), stride):
            entry = pooled[i + 1 : i + 1 + payload]
            for key in keys_of_class[pooled[i]]:
                entries.append((key, entry))
        entries.sort()  # keys are unique within a row
        flat: list[int] = []
        for key, entry in entries:
            flat.append(key)
            flat.extend(entry)
        expanded.append(flat)
    return [expanded[row_id] for row_id in compacted["map"]]


def intern_rows(rows: list[list[int]]) -> dict[str, Any]:
    """Pure row interning: pool unique rows, map each state to its index.

    Used for per-state vectors whose keys are already dense (lookahead
    pool ids, transition pairs) where column classing buys nothing but
    whole-row duplication is common — e.g. the many single-item states
    sharing one lookahead pattern.
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


def compaction_stats(
    rows: list[list[int]], stride: int, num_keys: int
) -> dict[str, int]:
    """Size accounting for one table: flat vs compacted integer counts."""
    compacted = compact_rows(rows, stride, num_keys)
    flat_ints = sum(len(row) for row in rows)
    compact_ints = (
        len(compacted["cols"])
        + len(compacted["map"])
        + sum(len(row) for row in compacted["rows"])
    )
    return {
        "flat_ints": flat_ints,
        "compact_ints": compact_ints,
        "unique_rows": len(compacted["rows"]),
        "column_classes": len(set(compacted["cols"])),
    }
