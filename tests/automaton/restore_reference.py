"""Reference row restorer: the column-probing inverse of ``compact_rows``.

This is the original :func:`repro.automaton.compaction.restore_rows`,
kept as the oracle for the current one. For every state it probes every
column's class in the state's pooled row — O(states × columns) lookups —
and emits the entries found, keys ascending. The current restorer
inverts the column classes once and expands each pooled row once; the
property tests require both to return equal rows.
"""


def reference_restore_rows(compacted, stride):
    payload = stride - 1
    cols = compacted["cols"]
    pool = compacted["rows"]
    expanded = []
    for flat in pool:
        by_class = {}
        for i in range(0, len(flat), stride):
            by_class[flat[i]] = flat[i + 1 : i + 1 + payload]
        expanded.append(by_class)

    rows = []
    for row_id in compacted["map"]:
        by_class = expanded[row_id]
        flat = []
        for key, class_id in enumerate(cols):
            entry = by_class.get(class_id)
            if entry is not None:
                flat.append(key)
                flat.extend(entry)
        rows.append(flat)
    return rows
