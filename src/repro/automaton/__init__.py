"""LR automata: LR(0) skeleton, LALR(1)/LR(1)/SLR(1) lookaheads, tables."""

from repro.automaton.conflicts import Conflict, ConflictKind
from repro.automaton.ielr import (
    ConflictProvenance,
    IELRAutomaton,
    IELRState,
    ProvenanceVerdict,
    StateSplit,
    build_automaton,
    build_ielr,
    canonical_conflict_signatures,
    classify_conflicts,
    conflict_signatures,
)
from repro.automaton.items import Item, end_item, start_item
from repro.automaton.lalr import LALRAutomaton, build_lalr
from repro.automaton.lookups import ReverseLookups
from repro.automaton.serialize import (
    automaton_from_dict,
    automaton_to_dict,
    dump_automaton,
    dump_tables,
    load_automaton,
    load_tables,
    tables_from_dict,
    tables_to_dict,
)
from repro.automaton.lr0 import LR0Automaton, LR0State, closure
from repro.automaton.lr1 import LR1Automaton, LR1State, lr1_closure
from repro.automaton.slr import compute_slr_lookaheads, count_slr_conflicts
from repro.automaton.tables import (
    Accept,
    Action,
    ErrorAction,
    ParseTables,
    Reduce,
    Shift,
    build_tables,
    find_conflicts,
)

__all__ = [
    "Accept",
    "Action",
    "Conflict",
    "ConflictKind",
    "ConflictProvenance",
    "ErrorAction",
    "IELRAutomaton",
    "IELRState",
    "Item",
    "LALRAutomaton",
    "LR0Automaton",
    "LR0State",
    "LR1Automaton",
    "LR1State",
    "ParseTables",
    "ProvenanceVerdict",
    "Reduce",
    "ReverseLookups",
    "Shift",
    "StateSplit",
    "automaton_from_dict",
    "automaton_to_dict",
    "build_automaton",
    "build_ielr",
    "build_lalr",
    "build_tables",
    "canonical_conflict_signatures",
    "classify_conflicts",
    "closure",
    "conflict_signatures",
    "compute_slr_lookaheads",
    "count_slr_conflicts",
    "dump_automaton",
    "dump_tables",
    "end_item",
    "find_conflicts",
    "load_automaton",
    "load_tables",
    "lr1_closure",
    "start_item",
    "tables_from_dict",
    "tables_to_dict",
]
