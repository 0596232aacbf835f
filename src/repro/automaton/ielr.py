"""Minimal LR(1) (IELR-style) construction and conflict provenance.

LALR(1) merges every pair of canonical LR(1) states that share an LR(0)
core. The merge unions their per-item lookahead sets, and that union can
*manufacture* reduce/reduce conflicts present in **no** canonical state
— the classic "mysterious" conflicts on grammars that are LR(1) but not
LALR(1). (Shift/reduce conflicts are never manufactured: shift actions
are determined by the core, so a lookahead contributed by some member
always conflicts *inside that member* already.)

This module builds the **minimal** LR(1) automaton: start from the
by-core partition of the canonical LR(1) states (that quotient *is* the
LALR automaton) and refine it only where merging misbehaves:

* **compatibility** — a class whose merged reduce lookaheads overlap on
  a terminal not covered by any single member is repacked greedily into
  maximal compatible buckets (Pager-style weak compatibility, restricted
  to the reduce/reduce case that merging can actually break);
* **congruence** — a quotient transition must be well defined, so a
  class whose members disagree on the *class* of a successor is split by
  successor signature; a worklist alternates the two splits to fixpoint.

The quotient automaton therefore has exactly the canonical LR(1)
conflict set while staying LALR-sized away from the trouble spots:
``|LALR| <= |IELR| <= |canonical LR(1)|``, with equality on the left
whenever the grammar is LALR(1). (The left inequality assumes a fully
productive grammar: LR(1) closure drops items whose lookahead context
is empty, so on grammars with nonproductive nonterminals the quotient
can be *smaller* than the LR(0)-based LALR automaton — it prunes dead
states that can never act in a parse.) Passing ``algorithm="lr1"`` keeps the
identity partition and yields the canonical automaton through the same
assembly, so both non-default constructions share one code path.

The result is assembled as an :class:`IELRAutomaton` — a
:class:`~repro.automaton.lalr.LALRAutomaton` whose states/lookaheads
were quotient-built rather than channel-computed — so parse-table
construction, the counterexample finder, serialization, and the cache
all consume it unchanged. Split states share an LR(0) kernel, so they
use :class:`IELRState`, which hashes/compares by identity instead of by
kernel; every consumer keys collections by ``state.id``.

Provenance (:func:`classify_conflicts`) runs the comparison in the
other direction: given an LALR automaton's conflicts, each one is
labelled a *genuine LR(1) conflict* (its signature survives in the
minimal automaton) or an *LALR merge artifact* (it vanishes, and the
verdict names the states the minimal construction split).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.automaton.bitset import TerminalTable
from repro.automaton.conflicts import Conflict, ConflictKind
from repro.automaton.items import Item
from repro.automaton.lalr import LALRAutomaton, build_lalr
from repro.automaton.lr0 import LR0Automaton, LR0State, closure, predecessor_map
from repro.automaton.lr1 import LR1Automaton
from repro.automaton.tables import reduce_lookaheads
from repro.grammar import END_OF_INPUT, Grammar, Terminal, normalize_algorithm
from repro.perf import metrics

class IELRState(LR0State):
    """An LR(0)-shaped state of the minimal-LR(1) automaton.

    Split states share their kernel with their siblings, so the
    kernel-keyed ``__eq__``/``__hash__`` of :class:`LR0State` would
    collapse them; identity semantics keep them distinct. All automaton
    consumers key collections by ``state.id``, never by the state
    object, so the change is invisible outside construction.

    ``members`` records the canonical LR(1) state ids this quotient
    state merged — diagnostic only.
    """

    members: tuple[int, ...] = ()

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass(frozen=True)
class StateSplit:
    """One LR(0) core the minimal construction kept apart.

    Attributes:
        kernel: The shared LR(0) kernel of the split states.
        state_ids: Ids of the minimal-LR(1) states carrying that kernel
            (always at least two).
    """

    kernel: frozenset[Item]
    state_ids: tuple[int, ...]


class IELRAutomaton(LALRAutomaton):
    """A minimal-LR(1) (or canonical-LR(1)) automaton.

    Structurally a :class:`LALRAutomaton` — LR(0)-shaped states plus a
    per-``(state id, item)`` lookahead-mask function — whose states came
    from the refined quotient of the canonical LR(1) collection instead
    of the by-core merge. Everything downstream (tables, conflicts,
    counterexample search, serialization) works unchanged.
    """

    def __init__(
        self,
        grammar: Grammar,
        algorithm: str,
        states: list[LR0State],
        masks_by_id: list[int],
        terminal_table: TerminalTable,
        canonical_state_count: int,
    ) -> None:
        self.grammar = grammar
        self.algorithm = algorithm
        self.terminal_table = terminal_table
        self.masks_by_id = masks_by_id
        #: Size of the canonical LR(1) collection the quotient came from.
        self.canonical_state_count = canonical_state_count

        lr0 = LR0Automaton.__new__(LR0Automaton)
        lr0.grammar = grammar
        lr0.states = states
        lr0.predecessors = predecessor_map(states, states)
        self.lr0 = lr0

    @cached_property
    def splits(self) -> tuple[StateSplit, ...]:
        """Cores the construction split, each with its state ids."""
        groups: dict[frozenset[Item], list[int]] = {}
        for state in self.states:
            groups.setdefault(state.kernel, []).append(state.id)
        return tuple(
            StateSplit(kernel=kernel, state_ids=tuple(ids))
            for kernel, ids in groups.items()
            if len(ids) > 1
        )

    def split_states_for_kernel(self, kernel: frozenset[Item]) -> tuple[int, ...]:
        """Ids of the states sharing *kernel*, if that core was split."""
        for split in self.splits:
            if split.kernel == kernel:
                return split.state_ids
        return ()


# ---------------------------------------------------------------------- #
# Construction


def _reduce_masks_by_state(
    lr1: LR1Automaton, table: TerminalTable
) -> list[dict[Item, int]]:
    """Per canonical state, reduce-item lookaheads as bitmasks."""
    bit_of = table.bit_of
    result: list[dict[Item, int]] = []
    for state in lr1.states:
        masks: dict[Item, int] = {}
        for item, lookahead in state.items:
            if item.at_end and item.production.index != 0:
                masks[item] = masks.get(item, 0) | bit_of(lookahead)
        result.append(masks)
    return result


def _is_compatible(members: list[int], reduce_masks: list[dict[Item, int]]) -> bool:
    """Would merging *members* manufacture a reduce/reduce conflict?

    A merged overlap of two reduce items on terminal ``t`` is harmless
    only when some single member already carries ``t`` in **both**
    items' lookaheads (the conflict then exists canonically). Merging
    never manufactures shift/reduce conflicts — shifts are
    core-determined — so this is the complete compatibility condition.
    """
    items: list[Item] = []
    seen: set[Item] = set()
    for sid in members:
        for item in reduce_masks[sid]:
            if item not in seen:
                seen.add(item)
                items.append(item)
    if len(items) < 2:
        return True
    for first_index in range(len(items)):
        first = items[first_index]
        merged_first = 0
        for sid in members:
            merged_first |= reduce_masks[sid].get(first, 0)
        for second_index in range(first_index + 1, len(items)):
            second = items[second_index]
            merged_second = 0
            native = 0
            for sid in members:
                masks = reduce_masks[sid]
                merged_second |= masks.get(second, 0)
                native |= masks.get(first, 0) & masks.get(second, 0)
            if (merged_first & merged_second) & ~native:
                return False
    return True


def _repack(members: list[int], reduce_masks: list[dict[Item, int]]) -> list[list[int]]:
    """Greedily pack *members* into maximal compatible buckets.

    First-fit over members in canonical-id order: deterministic, and on
    the classic non-LALR grammars it reproduces the textbook minimal
    split (each trouble core splits into exactly the needed pieces).
    """
    buckets: list[list[int]] = []
    for sid in sorted(members):
        for bucket in buckets:
            bucket.append(sid)
            if _is_compatible(bucket, reduce_masks):
                break
            bucket.pop()
        else:
            buckets.append([sid])
    return buckets


def build_ielr(
    grammar: Grammar,
    algorithm: str = "ielr",
    max_lr1_states: int = 100_000,
    lr1: LR1Automaton | None = None,
) -> IELRAutomaton:
    """Build the minimal (``"ielr"``) or canonical (``"lr1"``) automaton.

    Args:
        grammar: The grammar to build for.
        algorithm: ``"ielr"`` refines the by-core partition only where
            merging manufactures conflicts; ``"lr1"`` keeps canonical
            states one-to-one.
        max_lr1_states: Bound on the canonical collection; exceeded
            bounds raise ``RuntimeError`` (as :class:`LR1Automaton`).
        lr1: An already-built canonical automaton for *grammar*, to
            share one construction across callers (the differential
            oracle builds it once and checks several properties).
    """
    algorithm = normalize_algorithm(algorithm)
    if algorithm == "lalr":
        raise ValueError("build_ielr builds 'ielr' or 'lr1'; use build_lalr")
    with metrics.span("automaton"):
        with metrics.span("ielr"):
            if lr1 is None:
                lr1 = LR1Automaton(grammar, max_states=max_lr1_states)
            automaton = _quotient(grammar, algorithm, lr1)
    metrics.count("automaton.states", len(automaton.states))
    metrics.count("ielr.canonical_states", len(lr1.states))
    metrics.count("ielr.splits", len(automaton.splits))
    return automaton


def _refine_partition(
    lr1: LR1Automaton, table: TerminalTable
) -> tuple[list[list[int] | None], list[int]]:
    """The minimal-LR(1) partition of the canonical states.

    Returns ``(classes, class_of)``: retired class slots are ``None``;
    ``class_of[sid]`` is the live class index of canonical state *sid*.
    """
    reduce_masks = _reduce_masks_by_state(lr1, table)

    by_core: dict[frozenset[Item], list[int]] = {}
    for state in lr1.states:
        by_core.setdefault(state.core(), []).append(state.id)
    # Deterministic initial order: classes sorted by their earliest
    # canonical member (state 0's core first).
    classes: list[list[int] | None] = [
        sorted(members) for members in sorted(by_core.values(), key=min)
    ]
    class_of: list[int] = [0] * len(lr1.states)
    for class_id, members in enumerate(classes):
        assert members is not None
        for sid in members:
            class_of[sid] = class_id

    def install(groups: list[list[int]], retired: int) -> None:
        classes[retired] = None
        for group in groups:
            fresh = len(classes)
            classes.append(group)
            for sid in group:
                class_of[sid] = fresh

    changed = True
    while changed:
        changed = False
        # Compatibility pass. A congruence split can reopen
        # compatibility (the member that covered an overlap natively may
        # leave the class), hence the outer fixpoint over both passes.
        for class_id in range(len(classes)):
            members = classes[class_id]
            if members is None or len(members) < 2:
                continue
            if _is_compatible(members, reduce_masks):
                continue
            install(_repack(members, reduce_masks), class_id)
            changed = True
        # Congruence pass: goto must be class-invariant.
        for class_id in range(len(classes)):
            members = classes[class_id]
            if members is None or len(members) < 2:
                continue
            symbols = sorted(lr1.states[members[0]].transitions, key=str)
            grouped: dict[tuple[int, ...], list[int]] = {}
            for sid in members:
                transitions = lr1.states[sid].transitions
                signature = tuple(
                    class_of[transitions[symbol].id] for symbol in symbols
                )
                grouped.setdefault(signature, []).append(sid)
            if len(grouped) > 1:
                install(list(grouped.values()), class_id)
                changed = True
    return classes, class_of


def _quotient(grammar: Grammar, algorithm: str, lr1: LR1Automaton) -> IELRAutomaton:
    """Assemble the quotient automaton for the chosen partition."""
    table = TerminalTable.for_grammar(grammar)

    if algorithm == "lr1":
        # Identity partition: the canonical automaton itself.
        classes: list[list[int] | None] = [[state.id] for state in lr1.states]
        class_of = list(range(len(lr1.states)))
    else:
        classes, class_of = _refine_partition(lr1, table)

    # Number the quotient states with the same traversal the LR(0)
    # builder uses (LIFO worklist, sorted symbols). When nothing splits,
    # the class graph is isomorphic to the LR(0) graph, so minimal-LR(1)
    # state ids coincide with LALR ids — diffs stay readable.
    state_ids: dict[int, int] = {}  # class index -> quotient state id
    states: list[IELRState] = []
    representative: list[int] = []  # quotient id -> a canonical member id

    starts: dict[int, Item] = {}

    def intern(class_id: int) -> tuple[IELRState, bool]:
        quotient_id = state_ids.get(class_id)
        if quotient_id is not None:
            return states[quotient_id], False
        members = classes[class_id]
        assert members is not None
        member = lr1.states[members[0]]
        kernel = frozenset(item for item, _ in member.kernel)
        state = IELRState(
            id=len(states), kernel=kernel, items=closure(grammar, kernel, starts)
        )
        state.members = tuple(members)
        state_ids[class_id] = state.id
        states.append(state)
        representative.append(members[0])
        return state, True

    start, _ = intern(class_of[0])
    worklist = [start]
    while worklist:
        state = worklist.pop()
        member = lr1.states[representative[state.id]]
        for symbol in sorted(member.transitions, key=str):
            target, fresh = intern(class_of[member.transitions[symbol].id])
            state.transitions[symbol] = target
            if fresh:
                worklist.append(target)

    bit_of = table.bit_of
    masks: list[int] = []
    for state in states:
        # Filled in ``state.items`` order, which is id order.
        item_masks: dict[Item, int] = {item: 0 for item in state.items}
        for sid in state.members:
            for item, lookahead in lr1.states[sid].items:
                item_masks[item] |= bit_of(lookahead)
        masks.extend(item_masks.values())

    return IELRAutomaton(
        grammar=grammar,
        algorithm=algorithm,
        states=list(states),
        masks_by_id=masks,
        terminal_table=table,
        canonical_state_count=len(lr1.states),
    )


def build_automaton(
    grammar: Grammar,
    algorithm: str | None = None,
    max_lr1_states: int = 100_000,
) -> LALRAutomaton:
    """Build *grammar*'s automaton with the requested construction.

    *algorithm* defaults to the grammar's own ``table_algorithm``
    (the DSL ``%algorithm`` directive, ``"lalr"`` when absent).
    """
    algorithm = normalize_algorithm(
        algorithm if algorithm is not None else grammar.table_algorithm
    )
    if algorithm == "lalr":
        return build_lalr(grammar)
    return build_ielr(grammar, algorithm=algorithm, max_lr1_states=max_lr1_states)


# ---------------------------------------------------------------------- #
# Conflict signatures and provenance


#: State-independent conflict identity used to compare constructions:
#: ``("rr", terminal name, {(prod index, dot), (prod index, dot)})`` or
#: ``("sr", terminal name, (prod index, dot))`` — the shift side of a
#: shift/reduce conflict is determined by the terminal, so only the
#: reduce item identifies it.
ConflictSignature = tuple

def _item_key(item: Item) -> tuple[int, int]:
    return (item.production.index, item.dot)


def signature_of(conflict: Conflict) -> ConflictSignature:
    """The state-independent signature of a :class:`Conflict`."""
    if conflict.kind is ConflictKind.REDUCE_REDUCE:
        return (
            "rr",
            conflict.terminal.name,
            frozenset({_item_key(conflict.reduce_item), _item_key(conflict.other_item)}),
        )
    return ("sr", conflict.terminal.name, _item_key(conflict.reduce_item))


def conflict_signatures(automaton: LALRAutomaton) -> frozenset[ConflictSignature]:
    """Raw (pre-precedence) conflict signatures of an automaton.

    Works for any LALR-shaped automaton — the by-core merge or a
    quotient from this module — by consulting the lookahead-mask
    function directly, so silently precedence-resolved conflicts still
    count. This is the set the differential oracle compares across
    constructions.
    """
    table = automaton.terminal_table
    iter_mask = table.iter_mask
    not_end = ~table.bit_of(END_OF_INPUT)
    signatures: set[ConflictSignature] = set()
    for _state, reduce_items, masks, shift_mask in reduce_lookaheads(automaton):
        shift_mask &= not_end
        for index, item in enumerate(reduce_items):
            for terminal in iter_mask(masks[index] & shift_mask):
                signatures.add(("sr", terminal.name, _item_key(item)))
            for other_index in range(index + 1, len(reduce_items)):
                overlap = masks[index] & masks[other_index]
                if not overlap:
                    continue
                pair = frozenset(
                    {_item_key(item), _item_key(reduce_items[other_index])}
                )
                for terminal in iter_mask(overlap):
                    signatures.add(("rr", terminal.name, pair))
    return frozenset(signatures)


def canonical_conflict_signatures(lr1: LR1Automaton) -> frozenset[ConflictSignature]:
    """Raw conflict signatures of a canonical LR(1) automaton."""
    signatures: set[ConflictSignature] = set()
    for state in lr1.states:
        reducers: dict[Terminal, list[Item]] = {}
        for item, lookahead in state.items:
            if item.at_end and item.production.index != 0:
                items = reducers.setdefault(lookahead, [])
                if item not in items:
                    items.append(item)
        for terminal, items in reducers.items():
            shifted = terminal in state.transitions and terminal != END_OF_INPUT
            for index, item in enumerate(items):
                if shifted:
                    signatures.add(("sr", terminal.name, _item_key(item)))
                for other in items[index + 1 :]:
                    signatures.add(
                        (
                            "rr",
                            terminal.name,
                            frozenset({_item_key(item), _item_key(other)}),
                        )
                    )
    return frozenset(signatures)


class ProvenanceVerdict(enum.Enum):
    """Why a conflict exists, relative to the construction lattice."""

    GENUINE = "genuine LR(1) conflict"
    MERGE_ARTIFACT = "LALR merge artifact"
    UNKNOWN = "undetermined"


@dataclass(frozen=True)
class ConflictProvenance:
    """Provenance verdict attached to one conflict report.

    Attributes:
        verdict: Genuine, merge artifact, or undetermined (canonical
            bound exceeded).
        lalr_state: The LALR conflict state the verdict is about.
        split_states: For merge artifacts, the minimal-LR(1) state ids
            the conflict core was split into.
        detail: One-line human explanation.
    """

    verdict: ProvenanceVerdict
    lalr_state: int | None = None
    split_states: tuple[int, ...] = field(default=())
    detail: str = ""

    def describe(self) -> str:
        if self.detail:
            return f"{self.verdict.value} — {self.detail}"
        return self.verdict.value


def classify_conflicts(
    automaton: LALRAutomaton,
    minimal: IELRAutomaton | None,
    max_lr1_states: int,
) -> dict[Conflict, ConflictProvenance]:
    """Label each of *automaton*'s conflicts genuine or merge artifact.

    For an LALR automaton, each conflict's signature is looked up in
    *minimal*, the grammar's minimal-LR(1) automaton: present means the
    conflict survives canonical LR(1); absent means core merging
    manufactured it, and the verdict names the states the minimal
    construction split. Automata already built with a conflict-exact
    construction (``ielr``/``lr1``) classify every conflict as genuine
    outright. ``minimal=None`` for an LALR automaton means the canonical
    collection exceeded *max_lr1_states*: every conflict gets an UNKNOWN
    verdict instead of an error. This function builds nothing;
    :attr:`repro.lint.context.LintContext.provenance` supplies *minimal*.
    """
    conflicts = automaton.conflicts
    if not conflicts:
        return {}
    if automaton.algorithm != "lalr":
        detail = "construction has exact LR(1) conflict behavior"
        return {
            conflict: ConflictProvenance(
                verdict=ProvenanceVerdict.GENUINE,
                lalr_state=conflict.state_id,
                detail=detail,
            )
            for conflict in conflicts
        }
    if minimal is None:
        detail = (
            f"canonical LR(1) collection exceeds {max_lr1_states} states; "
            "provenance not computed"
        )
        return {
            conflict: ConflictProvenance(
                verdict=ProvenanceVerdict.UNKNOWN,
                lalr_state=conflict.state_id,
                detail=detail,
            )
            for conflict in conflicts
        }
    genuine = conflict_signatures(minimal)
    result: dict[Conflict, ConflictProvenance] = {}
    for conflict in conflicts:
        if signature_of(conflict) in genuine:
            result[conflict] = ConflictProvenance(
                verdict=ProvenanceVerdict.GENUINE,
                lalr_state=conflict.state_id,
                detail="the conflict survives canonical LR(1); "
                "no state splitting removes it",
            )
            continue
        kernel = automaton.states[conflict.state_id].kernel
        split_ids = minimal.split_states_for_kernel(kernel)
        if split_ids:
            states_text = " and ".join(f"#{sid}" for sid in split_ids)
            detail = (
                f"state #{conflict.state_id} splits into minimal-LR(1) "
                f"states {states_text}; the conflict vanishes"
            )
        else:
            detail = "the conflict vanishes under minimal LR(1)"
        result[conflict] = ConflictProvenance(
            verdict=ProvenanceVerdict.MERGE_ARTIFACT,
            lalr_state=conflict.state_id,
            split_states=split_ids,
            detail=detail,
        )
    return result
