"""Content-addressed on-disk cache for LALR automatons.

Automaton construction — the LR(0) collection plus the lookahead
fixpoint — dominates start-up cost for the larger corpus grammars
(~0.3 s for Java.1), and it is repeated by every corpus sweep, every
fuzz iteration that re-examines a surviving grammar, and every CLI
invocation. This cache keys the serialized full-automaton format
(:mod:`repro.automaton.serialize`) on a **content hash of the grammar
itself**, so:

* any edit to the grammar — productions, start symbol, precedence —
  changes the key and forces a rebuild (no staleness by construction);
* renaming a grammar file or moving it between machines still hits,
  because the key ignores names and paths;
* bumping ``FULL_FORMAT_VERSION`` invalidates every entry at once.

The fingerprint hashes the grammar's canonical DSL emission
(:func:`repro.grammar.emit.dump_grammar`), which normalises whitespace
and comments while round-tripping production order, the start symbol,
and precedence declarations — exactly the inputs automaton construction
depends on.

Writes are atomic (temp file + :func:`os.replace`) so a crashed or
concurrent writer can never leave a half-written entry; unreadable or
corrupt entries are treated as misses and rebuilt. Hits and misses are
mirrored to the metrics layer (``cache.hit`` / ``cache.miss``) when
profiling is active.

Usage::

    from repro.perf.cache import AutomatonCache, build_automaton_cached

    cache = AutomatonCache("~/.cache/repro")
    automaton = build_automaton_cached(grammar, cache, "lalr")  # builds, caches
    automaton = build_automaton_cached(grammar, cache, "lalr")  # decodes (~5x faster)
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from pathlib import Path
from typing import Any

from repro.analysis import ANALYSIS_VERSION, ConflictAmbiguity
from repro.automaton.conflicts import Conflict
from repro.automaton.lalr import LALRAutomaton
from repro.automaton.serialize import (
    FULL_FORMAT_VERSION,
    automaton_from_dict,
    dump_automaton,
)
from repro.grammar import Grammar
from repro.grammar.emit import dump_grammar
from repro.perf import metrics

#: Default cache directory; overridable via the ``REPRO_CACHE_DIR``
#: environment variable (checked by :func:`default_cache_dir`).
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro" / "automatons"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/...``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override)
    return DEFAULT_CACHE_DIR


def grammar_fingerprint(grammar: Grammar, algorithm: str = "lalr") -> str:
    """A content hash identifying *grammar* for caching purposes.

    Two grammars share a fingerprint iff their canonical DSL emissions
    match (same productions in the same order, same start symbol, same
    precedence declarations) **and** the same table construction is
    requested — the minimal/canonical LR(1) automatons of one grammar
    are distinct cache entries from its LALR automaton. The grammar's
    *name* is deliberately excluded — it is diagnostic metadata and does
    not affect the automaton. The serialization format version and the
    ambiguity-analysis version are folded in so format or walk-semantics
    changes self-invalidate old entries (including memoized verdicts).
    """
    return _fingerprint(dump_grammar(grammar), algorithm)


def _fingerprint(canonical: str, algorithm: str) -> str:
    payload = (
        f"repro.automaton/{FULL_FORMAT_VERSION}"
        f"/a{ANALYSIS_VERSION}/{algorithm}\n{canonical}".encode()
    )
    return hashlib.sha256(payload).hexdigest()


#: Quarantined corrupt entries kept per cache directory (oldest pruned).
MAX_QUARANTINED = 8

#: The named blocks an entry may carry after the automaton, each with
#: the key of its per-conflict list: the walk verdicts
#: (:attr:`~repro.lint.context.LintContext.ambiguity_verdicts`) and the
#: decided explanations (:class:`~repro.core.finder.CounterexampleFinder`).
BLOCKS = {"ambiguity": "verdicts", "explanations": "explanations"}


def _conflict_fields(conflict: Conflict) -> dict[str, Any]:
    """The fields naming *conflict* in every block entry."""
    items = (conflict.reduce_item, conflict.other_item)
    return {
        "state": conflict.state_id,
        "terminal": conflict.terminal.name,
        "items": [n for item in items for n in (item.production.index, item.dot)],
    }


def _blocks_text(blocks: dict[str, Any]) -> str:
    """The ``,"name":{...}`` members *blocks* add at the end of an entry."""
    return "".join(
        f',"{name}":{json.dumps(block, separators=(",", ":"))}'
        for name, block in blocks.items()
    )


class AutomatonCache:
    """Directory of serialized automatons keyed by grammar fingerprint.

    Safe for concurrent multi-process use (the service's worker pool
    shares one directory): writes land under unique temp names and are
    published with :func:`os.replace`, so two workers racing to store
    the same fingerprint both succeed — last writer wins with identical
    content, and a reader never observes a torn entry. Any filesystem
    race (directory swept away, replace denied) degrades to a benign
    miss instead of failing the analysis. Corrupt entries are moved to a
    ``*.corrupt-*`` quarantine (bounded, oldest evicted) so a poisoned
    file cannot be re-parsed on every request, and eviction/clearing
    never mistakes quarantine files for live entries.
    """

    def __init__(self, directory: str | os.PathLike[str] | None = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.write_failures = 0
        #: The entry path, text and named blocks (:data:`BLOCKS`, in
        #: entry order) behind each automaton this cache decoded or
        #: stored, so the block calls neither re-read nor re-parse it.
        self._entries: weakref.WeakKeyDictionary[
            LALRAutomaton, tuple[Path, str, dict[str, Any]]
        ] = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #

    def _path_for(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    def _atomic_write(self, path: Path, text: str) -> bool:
        """Publish *text* at *path* via a unique temp name + ``os.replace``.

        Returns ``False`` (benign failure, counted) instead of raising on
        OS-level races: a concurrently removed directory or a denied
        replace must cost a rebuild next time, never the current run.
        """
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
        except OSError:
            self.write_failures += 1
            metrics.count("cache.write_failed")
            return False
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except OSError:
            self.write_failures += 1
            metrics.count("cache.write_failed")
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return False
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return True

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is not re-parsed every read.

        The quarantine name carries the pid so concurrent quarantiners
        cannot collide; the set is bounded by :data:`MAX_QUARANTINED`
        (oldest evicted first). Every step tolerates concurrent movers.
        """
        target = path.with_name(f"{path.name}.corrupt-{os.getpid()}")
        suffix = 0
        try:
            while target.exists():
                suffix += 1
                target = path.with_name(f"{path.name}.corrupt-{os.getpid()}.{suffix}")
            os.replace(path, target)
        except OSError:
            return
        self.quarantined += 1
        metrics.count("cache.quarantined")
        try:
            backlog = sorted(
                self.directory.glob("*.corrupt-*"),
                key=lambda entry: entry.stat().st_mtime,
            )
        except OSError:
            return
        for stale in backlog[: max(0, len(backlog) - MAX_QUARANTINED)]:
            try:
                stale.unlink()
            except OSError:
                pass

    def get(
        self,
        grammar: Grammar,
        algorithm: str = "lalr",
        canonical: str | None = None,
    ) -> LALRAutomaton | None:
        """The cached automaton for *grammar*, or ``None`` on a miss.

        Corrupt, truncated, or unreadable entries count as misses; the
        offending file is quarantined (renamed aside) so it is rebuilt
        once instead of re-parsed on every request. An entry whose
        recorded construction algorithm disagrees with the requested one
        (hash collision or hand-edited file) is also a miss. *canonical*
        is ``dump_grammar(grammar)`` when the caller already has it.
        """
        if canonical is None:
            canonical = dump_grammar(grammar)
        path = self._path_for(_fingerprint(canonical, algorithm))
        try:
            text = path.read_text()
        except OSError:
            self._miss()
            return None
        try:
            with metrics.span("cache/decode"):
                document = json.loads(text)
                # An entry holding the caller's exact DSL text is decoded
                # against the caller's Grammar instance, so identity-based
                # consumers (reports, registries) see the object they
                # passed and productions keep their source lines. Any
                # other entry (hash collision, hand-edited file) keeps
                # the grammar embedded in it.
                own = (
                    grammar
                    if isinstance(document, dict)
                    and document.get("grammar_dsl") == canonical
                    else None
                )
                automaton = automaton_from_dict(document, own)
        except (ValueError, KeyError, IndexError, TypeError):
            self._quarantine(path)
            self._miss()
            return None
        if automaton.algorithm != algorithm:
            self._miss()
            return None
        self.hits += 1
        metrics.count("cache.hit")
        blocks = {name: document[name] for name in document if name in BLOCKS}
        self._entries[automaton] = (path, text, blocks)
        return automaton

    def put(
        self,
        grammar: Grammar,
        automaton: LALRAutomaton,
        canonical: str | None = None,
    ) -> Path:
        """Store *automaton* under *grammar*'s fingerprint (atomically).

        Concurrent writers of the same fingerprint serialize identical
        content, so whichever ``os.replace`` lands last is as good as the
        first; an OS-level race is absorbed as a benign non-write.
        *canonical* is ``dump_grammar(grammar)`` when the caller already
        has it.
        """
        if canonical is None:
            canonical = dump_grammar(grammar)
        path = self._path_for(_fingerprint(canonical, automaton.algorithm))
        with metrics.span("cache/encode"):
            text = dump_automaton(automaton, canonical)
        self._atomic_write(path, text)
        self._entries[automaton] = (path, text, {})
        return path

    def get_block(
        self,
        grammar: Grammar,
        automaton: LALRAutomaton,
        name: str,
        header: dict[str, Any],
    ) -> list[Any] | None:
        """The per-conflict entries of the entry's *name* block, or ``None``.

        Blocks (:data:`BLOCKS`) are extra keys of the entry document,
        ignored by the serialization reader. For an automaton this cache
        decoded or stored, the block comes from that document, else from
        disk. It is a miss unless it has every *header* field and one
        entry (or ``null``) per conflict of *automaton*, each naming that
        conflict's state, terminal and items.
        """
        entry = self._entries.get(automaton)
        if entry is not None:
            block = entry[2].get(name)
        else:
            path = self._path_for(grammar_fingerprint(grammar, automaton.algorithm))
            try:
                document = json.loads(path.read_text())
            except (OSError, ValueError):
                return None
            block = document.get(name) if isinstance(document, dict) else None
        if not isinstance(block, dict) or any(
            block.get(key) != value for key, value in header.items()
        ):
            return None
        entries = block.get(BLOCKS[name])
        conflicts = automaton.conflicts
        if not isinstance(entries, list) or len(entries) != len(conflicts):
            return None
        for conflict, item in zip(conflicts, entries):
            if item is None:
                continue
            if not isinstance(item, dict) or any(
                item.get(key) != value
                for key, value in _conflict_fields(conflict).items()
            ):
                return None
        return entries

    def put_block(
        self,
        grammar: Grammar,
        automaton: LALRAutomaton,
        name: str,
        header: dict[str, Any],
        entries: list[dict[str, Any] | None],
    ) -> Path | None:
        """Store *automaton*'s entry with a *name* block: *header* plus
        one of *entries* (or ``None``) per conflict, in conflict order.

        The block is spliced, without parsing, into the entry text this
        cache decoded or stored for *automaton* (else the automaton
        serialized afresh), in place of an older block of that name or
        after the others. Returns ``None`` when nothing was written.
        """
        conflicts = automaton.conflicts
        block = {
            **header,
            BLOCKS[name]: [
                None if item is None else {**_conflict_fields(conflict), **item}
                for conflict, item in zip(conflicts, entries)
            ],
        }
        entry = self._entries.get(automaton)
        if entry is not None:
            path, text, blocks = entry
        else:
            canonical = dump_grammar(grammar)
            path = self._path_for(_fingerprint(canonical, automaton.algorithm))
            with metrics.span("cache/encode"):
                text, blocks = dump_automaton(automaton, canonical), {}
        updated = {**blocks, name: block}
        tail = _blocks_text(blocks) + "}"
        if text.endswith(tail):
            # The blocks close the entry, where re-serializing the parsed
            # document with the new block would put them.
            text = text[: len(text) - len(tail)] + _blocks_text(updated) + "}"
        else:
            document = json.loads(text)
            document[name] = block
            text = json.dumps(document, separators=(",", ":"))
        if not self._atomic_write(path, text):
            return None
        if entry is not None:
            self._entries[automaton] = (path, text, updated)
        return path

    def get_verdicts(
        self, grammar: Grammar, automaton: LALRAutomaton
    ) -> dict[Conflict, ConflictAmbiguity] | None:
        """Memoized ambiguity verdicts for *automaton*, or ``None``.

        Read from the entry's ``"ambiguity"`` block (:meth:`get_block`);
        a block from a different analysis version is a miss.
        """
        entries = self.get_block(
            grammar, automaton, "ambiguity", {"analysis_version": ANALYSIS_VERSION}
        )
        if entries is None or None in entries:
            return None
        terminals = {t.name: t for t in automaton.grammar.terminals}
        try:
            verdicts = {
                conflict: ConflictAmbiguity.from_json(item, terminals)
                for conflict, item in zip(automaton.conflicts, entries)
            }
        except (KeyError, TypeError, ValueError):
            return None
        metrics.count("cache.verdicts.hit")
        return verdicts

    def put_verdicts(
        self,
        grammar: Grammar,
        automaton: LALRAutomaton,
        verdicts: dict[Conflict, ConflictAmbiguity],
    ) -> Path | None:
        """Store *automaton*'s entry with *verdicts* as its ambiguity block.

        Requires a complete verdict map (one per reported conflict);
        partial maps are not stored. Returns ``None`` when nothing was
        written (see :meth:`put_block`).
        """
        conflicts = automaton.conflicts
        if any(conflict not in verdicts for conflict in conflicts):
            return None
        return self.put_block(
            grammar,
            automaton,
            "ambiguity",
            {"analysis_version": ANALYSIS_VERSION},
            [verdicts[conflict].to_json() for conflict in conflicts],
        )

    def clear(self) -> int:
        """Delete every cache entry (and quarantine file); returns the
        number of live entries removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for entry in self.directory.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        for entry in self.directory.glob("*.corrupt-*"):
            try:
                entry.unlink()
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------ #

    def _miss(self) -> None:
        self.misses += 1
        metrics.count("cache.miss")

    def info(self) -> dict[str, int]:
        """Hit/miss/quarantine counters and the entries on disk."""
        entries = quarantined = 0
        if self.directory.is_dir():
            entries = sum(1 for _ in self.directory.glob("*.json"))
            quarantined = sum(1 for _ in self.directory.glob("*.corrupt-*"))
        return {
            "entries": entries,
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": quarantined,
            "write_failures": self.write_failures,
        }


def build_automaton_cached(
    grammar: Grammar,
    cache: AutomatonCache | None,
    algorithm: str | None = None,
) -> LALRAutomaton:
    """:func:`~repro.automaton.ielr.build_automaton` through an optional cache.

    With ``cache=None`` this is exactly ``build_automaton`` — callers
    can thread an optional cache without branching. *algorithm* defaults
    to the grammar's own ``table_algorithm``. On a miss the freshly
    built automaton is stored before being returned. The grammar's
    canonical DSL is emitted once, for the lookup key, the store key and
    the entry.
    """
    from repro.automaton.ielr import build_automaton
    from repro.grammar import normalize_algorithm

    algorithm = normalize_algorithm(
        algorithm if algorithm is not None else grammar.table_algorithm
    )
    if cache is None:
        return build_automaton(grammar, algorithm)
    canonical = dump_grammar(grammar)
    cached = cache.get(grammar, algorithm, canonical=canonical)
    if cached is not None:
        return cached
    automaton = build_automaton(grammar, algorithm)
    cache.put(grammar, automaton, canonical=canonical)
    return automaton

