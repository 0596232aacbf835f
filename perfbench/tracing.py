"""Spans around the public functions of each layer, recorded from outside.

The traced run wraps the functions listed in :data:`TARGETS` — it adds
nothing inside ``src/repro``. Every span records a name, start, end and
parent span; spans of one request (a CLI invocation or a service job)
share a trace ID and spans of one conflict share a conflict ID. Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

from common import percentile

# (module, attribute, span name); "Class.method" attributes patch the
# class, plain attributes patch the function in every loaded repro module
# that imported it by name.
TARGETS = (
    ("repro.core.report", "safe_format_report", "cli.render"),
    ("repro.grammar.dsl", "load_grammar", "grammar.load"),
    ("repro.grammar.analysis", "GrammarAnalysis.__init__", "grammar.analysis"),
    ("repro.automaton.lr0", "LR0Automaton.__init__", "automaton.lr0"),
    ("repro.automaton.lalr", "compute_lalr_lookahead_masks", "automaton.lookaheads"),
    ("repro.automaton.tables", "build_tables", "automaton.tables"),
    ("repro.perf.cache", "AutomatonCache.put", "cache.encode"),
    ("repro.perf.cache", "AutomatonCache.get", "cache.decode"),
    ("repro.core.finder", "CounterexampleFinder.explain", "core.explain"),
    ("repro.core.lasg", "LookaheadSensitiveGraph.shortest_path", "core.lasg"),
    ("repro.core.search", "UnifyingSearch.run", "core.search"),
    ("repro.parsing.earley", "EarleyParser.is_ambiguous_form", "core.verify"),
    ("repro.core.nonunifying", "NonunifyingBuilder.build", "core.nonunifying"),
    ("repro.analysis.walk", "analyze_conflicts", "analysis.walk"),
    ("repro.service.worker", "run_analysis", "service.worker"),
)

#: Layers named by the self-time metrics (``<layer>.self_s``).
LAYERS = ("cli", "grammar", "automaton", "cache", "core", "analysis", "service")

#: Per-layer metrics measured only where the service runs.
SERVICE_METRICS = (
    "service.accept_s",
    "service.overhead_s",
    "service.worker_s",
    "service.fork_s",
    "service.journal_append_s",
    "service.journal_bytes_per_job",
    "service.queue_depth_max",
)

#: Counters the program already bumps through ``repro.perf.metrics.count``
#: that the tracer copies, whether or not a program collector is active.
TAPPED_COUNTERS = frozenset(
    {"lasg.vertices.materialized", "lasg.successors.hit", "lasg.successors.miss"}
)


def preload() -> None:
    """Import every traced module, so no timed call pays a first import."""
    for module_name, _, _ in TARGETS:
        importlib.import_module(module_name)


class Tracer:
    """In-memory span store plus the counts gathered at span boundaries."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, trace ID, conflict ID]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self.trace_id: str | None = None
        self._conflict_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.trace_id, self._conflict_id]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def request(self, trace_id: str, name: str) -> "_Request":
        """A root span for one request; nested spans share its trace ID."""
        return _Request(self, trace_id, name)

    # ------------------------------------------------------------------ #
    # Installing the wrappers

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer_conflict = tracer._conflict_id
            if name == "core.explain":
                conflict = args[1]
                tracer._conflict_id = (
                    f"{tracer.trace_id}#{conflict.state_id}:{conflict.terminal.name}"
                )
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
                tracer._conflict_id = outer_conflict
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        preload()
        from repro.perf import metrics

        count = metrics.count
        tracer = self

        @functools.wraps(count)
        def tapped_count(name: str, n: int = 1) -> None:
            if name in TAPPED_COUNTERS:
                tracer.add(name, n)
            count(name, n)

        self._restore.append((metrics, "count", count))
        metrics.count = tapped_count
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                if getattr(loaded, attribute, None) is original:
                    self._restore.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # ------------------------------------------------------------------ #
    # Reading the spans back

    def durations(self, name: str) -> list[float]:
        """Durations of the *name* spans not nested in another *name* span."""
        spans = self.spans
        out = []
        for span in spans:
            if span[0] != name or span[2] is None:
                continue
            parent = span[3]
            while parent is not None and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent is None:
                out.append(span[2] - span[1])
        return out

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None and span[2] is not None:
                child_time[span[3]] += span[2] - span[1]
        layers = dict.fromkeys(LAYERS, 0.0)
        for index, span in enumerate(self.spans):
            if span[2] is None:
                continue
            layer = span[0].split(".")[0]
            own = (span[2] - span[1]) - child_time[index]
            layers[layer] += own
        return layers

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        fields = ("name", "start", "end", "parent", "trace", "conflict")
        document = {
            "spans": [dict(zip(fields, span)) for span in self.spans],
            "counts": self.counts,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))


class _Request:
    def __init__(self, tracer: Tracer, trace_id: str, name: str) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.name = name

    def __enter__(self) -> "_Request":
        self.outer = self.tracer.trace_id
        self.tracer.trace_id = self.trace_id
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.tracer.close(self.index)
        self.tracer.trace_id = self.outer


# ---------------------------------------------------------------------- #
# Counts taken at span boundaries, from arguments and return values


def _after_lr0(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("automaton.states", len(args[0].states))


def _after_lookaheads(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("automaton.lookahead_keys", len(result))


def _after_tables(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("automaton.conflicts", len(result.conflicts))


def _after_put(tracer: Tracer, args: tuple, result: Any) -> None:
    try:
        tracer.add("cache.entry_bytes", result.stat().st_size)
    except OSError:
        pass


def _after_get(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("cache.gets")
    if result is not None:
        tracer.add("cache.hits")


def _after_search(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("core.searches")
    tracer.add("core.search_configs", result.stats.explored)
    if result.counterexample is not None:
        tracer.add("core.searches_unified")


def _after_verify(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("core.verifications")
    if result:
        tracer.add("core.verified")


def _after_walk(tracer: Tracer, args: tuple, result: Any) -> None:
    for verdict in result.values():
        tracer.add("analysis.verdicts")
        if verdict.verdict.value != "inconclusive":
            tracer.add("analysis.decided")


_AFTER: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "automaton.lr0": _after_lr0,
    "automaton.lookaheads": _after_lookaheads,
    "automaton.tables": _after_tables,
    "cache.encode": _after_put,
    "cache.decode": _after_get,
    "core.search": _after_search,
    "core.verify": _after_verify,
    "analysis.walk": _after_walk,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def robust_metrics(summaries) -> dict[str, float]:
    """Counts from robust reports (``summary_to_json`` documents)."""
    timeouts = degradations = conflicts = decided = 0
    for summary in summaries:
        timeouts += summary["timeouts"]
        degradations += summary["degraded"]
        conflicts += summary["conflicts"]
        decided += summary["unifying"] + summary["nonunifying"]
    return {
        "robust.timeouts": timeouts,
        "robust.degradations": degradations,
        "robust.decided_ratio": _ratio(decided, conflicts),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics every workload reports from its traced run.

    Times are seconds summed over the traced requests (outermost calls
    only); a layer that does not run on a workload reads 0.
    """
    counts = tracer.counts
    lasg_hits = counts.get("lasg.successors.hit", 0)
    lasg_lookups = lasg_hits + counts.get("lasg.successors.miss", 0)
    search_s = tracer.total("core.search")
    explain = tracer.durations("core.explain")
    return {
        "cli.render_s": tracer.total("cli.render"),
        "grammar.load_s": tracer.total("grammar.load"),
        "grammar.analysis_s": tracer.total("grammar.analysis"),
        "automaton.lr0_s": tracer.total("automaton.lr0"),
        "automaton.lookaheads_s": tracer.total("automaton.lookaheads"),
        "automaton.tables_s": tracer.total("automaton.tables"),
        "automaton.states": counts.get("automaton.states", 0),
        "automaton.lookahead_keys": counts.get("automaton.lookahead_keys", 0),
        "automaton.conflicts": counts.get("automaton.conflicts", 0),
        "cache.encode_s": tracer.total("cache.encode"),
        "cache.entry_bytes": counts.get("cache.entry_bytes", 0),
        "cache.decode_s": tracer.total("cache.decode"),
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0), counts.get("cache.gets", 0)),
        "core.lasg_s": tracer.total("core.lasg"),
        "core.lasg_vertices": counts.get("lasg.vertices.materialized", 0),
        "core.lasg_memo_hit_ratio": _ratio(lasg_hits, lasg_lookups),
        "core.search_s": search_s,
        "core.search_configs": counts.get("core.search_configs", 0),
        "core.search_configs_per_s": _ratio(counts.get("core.search_configs", 0), search_s),
        "core.search_useful_ratio": _ratio(
            counts.get("core.searches_unified", 0), counts.get("core.searches", 0)
        ),
        "core.verify_s": tracer.total("core.verify"),
        "core.verify_accept_ratio": _ratio(
            counts.get("core.verified", 0), counts.get("core.verifications", 0)
        ),
        "core.nonunifying_s": tracer.total("core.nonunifying"),
        "core.explain_p50_s": percentile(explain, 50) if explain else 0.0,
        "core.explain_p90_s": percentile(explain, 90) if explain else 0.0,
        "analysis.walk_s": tracer.total("analysis.walk"),
        "analysis.decided_ratio": _ratio(
            counts.get("analysis.decided", 0), counts.get("analysis.verdicts", 0)
        ),
    }
