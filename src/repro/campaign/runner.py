"""Execute one campaign work unit → deterministic payload + telemetry.

Every unit produces a :class:`UnitResult` with two strictly separated
halves:

* ``payload`` — wall-clock-independent content. Re-running the unit on
  any machine, in any shard, must reproduce it byte-for-byte (its
  canonical digest is what the flake ledger compares across attempts);
* ``telemetry`` — timings, cache hit/miss deltas, and the
  timing-dependent tallies (unifying vs timed-out splits). Telemetry is
  merged into per-shard health tables and the CI step summary but never
  into the deterministic campaign report.

A unit that raises is captured as ``outcome="error"`` with the exception
in the payload — the scheduler checkpoints it like any other result, so
a poisoned unit cannot wedge a shard. One that kills its worker process
becomes the same kind of result (``WorkerDied``) in the scheduler.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.units import CampaignSpec, WorkUnit


@dataclass
class UnitResult:
    """What one work unit produced."""

    unit_id: str
    outcome: str  # "ok" | "error"
    payload: dict[str, Any] = field(default_factory=dict)
    telemetry: dict[str, Any] = field(default_factory=dict)
    attempt: int = 1

    def digest(self) -> str:
        """Canonical hash of the deterministic half (flake detection)."""
        canonical = json.dumps(
            {"outcome": self.outcome, "payload": self.payload},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def to_json(self) -> dict[str, Any]:
        return {
            "unit": self.unit_id,
            "outcome": self.outcome,
            "payload": self.payload,
            "telemetry": self.telemetry,
            "attempt": self.attempt,
            "digest": self.digest(),
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "UnitResult":
        return cls(
            unit_id=str(data["unit"]),
            outcome=str(data["outcome"]),
            payload=dict(data.get("payload", {})),
            telemetry=dict(data.get("telemetry", {})),
            attempt=int(data.get("attempt", 1)),
        )


# ---------------------------------------------------------------------- #
# Per-kind execution


def _cache_counters(cache) -> tuple[int, int]:
    return (cache.hits, cache.misses) if cache is not None else (0, 0)


def _run_fuzz_unit(
    unit: WorkUnit, spec: CampaignSpec, cache
) -> tuple[dict[str, Any], dict[str, Any]]:
    from repro.verify import FuzzHarness

    harness = FuzzHarness(
        time_limit=spec.time_limit,
        cumulative_limit=spec.cumulative_limit,
        oracle_samples=spec.oracle_samples,
        max_lr1_states=spec.max_lr1_states,
        verify_step_budget=spec.verify_step_budget,
        automaton_cache=cache,
    )
    report = harness.run_unit(int(unit.key))
    payload = report.deterministic_json()
    telemetry = {
        "unifying": report.unifying,
        "nonunifying": report.nonunifying,
        "timeouts": report.timeouts,
        "stubs": report.stubs,
        "degraded": report.degraded,
    }
    return payload, telemetry


def _run_corpus_unit(
    unit: WorkUnit, spec: CampaignSpec, cache
) -> tuple[dict[str, Any], dict[str, Any]]:
    from repro.automaton.ielr import ProvenanceVerdict
    from repro.corpus import registry
    from repro.lint import LintContext, run_lint
    from repro.perf.cache import build_automaton_cached

    grammar = registry.load(unit.key)
    automaton = build_automaton_cached(grammar, cache)
    # One artifact set for lint, the walk verdicts and provenance.
    context = LintContext(
        grammar,
        automaton=automaton,
        max_lr1_states=spec.max_lr1_states,
        cache=cache,
    )
    lint_report = run_lint(grammar, context=context)
    lint_counts = {"info": 0, "warning": 0, "error": 0}
    for diagnostic in lint_report.diagnostics:
        lint_counts[diagnostic.severity.value] += 1

    ambiguity = {"unambiguous": 0, "ambiguous": 0, "inconclusive": 0}
    for verdict in context.ambiguity_verdicts.values():
        ambiguity[verdict.verdict.value] += 1

    slugs = {
        ProvenanceVerdict.GENUINE: "genuine",
        ProvenanceVerdict.MERGE_ARTIFACT: "merge_artifact",
        ProvenanceVerdict.UNKNOWN: "unknown",
    }
    provenance = {"genuine": 0, "merge_artifact": 0, "unknown": 0}
    for entry in context.provenance.values():
        provenance[slugs[entry.verdict]] += 1

    payload = {
        "grammar": unit.key,
        "algorithm": automaton.algorithm,
        "states": len(automaton.states),
        "conflicts": len(automaton.conflicts),
        "lint": lint_counts,
        "ambiguity": ambiguity,
        "provenance": provenance,
    }
    return payload, {}


def _run_bench_unit(
    unit: WorkUnit, spec: CampaignSpec, cache
) -> tuple[dict[str, Any], dict[str, Any]]:
    from repro.perf.bench import _bench_grammar

    entry = _bench_grammar(
        unit.key,
        repeats=spec.bench_repeats,
        time_limit=spec.time_limit,
        cumulative_limit=max(spec.cumulative_limit, 10 * spec.time_limit),
    )
    # The timings (and the budget-sensitive search counters) are
    # telemetry; only the structural facts enter the campaign report.
    payload = {
        "grammar": unit.key,
        "conflicts": entry["conflicts"],
        "ambiguity": entry["ambiguity_verdicts"],
        "cache_entry_bytes": entry["cache_entry_bytes"],
    }
    telemetry = {
        "total_s": entry["total_s"],
        "phases": entry["phases"],
        "counters": entry["counters"],
    }
    return payload, telemetry


_EXECUTORS = {
    "fuzz": _run_fuzz_unit,
    "corpus": _run_corpus_unit,
    "bench": _run_bench_unit,
}


def execute_unit(
    unit: WorkUnit, spec: CampaignSpec, cache=None, attempt: int = 1
) -> UnitResult:
    """Run *unit* under *spec*; never raises.

    *cache* is an optional :class:`repro.perf.cache.AutomatonCache`
    shared by every unit of the shard (and, through the multi-process-
    safe cache directory, by every shard of the fleet).
    """
    hits_before, misses_before = _cache_counters(cache)
    started = time.perf_counter()
    try:
        payload, telemetry = _EXECUTORS[unit.kind](unit, spec, cache)
        outcome = "ok"
    except Exception as error:  # noqa: BLE001 — checkpointed, not raised
        payload = {
            "error_type": type(error).__name__,
            "error": str(error),
        }
        telemetry = {"traceback": traceback.format_exc(limit=20)}
        outcome = "error"
    hits_after, misses_after = _cache_counters(cache)
    telemetry["elapsed_s"] = round(time.perf_counter() - started, 6)
    telemetry["cache_hits"] = hits_after - hits_before
    telemetry["cache_misses"] = misses_after - misses_before
    return UnitResult(
        unit_id=unit.id,
        outcome=outcome,
        payload=payload,
        telemetry=telemetry,
        attempt=attempt,
    )


__all__ = ["UnitResult", "execute_unit"]
