"""Merge per-shard result files into one deterministic campaign report.

The merged report is the campaign's single source of truth and it is
**byte-stable**: any partition of the same spec — ``--shard 1/1`` in one
process, a 4-shard local fleet with stealing, or a 4-runner CI matrix —
renders to the identical file. That property rests on three invariants
enforced here:

* every shard file carries the same campaign digest and spec;
* the shard tuples form exactly ``1/M .. M/M`` for one ``M``, the unit
  sets are disjoint, and their union is exactly ``plan_units(spec)``;
* only the deterministic halves (outcome + payload + digest) enter the
  report; telemetry (timings, cache hits, steal counts) is folded into a
  separate side document for the CI step summary.

``check_report`` turns the report into a pass/fail gate: unit errors,
fatal fuzz failures, flaky units, and coverage holes each produce one
human-readable failure line.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.campaign.units import KINDS, SCHEMA, CampaignSpec, plan_units


class MergeError(ValueError):
    """Shard files that cannot form one campaign report."""


# ---------------------------------------------------------------------- #
# Merge


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MergeError(message)


def merge_shard_documents(
    documents: Iterable[Mapping[str, Any]],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Fold shard result documents into ``(report, telemetry)``.

    Raises :class:`MergeError` on schema/campaign mismatches, partial or
    overlapping shard sets, or unit coverage holes.
    """
    documents = list(documents)
    _require(bool(documents), "no shard documents to merge")
    for doc in documents:
        _require(
            doc.get("schema") == SCHEMA,
            f"unexpected schema {doc.get('schema')!r} (want {SCHEMA!r})",
        )

    campaign = documents[0]["campaign"]
    spec_json = documents[0]["spec"]
    for doc in documents[1:]:
        _require(
            doc["campaign"] == campaign,
            f"campaign digest mismatch: {doc['campaign']} != {campaign}",
        )
        _require(doc["spec"] == spec_json, "spec mismatch between shard files")
    spec = CampaignSpec.from_json(spec_json)
    _require(
        spec.digest() == campaign,
        "campaign digest does not match the embedded spec",
    )

    shards = sorted(tuple(doc["shard"]) for doc in documents)
    total = shards[0][1]
    _require(
        shards == [(k, total) for k in range(1, total + 1)],
        f"shard set {shards} is not exactly 1/{total}..{total}/{total}",
    )

    units: dict[str, dict[str, Any]] = {}
    flakes: dict[str, list[str]] = {}
    for doc in sorted(documents, key=lambda d: tuple(d["shard"])):
        for unit_id, result in doc["units"].items():
            _require(
                unit_id not in units,
                f"unit {unit_id} reported by more than one shard",
            )
            units[unit_id] = {
                "outcome": result["outcome"],
                "payload": result["payload"],
                "digest": result["digest"],
            }
        for unit_id, digests in doc.get("flakes", {}).items():
            flakes[unit_id] = list(digests)

    planned = [unit.id for unit in plan_units(spec)]
    missing = sorted(set(planned) - set(units))
    extra = sorted(set(units) - set(planned))
    _require(not missing, f"units missing from all shards: {', '.join(missing[:5])}")
    _require(not extra, f"units outside the campaign plan: {', '.join(extra[:5])}")

    # The shard count is deliberately NOT part of the report: any
    # partition of the same spec must render to the identical bytes.
    report = {
        "schema": SCHEMA,
        "campaign": campaign,
        "spec": spec_json,
        "units": {unit_id: units[unit_id] for unit_id in sorted(units)},
        "aggregates": _aggregate(units),
        "flakes": {unit_id: flakes[unit_id] for unit_id in sorted(flakes)},
    }
    telemetry = {
        "campaign": campaign,
        "shard_count": total,
        "shards": {
            "-".join(str(part) for part in doc["shard"]): {
                key: value
                for key, value in doc.get("telemetry", {}).items()
                if key != "units"
            }
            for doc in documents
        },
        "totals": _telemetry_totals(documents),
    }
    return report, telemetry


def _telemetry_totals(documents: list[Mapping[str, Any]]) -> dict[str, Any]:
    totals: dict[str, Any] = {
        key: 0
        for key in (
            "executed",
            "resumed",
            "stolen",
            "retried",
            "cache_hits",
            "cache_misses",
            "torn_writes",
        )
    }
    # Wall time per unit kind: what the fuzz, corpus and bench halves of
    # the campaign cost, summed over every executed unit.
    unit_seconds = dict.fromkeys(KINDS, 0.0)
    for doc in documents:
        telemetry = doc.get("telemetry", {})
        for key in totals:
            totals[key] += int(telemetry.get(key, 0))
        for unit_id, unit in telemetry.get("units", {}).items():
            kind = unit_id.partition(":")[0]
            unit_seconds[kind] = unit_seconds.get(kind, 0.0) + float(
                unit.get("elapsed_s", 0.0)
            )
    totals["unit_seconds"] = {
        kind: round(seconds, 3) for kind, seconds in unit_seconds.items()
    }
    return totals


# ---------------------------------------------------------------------- #
# Aggregation over deterministic payloads


def _sum_into(target: dict[str, int], source: Mapping[str, Any]) -> None:
    for key, value in source.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            target[key] = target.get(key, 0) + value


def _aggregate(units: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    by_kind: dict[str, int] = {}
    outcomes = {"ok": 0, "error": 0}
    fuzz: dict[str, int] = {}
    fuzz_ambiguity: dict[str, int] = {}
    fuzz_failures: dict[str, int] = {}
    corpus: dict[str, Any] = {
        "grammars": 0,
        "conflicts": 0,
        "lint": {},
        "ambiguity": {},
        "provenance": {},
    }
    bench = {"grammars": 0, "conflicts": 0}

    for unit_id in sorted(units):
        result = units[unit_id]
        kind = unit_id.split(":", 1)[0]
        by_kind[kind] = by_kind.get(kind, 0) + 1
        outcomes[result["outcome"]] = outcomes.get(result["outcome"], 0) + 1
        if result["outcome"] != "ok":
            continue
        payload = result["payload"]
        if kind == "fuzz":
            _sum_into(
                fuzz,
                {
                    key: payload.get(key, 0)
                    for key in (
                        "grammars",
                        "grammars_with_conflicts",
                        "conflicts",
                        "counterexamples_validated",
                        "oracle_samples",
                        "lint_diagnostics",
                        "merge_artifacts",
                        "genuine_conflicts",
                    )
                },
            )
            _sum_into(fuzz_ambiguity, payload.get("ambiguity", {}))
            for failure in payload.get("failures", []):
                fuzz_failures[failure["kind"]] = (
                    fuzz_failures.get(failure["kind"], 0) + 1
                )
        elif kind == "corpus":
            corpus["grammars"] += 1
            corpus["conflicts"] += payload.get("conflicts", 0)
            _sum_into(corpus["lint"], payload.get("lint", {}))
            _sum_into(corpus["ambiguity"], payload.get("ambiguity", {}))
            _sum_into(corpus["provenance"], payload.get("provenance", {}))
        elif kind == "bench":
            bench["grammars"] += 1
            bench["conflicts"] += payload.get("conflicts", 0)

    fuzz["ambiguity"] = dict(sorted(fuzz_ambiguity.items()))
    fuzz["failures"] = dict(sorted(fuzz_failures.items()))
    return {
        "units": {
            "total": len(units),
            "by_kind": dict(sorted(by_kind.items())),
            "outcomes": outcomes,
        },
        "fuzz": fuzz,
        "corpus": corpus,
        "bench": bench,
    }


# ---------------------------------------------------------------------- #
# Rendering + gating


def render_report(report: Mapping[str, Any]) -> str:
    """The canonical byte-stable rendering of a campaign report."""
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def check_report(
    report: Mapping[str, Any],
    *,
    expect: Mapping[str, Any] | None = None,
) -> list[str]:
    """Gate failures for *report*; empty list means the campaign passed.

    *expect* optionally pins aggregate counters (dotted paths into
    ``aggregates``, e.g. ``{"fuzz.conflicts": 12}``) so CI catches silent
    behaviour drift, not just crashes.
    """
    failures: list[str] = []
    for unit_id, result in report["units"].items():
        if result["outcome"] != "ok":
            payload = result["payload"]
            failures.append(
                f"unit {unit_id} errored: "
                f"{payload.get('error_type')}: {payload.get('error')}"
            )
    fuzz_failures = report["aggregates"]["fuzz"].get("failures", {})
    for kind, count in sorted(fuzz_failures.items()):
        failures.append(f"fuzz harness reported {count} {kind} failure(s)")
    for unit_id, digests in report.get("flakes", {}).items():
        failures.append(
            f"unit {unit_id} is flaky: attempts produced digests "
            + ", ".join(sorted(set(digests)))
        )
    for path, want in sorted((expect or {}).items()):
        node: Any = report["aggregates"]
        try:
            for part in path.split("."):
                node = node[part]
        except (KeyError, TypeError):
            failures.append(f"expected counter {path} missing from report")
            continue
        if node != want:
            failures.append(f"counter {path} = {node}, pinned to {want}")
    return failures


def render_summary_markdown(
    report: Mapping[str, Any], telemetry: Mapping[str, Any]
) -> str:
    """Per-shard health table + aggregates for ``$GITHUB_STEP_SUMMARY``."""
    lines = [
        "## Campaign report",
        "",
        f"- campaign `{report['campaign']}`, "
        f"{telemetry.get('shard_count', '?')} shard(s), "
        f"{report['aggregates']['units']['total']} units "
        f"({report['aggregates']['units']['outcomes'].get('error', 0)} errored, "
        f"{len(report.get('flakes', {}))} flaky)",
        "",
        "| shard | units | resumed | stolen | time (s) | cache hits | cache misses |",
        "|---|---|---|---|---|---|---|",
    ]
    for shard_name in sorted(telemetry.get("shards", {})):
        shard = telemetry["shards"][shard_name]
        lines.append(
            f"| {shard_name} | {shard.get('executed', 0)} "
            f"| {shard.get('resumed', 0)} | {shard.get('stolen', 0)} "
            f"| {shard.get('elapsed_s', 0)} | {shard.get('cache_hits', 0)} "
            f"| {shard.get('cache_misses', 0)} |"
        )
    aggregates = report["aggregates"]
    unit_seconds = telemetry.get("totals", {}).get("unit_seconds", {})
    lines += [
        "",
        f"- fuzz: {aggregates['fuzz'].get('conflicts', 0)} conflicts, "
        f"{aggregates['fuzz'].get('counterexamples_validated', 0)} counterexamples "
        f"validated, ambiguity {aggregates['fuzz'].get('ambiguity', {})}",
        f"- corpus: {aggregates['corpus']['grammars']} grammars, "
        f"{aggregates['corpus']['conflicts']} conflicts, "
        f"provenance {aggregates['corpus']['provenance']}",
        f"- bench: {aggregates['bench']['grammars']} grammars, "
        f"{aggregates['bench']['conflicts']} conflicts",
        "- unit seconds: "
        + ", ".join(f"{kind} {seconds}" for kind, seconds in unit_seconds.items()),
        "",
    ]
    return "\n".join(lines)


__all__ = [
    "MergeError",
    "check_report",
    "merge_shard_documents",
    "render_report",
    "render_summary_markdown",
]
