"""Merging shard files: validation, aggregation, gating, rendering."""

from __future__ import annotations

import json

import pytest

from repro.campaign.report import (
    MergeError,
    check_report,
    merge_shard_documents,
    render_report,
    render_summary_markdown,
)
from repro.campaign.runner import UnitResult
from repro.campaign.units import SCHEMA, CampaignSpec, partition_units, plan_units

SPEC = CampaignSpec(fuzz_iterations=4)


def _document(shard, units, *, spec=SPEC, flakes=None):
    return {
        "schema": SCHEMA,
        "campaign": spec.digest(),
        "spec": spec.to_json(),
        "shard": list(shard),
        "units": units,
        "flakes": flakes or {},
        "telemetry": {"executed": len(units), "cache_hits": 1},
    }


def _entry(payload=None, outcome="ok"):
    result = UnitResult("x", outcome, payload or {})
    return {
        "outcome": outcome,
        "payload": result.payload,
        "digest": result.digest(),
    }


def _documents(spec=SPEC, shards=2):
    parts = partition_units(plan_units(spec), shards)
    return [
        _document(
            (k + 1, shards),
            {unit.id: _entry({"conflicts": 1}) for unit in part},
            spec=spec,
        )
        for k, part in enumerate(parts)
    ]


class TestValidation:
    def test_merge_happy_path(self):
        report, telemetry = merge_shard_documents(_documents())
        assert len(report["units"]) == 4
        assert telemetry["shard_count"] == 2
        assert telemetry["totals"]["cache_hits"] == 2

    def test_wrong_schema_rejected(self):
        docs = _documents()
        docs[0]["schema"] = "bogus/9"
        with pytest.raises(MergeError, match="schema"):
            merge_shard_documents(docs)

    def test_campaign_mismatch_rejected(self):
        other = CampaignSpec(fuzz_iterations=5)
        with pytest.raises(MergeError, match="campaign digest mismatch"):
            merge_shard_documents([_documents()[0], _documents(other, 2)[1]])

    def test_missing_shard_rejected(self):
        with pytest.raises(MergeError, match="shard set"):
            merge_shard_documents(_documents()[:1])

    def test_duplicate_unit_rejected(self):
        docs = _documents()
        dupe = next(iter(docs[0]["units"]))
        docs[1]["units"][dupe] = docs[0]["units"][dupe]
        with pytest.raises(MergeError, match="more than one shard"):
            merge_shard_documents(docs)

    def test_coverage_hole_rejected(self):
        docs = _documents()
        docs[1]["units"].popitem()
        with pytest.raises(MergeError, match="missing from all shards"):
            merge_shard_documents(docs)

    def test_forged_digest_rejected(self):
        docs = _documents()
        docs[0]["campaign"] = "0" * 16
        docs[1]["campaign"] = "0" * 16
        with pytest.raises(MergeError, match="does not match the embedded spec"):
            merge_shard_documents(docs)


class TestAggregatesAndGate:
    def test_fuzz_counters_sum_across_units(self):
        docs = _documents()
        for doc in docs:
            for entry in doc["units"].values():
                entry["payload"] = {"conflicts": 2, "ambiguity": {"ambiguous": 1}}
                entry["digest"] = UnitResult("x", "ok", entry["payload"]).digest()
        report, _ = merge_shard_documents(docs)
        assert report["aggregates"]["fuzz"]["conflicts"] == 8
        assert report["aggregates"]["fuzz"]["ambiguity"] == {"ambiguous": 4}

    def test_clean_report_passes_the_gate(self):
        report, _ = merge_shard_documents(_documents())
        assert check_report(report) == []

    def test_error_units_fail_the_gate(self):
        docs = _documents()
        uid = next(iter(docs[0]["units"]))
        docs[0]["units"][uid] = _entry(
            {"error_type": "Boom", "error": "bad"}, outcome="error"
        )
        report, _ = merge_shard_documents(docs)
        failures = check_report(report)
        assert any("errored" in failure for failure in failures)

    def test_flakes_fail_the_gate(self):
        docs = _documents()
        docs[0]["flakes"] = {"fuzz:00000000": ["aaaa", "bbbb"]}
        report, _ = merge_shard_documents(docs)
        assert any("flaky" in failure for failure in check_report(report))

    def test_pinned_counters_catch_drift(self):
        report, _ = merge_shard_documents(_documents())
        assert check_report(report, expect={"fuzz.conflicts": 4}) == []
        assert any(
            "pinned" in failure
            for failure in check_report(report, expect={"fuzz.conflicts": 99})
        )
        assert any(
            "missing" in failure
            for failure in check_report(report, expect={"no.such.counter": 1})
        )


class TestRendering:
    def test_render_is_byte_stable_and_shard_free(self):
        one = merge_shard_documents(_documents(shards=1))[0]
        two = merge_shard_documents(_documents(shards=2))[0]
        four = merge_shard_documents(_documents(shards=4))[0]
        assert render_report(one) == render_report(two) == render_report(four)
        json.loads(render_report(one))  # stays valid JSON

    def test_summary_markdown_has_the_shard_table(self):
        report, telemetry = merge_shard_documents(_documents())
        summary = render_summary_markdown(report, telemetry)
        assert "| shard |" in summary
        assert "| 1-2 |" in summary and "| 2-2 |" in summary
        assert "2 shard(s)" in summary

    def test_unit_seconds_summed_per_kind(self):
        docs = _documents()
        for doc in docs:
            doc["telemetry"]["units"] = {
                unit_id: {"elapsed_s": 1.25} for unit_id in doc["units"]
            }
        report, telemetry = merge_shard_documents(docs)
        assert telemetry["totals"]["unit_seconds"] == {
            "fuzz": 5.0,
            "corpus": 0.0,
            "bench": 0.0,
        }
        summary = render_summary_markdown(report, telemetry)
        assert "- unit seconds: fuzz 5.0, corpus 0.0, bench 0.0" in summary
        # Telemetry only: the deterministic report does not move.
        plain = merge_shard_documents(_documents())[0]
        assert render_report(report) == render_report(plain)
