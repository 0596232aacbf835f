"""CUP-style conflict reports (paper Figure 11) and the robust report.

:func:`format_report` renders one conflict's explanation; it is itself a
guarded pipeline stage (injection point ``render``), and
:func:`safe_format_report` is the boundary the CLI uses: a rendering
failure degrades to a stub-style text block and is recorded on the
report entry instead of crashing the run.

:func:`summary_to_json` is the machine-readable per-conflict degradation
report behind ``--robust-report``.
"""

from __future__ import annotations

from typing import Any

from repro.core.derivation import format_symbols
from repro.core.finder import FinderReport, FinderSummary
from repro.robust.degrade import Stage, run_guarded
from repro.robust.faults import fire


def format_report(report: FinderReport) -> str:
    """Format one conflict's explanation as in the paper's Figure 11.

    The first lines (the conflict itself) mirror CUP's original message;
    the rest is the counterexample. Example::

        Warning : *** Shift/Reduce conflict found in state #13
          between reduction on expr ::= expr + expr •
          and shift on expr ::= expr • + expr
          under symbol +
        Ambiguity detected for nonterminal expr
        Example: expr + expr • + expr
        Derivation using reduction:
          expr ::= [expr ::= [expr + expr •] + expr]
        Derivation using shift:
          expr ::= [expr + expr ::= [expr • + expr]]

    Stub-rung entries (no counterexample at any rung) render the conflict
    plus the stub's state/item/lookahead/prefix block and the recorded
    degradation reasons.
    """
    fire("render")
    conflict = report.conflict
    example = report.counterexample
    lines = [f"Warning : {conflict.describe()}"]
    if report.provenance is not None:
        lines.append(f"Provenance: {report.provenance.describe()}")
    if report.ambiguity is not None:
        lines.append(f"Ambiguity : {report.ambiguity.describe()}")

    if example is None:
        if report.stub is not None:
            lines.append(report.stub.describe())
        else:
            lines.append("No explanation available for this conflict")
        for degraded in report.degradations:
            lines.append(f"Degraded: {degraded.describe()}")
        return "\n".join(lines)

    second_label = "shift" if conflict.is_shift_reduce else "second reduction"
    if example.unifying:
        lines.append(f"Ambiguity detected for nonterminal {example.nonterminal}")
        lines.append(f"Example: {format_symbols(example.example1())}")
        lines.append("Derivation using reduction:")
        lines.append(f"  {example.derivation1.render()}")
        lines.append(f"Derivation using {second_label}:")
        lines.append(f"  {example.derivation2.render()}")
    else:
        if example.timed_out:
            lines.append(
                "No unifying counterexample found within the time limit; "
                "reporting a nonunifying counterexample"
            )
        lines.append(f"Example using reduction: {format_symbols(example.example1())}")
        lines.append("Derivation using reduction:")
        lines.append(f"  {example.derivation1.render()}")
        lines.append(
            f"Example using {second_label}: {format_symbols(example.example2())}"
        )
        lines.append(f"Derivation using {second_label}:")
        lines.append(f"  {example.derivation2.render()}")
    return "\n".join(lines)


def safe_format_report(report: FinderReport) -> str:
    """Render *report*; degrade (never raise) on rendering failure.

    A failure in the render stage — the last of the five guarded pipeline
    stages — appends a :class:`DegradedExplanation` to the report entry
    and falls back to a minimal conflict description, so a formatting bug
    or injected fault cannot take down a run that already survived the
    earlier stages.
    """
    outcome = run_guarded(Stage.RENDER, format_report, report)
    if outcome.ok:
        return outcome.value
    assert outcome.degraded is not None
    report.degradations.append(outcome.degraded)
    lines = [
        f"Warning : {report.conflict.describe()}",
        f"Degraded: {outcome.degraded.describe()}",
        "Report rendering failed; see the robust report for details",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# The machine-readable robust report (``--robust-report``)


def report_to_json(report: FinderReport) -> dict[str, Any]:
    """One conflict's entry of the robust report."""
    conflict = report.conflict
    entry: dict[str, Any] = {
        "state": conflict.state_id,
        "terminal": str(conflict.terminal),
        "kind": conflict.kind.value,
        "rung": report.rung.value,
        "timed_out": report.timed_out,
        "verified": report.verified,
        "retried": report.retried,
        "degradations": [d.to_json() for d in report.degradations],
    }
    if report.provenance is not None:
        entry["provenance"] = {
            "verdict": report.provenance.verdict.value,
            "split_states": list(report.provenance.split_states),
            "detail": report.provenance.detail,
        }
    if report.ambiguity is not None:
        entry["ambiguity"] = report.ambiguity.to_json()
    if report.stub is not None:
        entry["stub"] = {
            "reduce_item": str(conflict.reduce_item),
            "other_item": str(conflict.other_item),
            "lookaheads": sorted(str(t) for t in report.stub.lookaheads),
            "prefix": (
                [str(s) for s in report.stub.prefix]
                if report.stub.prefix is not None
                else None
            ),
        }
    return entry


def summary_to_json(summary: FinderSummary) -> dict[str, Any]:
    """The full robust report: per-conflict rung/degradations + totals."""
    # Recount degradations from the report entries rather than echoing
    # the summary tally: render-stage failures are recorded *after*
    # explain_all() aggregated its counters.
    degraded_by_stage: dict[str, int] = {}
    for report in summary.reports:
        for degraded in report.degradations:
            stage = degraded.stage.value
            degraded_by_stage[stage] = degraded_by_stage.get(stage, 0) + 1
    return {
        "grammar": summary.grammar_name,
        "complete": summary.complete,
        "conflicts": summary.num_conflicts,
        "unifying": summary.num_unifying,
        "nonunifying": summary.num_nonunifying,
        "timeouts": summary.num_timeout,
        "skipped_searches": summary.num_skipped_search,
        "stubs": summary.num_stub,
        "degraded": sum(1 for report in summary.reports if report.degradations),
        "retried": summary.num_retried,
        "retry_upgraded": summary.num_retry_upgraded,
        "degraded_by_stage": degraded_by_stage,
        "reports": [report_to_json(report) for report in summary.reports],
    }


__all__ = [
    "format_report",
    "report_to_json",
    "safe_format_report",
    "summary_to_json",
]
