"""The differential fuzzing harness: generate, explain, validate, shrink.

One fuzz iteration closes the whole loop the library exists for:

1. :class:`~repro.verify.fuzz.GrammarFuzzer` draws a random grammar from
   the iteration seed;
2. the LALR automaton is built into one
   :class:`~repro.lint.context.LintContext`, which every lint pass and
   the :class:`~repro.verify.differential.DifferentialOracle` share: the
   oracle checks the automaton against the SLR/LR(1) constructions and
   the three parser runtimes;
3. the :class:`~repro.core.finder.CounterexampleFinder` explains every
   conflict;
4. the context's SR-walk verdicts are held to the finder's reports
   (:meth:`FuzzHarness._check_verdicts` — the only place the walk and
   the search are cross-checked);
5. one :class:`~repro.verify.validate.CounterexampleValidator`
   independently re-proves each counterexample and each ambiguity
   witness.

Anything that goes wrong is *classified* — validator rejection, oracle
disagreement, walk/search contradiction, finder timeout, or crash — and
recorded together with the failing grammar, shrunk to a (locally)
minimal production set and re-emitted through the textual DSL so the
report alone reproduces the bug. Timeouts are informational; the other
kinds are fatal.

Per-iteration seeds are ``base_seed + index``, so any single failure
replays with ``repro-conflicts --fuzz 1 --seed <seed>``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.core.finder import CounterexampleFinder
from repro.grammar import Grammar, dump_grammar
from repro.grammar.errors import GrammarError
from repro.lint import LintContext, run_lint
from repro.robust.faults import registry as fault_registry
from repro.verify.differential import DifferentialOracle
from repro.verify.fuzz import FuzzConfig, GrammarFuzzer
from repro.verify.validate import CounterexampleValidator


class FailureKind(enum.Enum):
    """Classification of one fuzz finding."""

    VALIDATOR_REJECTION = "validator-rejection"
    ORACLE_DISAGREEMENT = "oracle-disagreement"
    #: The SR pair walk proved a conflict ``unambiguous`` that the finder
    #: explained with a verified unifying counterexample.
    WALK_CONTRADICTION = "walk-contradiction"
    FINDER_TIMEOUT = "finder-timeout"
    CRASH = "crash"

    @property
    def fatal(self) -> bool:
        return self is not FailureKind.FINDER_TIMEOUT


@dataclass(frozen=True)
class FuzzFailure:
    """One classified finding, with a reproducible shrunk grammar."""

    seed: int
    kind: FailureKind
    detail: str
    grammar_text: str
    original_productions: int
    shrunk_productions: int

    def describe(self) -> str:
        shrink_note = (
            f" (shrunk {self.original_productions} -> "
            f"{self.shrunk_productions} productions)"
            if self.shrunk_productions < self.original_productions
            else ""
        )
        return (
            f"[{self.kind.value}] seed {self.seed}{shrink_note}\n"
            f"  {self.detail}\n"
            f"  reproduce: repro-conflicts --fuzz 1 --seed {self.seed}\n"
            + "\n".join(f"  | {line}" for line in self.grammar_text.splitlines())
        )


@dataclass
class FuzzReport:
    """Aggregate results of one fuzz campaign."""

    iterations: int
    base_seed: int
    grammars: int = 0
    grammars_with_conflicts: int = 0
    conflicts: int = 0
    unifying: int = 0
    nonunifying: int = 0
    timeouts: int = 0
    #: Conflicts that fell to the stub rung of the degradation ladder
    #: (no counterexample at all) — should be zero without fault injection.
    stubs: int = 0
    #: Conflicts with at least one recorded stage degradation.
    degraded: int = 0
    counterexamples_validated: int = 0
    oracle_samples: int = 0
    lint_diagnostics: int = 0
    #: Conflicts classified as LALR merge artifacts (they vanish under
    #: minimal LR(1) state splitting) vs genuine LR(1) conflicts.
    merge_artifacts: int = 0
    genuine_conflicts: int = 0
    #: SR pair-walk verdict tallies; together they cover every conflict
    #: the walker examined (unambiguous + ambiguous + inconclusive ==
    #: conflicts, barring a walker crash — which is itself fatal).
    ambiguity_unambiguous: int = 0
    ambiguity_ambiguous: int = 0
    ambiguity_inconclusive: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def fatal_failures(self) -> list[FuzzFailure]:
        return [f for f in self.failures if f.kind.fatal]

    @property
    def ok(self) -> bool:
        return not self.fatal_failures

    def counts_by_kind(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in FailureKind}
        for failure in self.failures:
            counts[failure.kind.value] += 1
        return counts

    def deterministic_json(self) -> dict:
        """The wall-clock-independent slice of the report, JSON-ready.

        This is the campaign orchestrator's per-unit payload: every
        field here replays exactly from the seeds alone, so shard
        reports merge byte-identically no matter which process — or
        machine — ran each iteration. Timing-dependent tallies (the
        unifying/nonunifying/timeout split, stub/degradation counts,
        elapsed) are deliberately excluded; they travel as telemetry,
        never as report content. Finder timeouts are likewise dropped
        from the failure list — they are informational, not findings.
        """
        return {
            "iterations": self.iterations,
            "base_seed": self.base_seed,
            "grammars": self.grammars,
            "grammars_with_conflicts": self.grammars_with_conflicts,
            "conflicts": self.conflicts,
            "counterexamples_validated": self.counterexamples_validated,
            "oracle_samples": self.oracle_samples,
            "lint_diagnostics": self.lint_diagnostics,
            "merge_artifacts": self.merge_artifacts,
            "genuine_conflicts": self.genuine_conflicts,
            "ambiguity": {
                "unambiguous": self.ambiguity_unambiguous,
                "ambiguous": self.ambiguity_ambiguous,
                "inconclusive": self.ambiguity_inconclusive,
            },
            "failures": [
                {
                    "seed": failure.seed,
                    "kind": failure.kind.value,
                    "detail": failure.detail,
                    "grammar": failure.grammar_text,
                }
                for failure in self.failures
                if failure.kind is not FailureKind.FINDER_TIMEOUT
            ],
        }

    def describe(self) -> str:
        counts = self.counts_by_kind()
        lines = [
            f"fuzz campaign: {self.grammars}/{self.iterations} grammars "
            f"(base seed {self.base_seed}) in {self.elapsed:.1f}s",
            f"  conflicts explained: {self.conflicts} "
            f"({self.unifying} unifying, {self.nonunifying} nonunifying, "
            f"{self.timeouts} timed out, {self.stubs} stubs) over "
            f"{self.grammars_with_conflicts} conflicted grammars",
            f"  degraded explanations: {self.degraded}",
            f"  counterexamples validated: {self.counterexamples_validated}; "
            f"oracle samples: {self.oracle_samples}; "
            f"lint diagnostics: {self.lint_diagnostics}",
            f"  conflict provenance: {self.genuine_conflicts} genuine LR(1), "
            f"{self.merge_artifacts} LALR merge artifacts",
            f"  ambiguity verdicts: {self.ambiguity_unambiguous} unambiguous, "
            f"{self.ambiguity_ambiguous} ambiguous, "
            f"{self.ambiguity_inconclusive} inconclusive",
            "  failures: "
            + ", ".join(f"{name}={count}" for name, count in counts.items()),
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


@dataclass
class _Examination:
    """What one grammar's full loop produced."""

    conflicts: int = 0
    unifying: int = 0
    nonunifying: int = 0
    timeouts: int = 0
    stubs: int = 0
    degraded: int = 0
    validated: int = 0
    samples: int = 0
    lint_diagnostics: int = 0
    merge_artifacts: int = 0
    genuine: int = 0
    ambiguity_unambiguous: int = 0
    ambiguity_ambiguous: int = 0
    ambiguity_inconclusive: int = 0
    problems: list[tuple[FailureKind, str]] = field(default_factory=list)

    def problem_kinds(self) -> set[FailureKind]:
        return {kind for kind, _ in self.problems}


#: Cap on re-examinations while shrinking one failing grammar.
MAX_SHRINK_ATTEMPTS = 200


class FuzzHarness:
    """Runs the generate→explain→validate loop and shrinks failures.

    Every iteration runs every check, and a crash in any of them is a
    fatal campaign failure:

    * every static lint pass (findings are expected — random grammars
      are messy — so only crashes count);
    * the cross-construction differential oracle;
    * provenance classification of each conflict as genuine LR(1) vs
      LALR merge artifact (exercising the minimal-LR(1) splitter);
    * the bounded SR pair walk (:mod:`repro.analysis`), tallying its
      verdicts: every conflict must get exactly one verdict, every
      ``ambiguous`` witness is re-proven by the validator, and a
      conflict proved ``unambiguous`` that the finder explains with a
      verified unifying counterexample is a walk/search contradiction;
    * the validator, GLR cross-check included, on every counterexample.

    Args:
        config: Grammar distribution knobs (see :class:`FuzzConfig`).
        time_limit: Per-conflict unifying-search budget (kept small —
            fuzz grammars are tiny and timeouts are only informational).
        cumulative_limit: Per-grammar unifying-search budget.
        shrink: Minimise failing grammars before reporting (at most
            :data:`MAX_SHRINK_ATTEMPTS` re-examinations).
        oracle_samples: Sample count per polarity for the oracle.
        max_lr1_states: Canonical LR(1) cap for the shared context (lint,
            oracle and provenance).
        glr_max_configurations: GLR cap for the validator's cross-check.
            Kept small: on heavily cyclic fuzz grammars a large cap burns
            seconds per counterexample only to blow up anyway, and
            blow-ups are recorded as skips either way.
        verify_step_budget: Earley step cap shared by the finder's
            verification pass and the validator's ambiguity recount.
        automaton_cache: Optional
            :class:`~repro.perf.cache.AutomatonCache`; when given,
            automaton construction goes through the content-addressed
            cache (repeat grammars decode instead of rebuilding).
    """

    def __init__(
        self,
        config: FuzzConfig | None = None,
        time_limit: float = 0.3,
        cumulative_limit: float = 2.0,
        shrink: bool = True,
        oracle_samples: int = 6,
        max_lr1_states: int = 2_000,
        glr_max_configurations: int = 300,
        verify_step_budget: int = 50_000,
        automaton_cache=None,
    ) -> None:
        self.fuzzer = GrammarFuzzer(config)
        self.time_limit = time_limit
        self.cumulative_limit = cumulative_limit
        self.shrink = shrink
        self.oracle_samples = oracle_samples
        self.max_lr1_states = max_lr1_states
        self.glr_max_configurations = glr_max_configurations
        self.verify_step_budget = verify_step_budget
        #: Optional :class:`repro.perf.cache.AutomatonCache`. Fuzz
        #: campaigns re-examine structurally identical grammars often
        #: (shrinking, duplicate seeds); the content-addressed cache
        #: makes those re-examinations skip LALR construction.
        self.automaton_cache = automaton_cache

    # ------------------------------------------------------------------ #

    def run(
        self,
        iterations: int,
        seed: int = 0,
        progress=None,
    ) -> FuzzReport:
        """Run *iterations* seeded iterations; never raises.

        Args:
            iterations: Number of grammars to generate.
            seed: Base seed; iteration ``i`` uses ``seed + i``.
            progress: Optional callback ``(done, total, report)`` invoked
                after every iteration.
        """
        report = FuzzReport(iterations=iterations, base_seed=seed)
        started = time.monotonic()
        for index in range(iterations):
            self._run_one(seed + index, report)
            if progress is not None:
                progress(index + 1, iterations, report)
        report.elapsed = time.monotonic() - started
        return report

    def run_unit(self, iteration_seed: int) -> FuzzReport:
        """Run exactly one iteration at the *absolute* seed given.

        The unit-addressable spelling of :meth:`run`: a campaign shard
        calls this once per work unit, so ``run(n, seed=s)`` and ``n``
        separate ``run_unit(s + i)`` calls cover the same seeds and sum
        to the same deterministic counters (see
        :meth:`FuzzReport.deterministic_json`).
        """
        return self.run(1, seed=iteration_seed)

    def _run_one(self, iteration_seed: int, report: FuzzReport) -> None:
        try:
            grammar = self.fuzzer.generate(iteration_seed)
        except Exception as error:  # noqa: BLE001 — classified, not raised
            report.failures.append(
                FuzzFailure(
                    seed=iteration_seed,
                    kind=FailureKind.CRASH,
                    detail=f"grammar generation raised {error!r}",
                    grammar_text="",
                    original_productions=0,
                    shrunk_productions=0,
                )
            )
            return
        report.grammars += 1
        examination = self._examine(grammar, iteration_seed)
        report.conflicts += examination.conflicts
        report.unifying += examination.unifying
        report.nonunifying += examination.nonunifying
        report.timeouts += examination.timeouts
        report.stubs += examination.stubs
        report.degraded += examination.degraded
        report.counterexamples_validated += examination.validated
        report.oracle_samples += examination.samples
        report.lint_diagnostics += examination.lint_diagnostics
        report.merge_artifacts += examination.merge_artifacts
        report.genuine_conflicts += examination.genuine
        report.ambiguity_unambiguous += examination.ambiguity_unambiguous
        report.ambiguity_ambiguous += examination.ambiguity_ambiguous
        report.ambiguity_inconclusive += examination.ambiguity_inconclusive
        if examination.conflicts:
            report.grammars_with_conflicts += 1

        shrunk_cache: dict[FailureKind, Grammar] = {}
        for kind, detail in examination.problems:
            shrunk = grammar
            if self.shrink and kind.fatal:
                if kind not in shrunk_cache:
                    shrunk_cache[kind] = self._shrink(grammar, iteration_seed, kind)
                shrunk = shrunk_cache[kind]
            report.failures.append(
                FuzzFailure(
                    seed=iteration_seed,
                    kind=kind,
                    detail=detail,
                    grammar_text=dump_grammar(shrunk),
                    original_productions=grammar.num_user_productions,
                    shrunk_productions=shrunk.num_user_productions,
                )
            )

    # ------------------------------------------------------------------ #
    # One grammar through the whole loop

    def _examine(self, grammar: Grammar, seed: int) -> _Examination:
        result = _Examination()
        try:
            from repro.perf.cache import build_automaton_cached

            automaton = build_automaton_cached(grammar, self.automaton_cache, "lalr")
        except Exception as error:  # noqa: BLE001
            result.problems.append(
                (FailureKind.CRASH, f"automaton construction raised {error!r}")
            )
            return result
        # One artifact set per examination: lint, the oracle and the
        # checks below all read the same LR(1) automata and walk verdicts.
        context = LintContext(
            grammar, automaton=automaton, max_lr1_states=self.max_lr1_states
        )

        try:
            lint_report = run_lint(grammar, context=context)
        except Exception as error:  # noqa: BLE001
            result.problems.append(
                (FailureKind.CRASH, f"lint pass raised {error!r}")
            )
        else:
            result.lint_diagnostics = len(lint_report.diagnostics)

        try:
            oracle_report = DifferentialOracle(
                context, num_samples=self.oracle_samples, seed=seed
            ).check()
        except Exception as error:  # noqa: BLE001
            result.problems.append(
                (FailureKind.CRASH, f"differential oracle raised {error!r}")
            )
        else:
            result.samples = oracle_report.samples_checked
            for disagreement in oracle_report.disagreements:
                result.problems.append(
                    (FailureKind.ORACLE_DISAGREEMENT, str(disagreement))
                )

        try:
            finder = CounterexampleFinder(
                automaton,
                time_limit=self.time_limit,
                cumulative_limit=self.cumulative_limit,
                verify=True,
                verify_step_budget=self.verify_step_budget,
            )
            summary = finder.explain_all()
        except Exception as error:  # noqa: BLE001
            result.problems.append(
                (FailureKind.CRASH, f"counterexample finder raised {error!r}")
            )
            return result

        try:
            validator = CounterexampleValidator(
                grammar,
                glr_check=True,
                glr_max_configurations=self.glr_max_configurations,
                earley_step_budget=self.verify_step_budget,
            )
        except Exception as error:  # noqa: BLE001
            result.problems.append(
                (FailureKind.CRASH, f"validator construction raised {error!r}")
            )
            return result

        if automaton.conflicts:
            from repro.automaton.ielr import ProvenanceVerdict

            try:
                provenance = context.provenance
            except Exception as error:  # noqa: BLE001
                result.problems.append(
                    (
                        FailureKind.CRASH,
                        f"provenance classification raised {error!r}",
                    )
                )
            else:
                for entry in provenance.values():
                    if entry.verdict is ProvenanceVerdict.MERGE_ARTIFACT:
                        result.merge_artifacts += 1
                    elif entry.verdict is ProvenanceVerdict.GENUINE:
                        result.genuine += 1

            try:
                verdicts = context.ambiguity_verdicts
            except Exception as error:  # noqa: BLE001
                result.problems.append(
                    (FailureKind.CRASH, f"ambiguity walk raised {error!r}")
                )
            else:
                self._check_verdicts(verdicts, summary.reports, validator, result)

        result.conflicts = summary.num_conflicts
        result.unifying = summary.num_unifying
        result.nonunifying = summary.num_nonunifying
        result.timeouts = summary.num_timeout
        result.stubs = summary.num_stub
        result.degraded = summary.num_degraded
        # A stub without deliberate fault injection means a pipeline stage
        # genuinely failed on this grammar — that is a finding, not noise.
        if summary.num_stub and not fault_registry().active:
            for finder_report in summary.reports:
                if finder_report.stub is None:
                    continue
                reasons = "; ".join(
                    d.describe() for d in finder_report.degradations
                ) or "no degradation recorded"
                result.problems.append(
                    (
                        FailureKind.CRASH,
                        f"conflict [{finder_report.conflict}] degraded to a "
                        f"stub: {reasons}",
                    )
                )
        if summary.num_timeout:
            result.problems.append(
                (
                    FailureKind.FINDER_TIMEOUT,
                    f"{summary.num_timeout} of {summary.num_conflicts} "
                    f"unifying searches timed out "
                    f"(time limit {self.time_limit}s)",
                )
            )

        for finder_report in summary.reports:
            if finder_report.counterexample is None:
                continue  # stub rung: nothing to validate
            try:
                verdict = validator.validate(finder_report.counterexample)
            except Exception as error:  # noqa: BLE001
                result.problems.append(
                    (
                        FailureKind.CRASH,
                        f"validator raised {error!r} on "
                        f"{finder_report.counterexample}",
                    )
                )
                continue
            result.validated += 1
            if not verdict.ok:
                result.problems.append(
                    (
                        FailureKind.VALIDATOR_REJECTION,
                        f"conflict [{finder_report.conflict}]: "
                        + "; ".join(verdict.failures),
                    )
                )
        return result

    @staticmethod
    def _check_verdicts(verdicts, reports, validator, result: _Examination) -> None:
        """Hold the SR walk's verdicts to the finder's reports.

        Every conflict gets exactly one verdict; no conflict the walk
        proves ``unambiguous`` has a verified unifying counterexample
        (impossible unless the walk or the search is wrong); and every
        ``ambiguous`` witness is re-proved by the validator.
        """
        from repro.analysis import AmbiguityVerdict

        conflicts = [report.conflict for report in reports]
        missing = [conflict for conflict in conflicts if conflict not in verdicts]
        unknown = [conflict for conflict in verdicts if conflict not in conflicts]
        for stray, what in (
            (missing, "left conflicts without a verdict"),
            (unknown, "gave verdicts for unknown conflicts"),
        ):
            if stray:
                result.problems.append(
                    (
                        FailureKind.CRASH,
                        f"ambiguity walk {what}: "
                        + ", ".join(f"[{conflict}]" for conflict in stray),
                    )
                )
        for report in reports:
            verdict = verdicts.get(report.conflict)
            if (
                verdict is not None
                and verdict.verdict is AmbiguityVerdict.UNAMBIGUOUS
                and report.verified
                and report.counterexample is not None
                and report.counterexample.unifying
            ):
                result.problems.append(
                    (
                        FailureKind.WALK_CONTRADICTION,
                        f"conflict [{report.conflict}] proved unambiguous by "
                        "the SR walk has a verified unifying counterexample",
                    )
                )
        for conflict, verdict in verdicts.items():
            if verdict.verdict is AmbiguityVerdict.UNAMBIGUOUS:
                result.ambiguity_unambiguous += 1
                continue
            if verdict.verdict is not AmbiguityVerdict.AMBIGUOUS:
                result.ambiguity_inconclusive += 1
                continue
            result.ambiguity_ambiguous += 1
            try:
                outcome = validator.validate_witness(verdict.witness or ())
            except Exception as error:  # noqa: BLE001
                result.problems.append(
                    (
                        FailureKind.CRASH,
                        f"ambiguity witness validation raised {error!r} on "
                        f"[{conflict}]",
                    )
                )
                continue
            if not outcome.ok:
                result.problems.append(
                    (
                        FailureKind.VALIDATOR_REJECTION,
                        f"ambiguity witness for [{conflict}] rejected: "
                        + "; ".join(outcome.failures),
                    )
                )

    # ------------------------------------------------------------------ #
    # Shrinking: greedy production removal preserving the failure kind

    def _shrink(
        self, grammar: Grammar, seed: int, kind: FailureKind
    ) -> Grammar:
        attempts = 0
        current = grammar
        improved = True
        while improved and attempts < MAX_SHRINK_ATTEMPTS:
            improved = False
            productions = list(current.user_productions())
            for index in range(len(productions)):
                candidate = self._without_production(current, index)
                if candidate is None:
                    continue
                attempts += 1
                if attempts >= MAX_SHRINK_ATTEMPTS:
                    break
                if kind in self._examine(candidate, seed).problem_kinds():
                    current = candidate
                    improved = True
                    break
        return current

    @staticmethod
    def _without_production(grammar: Grammar, index: int) -> Grammar | None:
        """*grammar* minus its *index*-th user production, if still valid."""
        productions = [
            (p.lhs, p.rhs, p.prec_override)
            for i, p in enumerate(grammar.user_productions())
            if i != index
        ]
        if not productions:
            return None
        try:
            return Grammar(
                productions,
                start=grammar.start,
                precedence=grammar.precedence,
                name=grammar.name,
            )
        except GrammarError:
            return None


def run_fuzz_campaign(
    iterations: int,
    seed: int = 0,
    config: FuzzConfig | None = None,
    progress=None,
    **harness_options,
) -> FuzzReport:
    """Module-level convenience wrapper around :class:`FuzzHarness`."""
    harness = FuzzHarness(config, **harness_options)
    return harness.run(iterations, seed=seed, progress=progress)
