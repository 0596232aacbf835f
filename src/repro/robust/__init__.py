"""Resource governance and fault isolation for the explanation pipeline.

This package makes the whole counterexample pipeline budget-governed,
cancellable, and fault-isolated:

* :mod:`repro.robust.budget` — the unified :class:`Budget` (wall clock,
  node cap, cancellation) and :class:`CancellationToken`, polled
  cooperatively with an adaptive cadence;
* :mod:`repro.robust.errors` — the structured
  :class:`ExplanationError` hierarchy the stages raise;
* :mod:`repro.robust.degrade` — the :func:`run_guarded` stage boundary
  and the :class:`DegradedExplanation` record behind the three-rung
  degradation ladder (unifying → nonunifying → conflict stub);
* :mod:`repro.robust.faults` — the deterministic fault-injection
  registry tests use to prove the ladder always terminates;
* :mod:`repro.robust.ledger` — the generic crash-safe snapshot ledger
  (append-only JSONL, torn-write tolerant, atomically rotated) behind
  the service journal and the campaign shard checkpoints;
* :mod:`repro.robust.retry` — the :class:`RetryPolicy` backoff schedule
  the service supervisor re-spawns crashed workers with.

See ``docs/ROBUSTNESS.md`` for the full model.
"""

from repro.robust.budget import AdaptiveTicker, Budget, CancellationToken
from repro.robust.degrade import (
    DegradedExplanation,
    GuardOutcome,
    Rung,
    Stage,
    degradation_from,
    run_guarded,
)
from repro.robust.errors import (
    BudgetExhausted,
    Cancelled,
    ExplanationError,
    PathNotFoundError,
    SearchTimeout,
    VerificationFailed,
)
from repro.robust.faults import (
    ENV_FAULTS,
    INJECTION_POINTS,
    FaultKind,
    FaultRegistry,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    InjectedTornWrite,
    fire,
    inject_faults,
    install_from_env,
    registry,
    specs_to_env,
)
from repro.robust.ledger import ReplayStats, SnapshotLedger
from repro.robust.retry import RetryPolicy

__all__ = [
    "AdaptiveTicker",
    "Budget",
    "BudgetExhausted",
    "Cancelled",
    "CancellationToken",
    "ENV_FAULTS",
    "DegradedExplanation",
    "ExplanationError",
    "FaultKind",
    "FaultRegistry",
    "FaultSpec",
    "GuardOutcome",
    "INJECTION_POINTS",
    "InjectedCrash",
    "InjectedFault",
    "InjectedHang",
    "InjectedTornWrite",
    "PathNotFoundError",
    "ReplayStats",
    "RetryPolicy",
    "SnapshotLedger",
    "Rung",
    "SearchTimeout",
    "Stage",
    "VerificationFailed",
    "degradation_from",
    "fire",
    "inject_faults",
    "install_from_env",
    "registry",
    "run_guarded",
    "specs_to_env",
]
