"""Structured exceptions for the explanation pipeline.

Every failure the pipeline can recover from is an
:class:`ExplanationError`. The hierarchy replaces the bare
``RuntimeError``s the early stages used to raise: each exception carries
the *stage* it came from and whatever conflict/state context the raiser
had, so a degraded report entry can name both without parsing message
strings.

The hierarchy::

    ExplanationError
    ├── PathNotFoundError        the LASG / backward walk found no path
    ├── SearchTimeout            a wall-clock deadline expired
    ├── BudgetExhausted          a node/step/configuration budget ran out
    ├── VerificationFailed       the Earley oracle rejected a candidate
    └── Cancelled                the caller's CancellationToken fired

``Cancelled`` is deliberately *not* absorbed by the per-stage guard
(:func:`repro.robust.degrade.run_guarded` re-raises it): cancellation
means "stop the whole run", not "skip this stage".
"""

from __future__ import annotations

from typing import Any


class ExplanationError(Exception):
    """Base class for recoverable pipeline failures.

    Args:
        message: Human-readable description.
        stage: Pipeline stage name (one of ``repro.robust.degrade.Stage``
            values), when known at raise time.
        context: Free-form extra context (conflict, state id, counters);
            values are stringified lazily by :meth:`describe`.
    """

    def __init__(
        self, message: str, *, stage: str | None = None, **context: Any
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.context = context

    def describe(self) -> str:
        """The message plus any stage/context annotations."""
        parts = [str(self.args[0]) if self.args else type(self).__name__]
        if self.stage:
            parts.append(f"stage={self.stage}")
        parts.extend(f"{key}={value}" for key, value in self.context.items())
        return "; ".join(parts)


class PathNotFoundError(ExplanationError):
    """No lookahead-sensitive path (or backward walk) reaches the target.

    On a well-formed automaton this indicates an internal inconsistency —
    LALR conflicts are always reachable — so it is reported as a degraded
    entry rather than silently tolerated.
    """


class SearchTimeout(ExplanationError):
    """A cooperative wall-clock deadline expired mid-stage."""


class BudgetExhausted(ExplanationError):
    """A discrete budget (configurations, nodes, steps) ran out."""


class VerificationFailed(ExplanationError):
    """The independent Earley oracle could not confirm a counterexample."""


class Cancelled(ExplanationError):
    """The caller's :class:`~repro.robust.budget.CancellationToken` fired."""
