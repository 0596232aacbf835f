"""The unified resource budget threaded through the pipeline.

One :class:`Budget` replaces the three ad-hoc timing mechanisms the
finder and search used to carry separately (a per-conflict deadline
polled every 256 expansions, a cumulative stopwatch, and a bare
configuration cap). A budget combines:

* a wall-clock deadline (optional);
* a discrete node/configuration/step cap (optional);
* a shared :class:`CancellationToken` (optional).

Budgets are *cooperative*: governed loops call :meth:`Budget.charge` for
every unit of work and :meth:`Budget.poll` once per iteration. ``poll``
keeps the cheap checks (cancellation flag, node count) on every call and
gates the expensive one (``time.monotonic``) behind an
:class:`AdaptiveTicker`, whose cadence starts at 1, grows geometrically
while iterations are fast, and collapses back to 1 the moment a slow
stretch is observed — so a burst of expensive expansions can never
overrun the deadline by a whole fixed-size polling window.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.robust.errors import BudgetExhausted, Cancelled, SearchTimeout

Clock = Callable[[], float]


class CancellationToken:
    """A caller-owned flag that cooperatively stops a whole run.

    Cancellation is sticky: once :meth:`cancel` is called, every budget
    sharing the token raises :class:`~repro.robust.errors.Cancelled` at
    its next poll.
    """

    __slots__ = ("_cancelled", "_reason")

    def __init__(self) -> None:
        self._cancelled = False
        self._reason = ""

    def cancel(self, reason: str = "cancelled by caller") -> None:
        self._cancelled = True
        self._reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> str:
        return self._reason

    def raise_if_cancelled(self, stage: str | None = None) -> None:
        if self._cancelled:
            raise Cancelled(self._reason or "cancelled", stage=stage)


class AdaptiveTicker:
    """Adaptive cadence for polling an expensive clock inside a hot loop.

    The first :meth:`tick` always fires (so a zero deadline is noticed on
    iteration one, not iteration 256). After a fast stretch the interval
    doubles, up to ``max_interval``; after any stretch slower than
    ``slow_stretch`` seconds it resets to 1, so one expensive expansion
    forces an immediate re-check.
    """

    __slots__ = ("_interval", "_until_next", "_last_fire", "_clock",
                 "max_interval", "slow_stretch")

    def __init__(
        self,
        max_interval: int = 256,
        slow_stretch: float = 0.05,
        clock: Clock = time.monotonic,
    ) -> None:
        self.max_interval = max_interval
        self.slow_stretch = slow_stretch
        self._clock = clock
        self._interval = 1
        self._until_next = 1
        self._last_fire: float | None = None

    @property
    def interval(self) -> int:
        """Current iterations-per-check cadence (for tests/telemetry)."""
        return self._interval

    def tick(self) -> bool:
        """Count one iteration; ``True`` when the caller should check."""
        self._until_next -= 1
        if self._until_next > 0:
            return False
        now = self._clock()
        if self._last_fire is not None and now - self._last_fire > self.slow_stretch:
            self._interval = 1
        else:
            self._interval = min(self._interval * 2, self.max_interval)
        self._last_fire = now
        self._until_next = self._interval
        return True


class Budget:
    """A unified, cooperatively-polled resource budget.

    Args:
        time_limit: Wall-clock seconds; the deadline anchors lazily at the
            first charge/poll, so a budget may be built ahead of use.
        max_nodes: Cap on units charged via :meth:`charge`
            (configurations, vertices, Earley steps — the stage decides
            the unit).
        token: Shared cancellation token.
        stage: Default stage name attached to raised errors.
        clock: Injectable clock (tests use a fake).
    """

    def __init__(
        self,
        time_limit: float | None = None,
        max_nodes: int | None = None,
        token: CancellationToken | None = None,
        stage: str | None = None,
        clock: Clock = time.monotonic,
    ) -> None:
        self.time_limit = time_limit
        self.max_nodes = max_nodes
        self.token = token
        self.stage = stage
        self._clock = clock
        self.nodes_spent = 0
        self._started_at: float | None = None
        self._deadline: float | None = None
        self._ticker = AdaptiveTicker(clock=clock)

    # ------------------------------------------------------------------ #

    def start(self) -> "Budget":
        """Anchor the deadline now (idempotent)."""
        if self._started_at is None:
            self._started_at = self._clock()
            if self.time_limit is not None:
                self._deadline = self._started_at + self.time_limit
        return self

    def elapsed(self) -> float:
        """Wall-clock seconds since the budget was first used."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    # ------------------------------------------------------------------ #

    def charge(self, nodes: int = 1) -> None:
        """Record *nodes* units of work (checked at the next poll)."""
        self.nodes_spent += nodes

    def poll(self, stage: str | None = None) -> None:
        """Cheap per-iteration check; full check at the ticker's cadence.

        Raises :class:`Cancelled`, :class:`BudgetExhausted`, or
        :class:`SearchTimeout`.
        """
        stage = stage or self.stage
        if self.token is not None and self.token.cancelled:
            self.token.raise_if_cancelled(stage)
        if self.max_nodes is not None and self.nodes_spent > self.max_nodes:
            raise BudgetExhausted(
                f"node budget of {self.max_nodes} exhausted",
                stage=stage,
                nodes_spent=self.nodes_spent,
            )
        if self._ticker.tick():
            self.check(stage)

    def check(self, stage: str | None = None) -> None:
        """Unconditional full check (deadline + cheap checks)."""
        stage = stage or self.stage
        self.start()
        if self.token is not None:
            self.token.raise_if_cancelled(stage)
        if self.max_nodes is not None and self.nodes_spent > self.max_nodes:
            raise BudgetExhausted(
                f"node budget of {self.max_nodes} exhausted",
                stage=stage,
                nodes_spent=self.nodes_spent,
            )
        if self._deadline is not None and self._clock() >= self._deadline:
            raise SearchTimeout(
                f"time limit of {self.time_limit}s expired",
                stage=stage,
                elapsed=round(self.elapsed(), 4),
            )
