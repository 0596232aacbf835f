"""Generic retry policy: capped attempts, exponential backoff, jitter.

:class:`RetryPolicy` is the policy half of a retry loop (how many
attempts, how long to wait between them); the caller keeps the
mechanism (what "failure" means, how to sleep). The service supervisor
consumes :meth:`RetryPolicy.delay` when it re-spawns crashed workers,
awaiting its own sleeps:

* delays grow geometrically from ``base_delay`` by ``multiplier`` and
  are clamped at ``max_delay``;
* optional proportional jitter (``±jitter`` fraction) desynchronises
  herds of retriers — pass a seeded :class:`random.Random` to keep runs
  deterministic;
* ``max_attempts`` counts *total* attempts including the first, so
  ``max_attempts=1`` means "never retry" and the default of 3 means
  "two retries".
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How often to retry and how long to back off in between.

    Args:
        max_attempts: Total attempts, including the first (>= 1).
        base_delay: Seconds before the first retry.
        multiplier: Geometric growth factor per subsequent retry.
        max_delay: Clamp on any single backoff delay.
        jitter: Proportional jitter: each delay is scaled by a uniform
            factor in ``[1 - jitter, 1 + jitter]`` when an RNG is given.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    # ------------------------------------------------------------------ #

    @property
    def max_retries(self) -> int:
        """Retries after the first attempt."""
        return self.max_attempts - 1

    def should_retry(self, attempts_made: int) -> bool:
        """Whether another attempt is allowed after *attempts_made* (>= 1)."""
        return attempts_made < self.max_attempts

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before the retry that follows failed attempt *attempt*.

        *attempt* is 1-based: ``delay(1)`` precedes the second attempt.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if rng is not None and self.jitter > 0.0 and raw > 0.0:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


__all__ = ["RetryPolicy"]
