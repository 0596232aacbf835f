"""Unit tests for the unified budget model (repro.robust.budget)."""

import pytest

from repro.robust import (
    AdaptiveTicker,
    Budget,
    BudgetExhausted,
    Cancelled,
    CancellationToken,
    SearchTimeout,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestCancellationToken:
    def test_cancel_is_sticky_and_carries_reason(self):
        token = CancellationToken()
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op before cancellation
        token.cancel("user hit ^C")
        assert token.cancelled
        with pytest.raises(Cancelled, match="user hit"):
            token.raise_if_cancelled("search")

    def test_budget_poll_raises_cancelled_immediately(self):
        token = CancellationToken()
        budget = Budget(token=token, stage="search")
        budget.poll()
        token.cancel()
        with pytest.raises(Cancelled):
            budget.poll()


class TestAdaptiveTicker:
    def test_first_tick_always_fires(self):
        ticker = AdaptiveTicker(clock=FakeClock())
        assert ticker.tick() is True

    def test_interval_grows_geometrically_when_fast(self):
        ticker = AdaptiveTicker(clock=FakeClock(), max_interval=8)
        intervals = []
        for _ in range(64):
            if ticker.tick():
                intervals.append(ticker.interval)
        # 2, 4, 8, then capped at 8.
        assert intervals[:4] == [2, 4, 8, 8]

    def test_slow_stretch_resets_cadence_to_one(self):
        clock = FakeClock()
        ticker = AdaptiveTicker(clock=clock, slow_stretch=0.05)
        assert ticker.tick()  # fire 1: interval -> 2
        assert not ticker.tick()
        assert ticker.tick()  # fire 2: interval -> 4
        clock.t += 1.0  # a slow expansion happens here
        for _ in range(4):
            fired = ticker.tick()
        assert fired  # the 4-tick window elapses...
        assert ticker.interval == 1  # ...and the slow stretch collapses it

    def test_interval_never_exceeds_cap(self):
        ticker = AdaptiveTicker(clock=FakeClock(), max_interval=16)
        for _ in range(10_000):
            ticker.tick()
        assert ticker.interval <= 16


class TestBudget:
    def test_node_budget_exhaustion(self):
        budget = Budget(max_nodes=3, stage="search")
        for _ in range(3):
            budget.charge()
            budget.poll()
        budget.charge()
        with pytest.raises(BudgetExhausted) as excinfo:
            budget.poll()
        assert excinfo.value.stage == "search"
        assert excinfo.value.context["nodes_spent"] == 4

    def test_zero_time_limit_raises_on_first_check(self):
        clock = FakeClock(50.0)
        budget = Budget(time_limit=0.0, clock=clock)
        with pytest.raises(SearchTimeout):
            budget.poll("lasg")

    def test_deadline_anchors_lazily(self):
        clock = FakeClock(10.0)
        budget = Budget(time_limit=5.0, clock=clock)
        clock.t = 20.0  # time passes before first use
        budget.poll()  # anchors at t=20; deadline 25
        clock.t = 24.0
        budget.check()  # still inside
        clock.t = 26.0
        with pytest.raises(SearchTimeout):
            budget.check()

    def test_elapsed_and_remaining_time(self):
        clock = FakeClock(0.0)
        budget = Budget(time_limit=10.0, clock=clock).start()
        clock.t = 4.0
        assert budget.elapsed() == pytest.approx(4.0)

    def test_unbounded_budget_never_raises(self):
        budget = Budget()
        for _ in range(10_000):
            budget.charge()
            budget.poll()
