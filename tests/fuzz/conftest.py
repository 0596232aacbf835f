"""Shared fuzz fixtures."""

import pytest

from repro.verify import run_fuzz_campaign


@pytest.fixture(scope="session")
def campaign_30():
    """``run_fuzz_campaign(30, seed=0, shrink=False)``, run once per session.

    The ambiguity and provenance canaries both assert on its counters.
    """
    return run_fuzz_campaign(30, seed=0, shrink=False)
