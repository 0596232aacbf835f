"""``campaign run`` validates its counts the way ``repro-conflicts`` does."""

from __future__ import annotations

import os

import pytest

import repro.campaign.cli as cli_module
from repro.campaign.cli import campaign_main


def _run(tmp_path, *flags: str) -> list[str]:
    return ["run", "--out", str(tmp_path), "--fuzz-iterations", "1", "--quiet", *flags]


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--shards", "0"), "must be >= 1"),
        (("--shards", "-1"), "must be >= 1"),
        (("--jobs", "-2"), "must be >= 0"),
        (("--retries", "-1"), "must be >= 0"),
    ],
)
def test_bad_count_is_a_usage_error(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as exited:
        campaign_main(_run(tmp_path, *flags))
    assert exited.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # nothing ran


def test_jobs_zero_means_the_cpu_count(tmp_path, monkeypatch):
    seen = {}

    class Recorder:
        def __init__(self, spec, out, *, jobs, **_options):
            seen["jobs"] = jobs

        def run_local(self, shards):
            return []

    monkeypatch.setattr(cli_module, "CampaignScheduler", Recorder)
    assert campaign_main(_run(tmp_path, "--jobs", "0")) == 0
    assert seen["jobs"] == (os.cpu_count() or 1)
