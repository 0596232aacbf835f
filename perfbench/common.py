"""Run context and small measurement helpers shared by the workloads."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Fresh interpreters timed per run for ``cli.import_s``.
IMPORT_REPEATS = 5


@dataclass
class Context:
    """Where a run reads and writes, and what it was asked to do."""

    root: Path
    workload: str
    seed: int
    seconds: float
    work: Path = field(init=False)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.work = self.root / "perfbench" / "_work" / f"{self.workload}-{self.seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def fresh(self, name: str) -> Path:
        """An empty directory under the run's work directory."""
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def trace_path(self) -> Path:
        return self.root / "perfbench" / "_work" / f"trace-{self.workload}-{self.seed}.json"

    def use_source_tree(self) -> None:
        """Import ``repro`` from this checkout's ``src`` in this process."""
        source = str(self.root / "src")
        if source not in sys.path:
            sys.path.insert(0, source)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    @staticmethod
    def peak_child_rss_mb() -> float:
        """Largest resident set of any waited-for child process, in MiB."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def percentile(values: list[float], p: int) -> float:
    """The *p*-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def import_seconds(ctx: Context) -> float:
    """Median of fresh ``import repro.cli`` minus a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))

    def timed(code: str) -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return time.perf_counter() - started

    differences = [
        timed("import repro.cli") - timed("pass") for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(differences)
