#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics through the real entry
points (``python -m repro`` subprocesses, or ``repro serve`` over HTTP);
``--trace 1`` makes the separate traced run that gives the per-layer
metrics (see BENCHMARK.json for both lists and README.md for what each
metric means). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import clisweep  # noqa: E402
import service_open  # noqa: E402
from common import Context  # noqa: E402
from workloads import WORKLOADS, CliWorkload  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    workload = WORKLOADS[args.workload]
    module = clisweep if isinstance(workload, CliWorkload) else service_open
    ctx = Context(ROOT, workload.name, args.seed, args.seconds)
    try:
        outcome = (module.run_traced if args.trace else module.run_untraced)(ctx, workload)
    finally:
        ctx.cleanup()

    metrics = outcome["metrics"]
    if set(metrics) != set(units):
        print(
            "error: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 2
    print(f"# workload {workload.name}: {workload.why}")
    for note in ctx.notes:
        print(f"# {note}")
    for name in units:
        print(f"{name:34} {metrics[name]:>14.6f} {units[name]}")
    for error in outcome["errors"]:
        print(f"CHECK FAILED: {error}")
    correct = not outcome["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
