"""Time supervised worker attempts the way ``repro serve`` makes them.

Run as a script in a fresh interpreter, with analysis payloads as a JSON
list on standard input. Before forking it imports what the server has
imported, so each attempt's child pays the same lazy imports a server
worker pays. Per payload it times a supervised attempt on a warm
cache (a first attempt fills the cache), then, in-process, the same
payload on the same cache; it prints the differences as a JSON list.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import sys
import time


def main() -> int:
    payloads = json.load(sys.stdin)
    # `python -m repro serve` enters through repro.cli: the server's state
    # when it forks.
    import repro.cli  # noqa: F401
    import repro.service.app  # noqa: F401
    from repro.service.protocol import AnalyzeRequest, JobRecord
    from repro.service.supervisor import WorkerSupervisor

    supervisor = WorkerSupervisor()

    def attempt(payload: dict) -> float:
        request = AnalyzeRequest(grammar=payload["grammar"], name=payload["name"])
        started = time.perf_counter()
        ok, result, _ = asyncio.run(
            supervisor.run_job(JobRecord.new(request, time.time()), payload)
        )
        if not ok:
            raise RuntimeError(f"supervised attempt for {payload['name']} failed: {result}")
        return time.perf_counter() - started

    supervised = []
    for payload in payloads:
        attempt(payload)
        supervised.append(attempt(payload))
    multiprocessing.active_children()  # reap the finished attempt processes

    from repro.service.worker import run_analysis

    run_analysis(payloads[0])  # the in-process side pays its imports once, untimed
    differences = []
    for payload, seconds in zip(payloads, supervised):
        started = time.perf_counter()
        run_analysis(payload)
        differences.append(seconds - (time.perf_counter() - started))
    print(json.dumps(differences))
    return 0


if __name__ == "__main__":
    sys.exit(main())
