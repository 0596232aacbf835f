"""Supervised grammar-analysis service.

An asyncio HTTP/JSON front over the counterexample pipeline with the
full robustness stack: admission control with load shedding
(:mod:`repro.service.admission`), subprocess worker supervision with
retries and hang/crash detection (:mod:`repro.service.supervisor`),
per-grammar circuit breakers (:mod:`repro.service.breaker`), and a
crash-safe journaled job store with restart resume
(:mod:`repro.service.journal`). See ``docs/SERVICE.md``.
"""

from repro.service.admission import (
    Admitted,
    AdmissionConfig,
    AdmissionController,
    Decision,
    Rejected,
    Shed,
)
from repro.service.app import AnalysisService, ServiceConfig, serve_main
from repro.service.breaker import BreakerBoard, BreakerState, CircuitBreaker
from repro.service.journal import JobJournal, resumable
from repro.service.protocol import (
    AnalyzeOptions,
    AnalyzeRequest,
    JobRecord,
    JobState,
    ProtocolError,
    degraded_result,
)
from repro.service.supervisor import SupervisorConfig, WorkerSupervisor
from repro.service.worker import CRASH_EXIT_CODE, prepare_attempt, run_analysis

__all__ = [
    "Admitted",
    "AdmissionConfig",
    "AdmissionController",
    "AnalysisService",
    "AnalyzeOptions",
    "AnalyzeRequest",
    "BreakerBoard",
    "BreakerState",
    "CRASH_EXIT_CODE",
    "CircuitBreaker",
    "Decision",
    "JobJournal",
    "JobRecord",
    "JobState",
    "ProtocolError",
    "Rejected",
    "ServiceConfig",
    "Shed",
    "SupervisorConfig",
    "WorkerSupervisor",
    "degraded_result",
    "prepare_attempt",
    "resumable",
    "serve_main",
    "run_analysis",
]
