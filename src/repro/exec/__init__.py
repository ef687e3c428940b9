"""Execution substrate: the real backends.

Sequential, thread and process backends behind one ``map`` protocol,
the shared-memory data plane, per-task span tracing, resilience and
fault injection. The paper's simulated multicore node (machine spec,
virtual-time scheduler, timelines) is :mod:`repro.sim`.
"""

from repro.exec.faultinject import FAULT_KINDS, FaultInjected, FaultPlan, FaultSpec
from repro.exec.inline import (
    ExecutionBackend,
    SequentialBackend,
    ThreadBackend,
    auto_grain,
)
from repro.exec.process import BACKEND_CHOICES, ProcessBackend, make_backend
from repro.exec.resilience import (
    DowngradeEvent,
    QuarantineReport,
    QuarantinedItem,
    ResilienceConfig,
    RetryPolicy,
)
from repro.exec.shm import IpcStats, shm_available
from repro.exec.spans import RunTrace, SpanRecorder, TaskSpan
from repro.exec.task import TaskCost

__all__ = [
    "TaskCost",
    "auto_grain",
    "ExecutionBackend",
    "SequentialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "BACKEND_CHOICES",
    "IpcStats",
    "shm_available",
    "RunTrace",
    "SpanRecorder",
    "TaskSpan",
    "RetryPolicy",
    "ResilienceConfig",
    "QuarantinedItem",
    "QuarantineReport",
    "DowngradeEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultInjected",
    "FAULT_KINDS",
]
