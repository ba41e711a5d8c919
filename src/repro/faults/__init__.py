"""Deterministic fault injection and balancer-side resilience.

``repro.faults`` turns the rack layer into a resilience testbed: a
picklable :class:`FaultPlan` declares what breaks and when (worker
stalls, server crashes, fabric degradation, telemetry blackouts, probe
dropout), a :class:`FaultInjector` replays it deterministically from its
own seeded RNG stream, and a :class:`ResilienceManager` (failure
detection, timeouts/retries, hedging, health-aware routing, load
shedding) fights back.  A run with no plan and no resilience config never
executes any of this code — every hook is behind an ``is None`` guard —
so the fault-free hot path stays bit-identical.

Entry point: ``Cluster(..., fault_plan=plan, resilience=config)`` or the
picklable :class:`repro.parallel.RackJob` with the same two fields, whose
row carries the fault and resilience counters (zero without a plan).
"""

from repro.faults.detector import DetectorConfig, FailureDetector
from repro.faults.injector import (
    CrashRecord, FaultInjector, ServerFaultState,
)
from repro.faults.plan import (
    FabricDegradation, FaultPlan, ProbeDropout, ServerCrash,
    TelemetryBlackout, WorkerStall, blackout_plan, crash_plan, stall_plan,
)
from repro.faults.resilience import ResilienceConfig, ResilienceManager

__all__ = [
    "FaultPlan", "WorkerStall", "ServerCrash", "FabricDegradation",
    "TelemetryBlackout", "ProbeDropout",
    "crash_plan", "blackout_plan", "stall_plan",
    "FaultInjector", "ServerFaultState", "CrashRecord",
    "DetectorConfig", "FailureDetector",
    "ResilienceConfig", "ResilienceManager",
]
