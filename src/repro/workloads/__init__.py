"""Workload models: service-time distributions and arrival processes.

All service times are expressed in microseconds (floats); the scheduler
simulation converts them to cycles through the machine's clock.  Every
distribution in the paper's evaluation (section 5.1-5.3) has a named
constructor in :mod:`repro.workloads.named`.
"""

from repro.workloads.distributions import (
    ClassMix,
    Distribution,
    Exponential,
    Fixed,
    Lognormal,
    RequestClass,
    Uniform,
)
from repro.workloads.arrivals import (
    ArrivalProcess,
    DeterministicProcess,
    PoissonProcess,
    open_loop,
)
from repro.workloads.named import (
    bimodal_50_1_50_100,
    bimodal_995_05_500,
    fixed_1us,
    leveldb_50get_50scan,
    leveldb_zippydb,
    tpcc,
    NAMED_WORKLOADS,
    workload_by_name,
)
from repro.workloads.trace import Trace, TraceRecord

__all__ = [
    "ClassMix",
    "Distribution",
    "Exponential",
    "Fixed",
    "Lognormal",
    "RequestClass",
    "Uniform",
    "ArrivalProcess",
    "DeterministicProcess",
    "PoissonProcess",
    "open_loop",
    "bimodal_50_1_50_100",
    "bimodal_995_05_500",
    "fixed_1us",
    "leveldb_50get_50scan",
    "leveldb_zippydb",
    "tpcc",
    "NAMED_WORKLOADS",
    "workload_by_name",
    "Trace",
    "TraceRecord",
]
