"""Load sweeps: the x-axis of every "slowdown vs load" figure.

:func:`run_sweep_point` simulates one runtime configuration at one offered
load (a fresh server per point, so every configuration sees the same
arrival randomness) and records the tail slowdown as a :class:`SweepPoint`;
:class:`repro.parallel.SimJob` wraps it as a job, and
:func:`repro.experiments.common.sweep_systems` maps those jobs over a grid
of loads.  :func:`knee_load` extracts the paper's headline number — the
maximum load sustained within the SLO — by interpolating where the tail
curve crosses the SLO.
"""

from dataclasses import dataclass
from typing import Optional

from repro import constants
from repro.core.server import Server
from repro.metrics.slowdown import summarize_slowdowns
from repro.workloads.arrivals import PoissonProcess

__all__ = ["SweepPoint", "knee_load", "run_sweep_point"]


@dataclass(frozen=True)
class SweepPoint:
    """One (offered load, tail behaviour) sample."""

    load_rps: float
    p50: float
    p99: float
    p999: float
    mean: float
    throughput_rps: float
    dispatcher_utilization: float
    worker_idle_fraction: float
    steals: int
    steal_completions: int
    completed: int


def run_sweep_point(machine, config, workload, load_rps, num_requests,
                    seed=1, arrival_factory=None):
    """Simulate one (config, offered load) point and return its
    :class:`SweepPoint`.

    This is the body of :class:`repro.parallel.SimJob`, the unit of work
    the parallel executor ships to worker processes; it is a pure function
    of its arguments (a fresh server is built from ``seed``), which is what
    makes parallel sweeps bit-identical to serial ones.
    ``arrival_factory`` maps a rate to an arrival process; the default is
    open-loop Poisson (section 5.1).  The first 10% of completions are
    discarded as warmup.
    """
    factory = arrival_factory or PoissonProcess
    server = Server(machine, config, seed=seed)
    result = server.run(workload, factory(load_rps), num_requests)
    summary = summarize_slowdowns(result.slowdowns())
    return SweepPoint(
        load_rps=load_rps,
        p50=summary.p50,
        p99=summary.p99,
        p999=summary.p999,
        mean=summary.mean,
        throughput_rps=result.throughput_rps(),
        dispatcher_utilization=result.dispatcher_utilization(),
        worker_idle_fraction=result.worker_idle_fraction(),
        steals=result.dispatcher_stats["steals_started"],
        steal_completions=result.dispatcher_stats["steal_completions"],
        completed=len(result.records),
    )


def knee_load(points, slo=constants.SLOWDOWN_SLO):
    """The highest offered load whose p99.9 slowdown is within ``slo``,
    linearly interpolated between the last point under the SLO and the
    first point over it.  Returns 0.0 if even the lightest load violates
    the SLO, and the highest measured load if none does.
    """
    ordered = sorted(points, key=lambda p: p.load_rps)
    if not ordered:
        raise ValueError("no sweep points")
    best: Optional[float] = None
    for i, point in enumerate(ordered):
        if point.p999 <= slo:
            best = point.load_rps
            continue
        if best is None:
            return 0.0
        prev = ordered[i - 1]
        # Interpolate the SLO crossing between prev (under) and point (over).
        span = point.p999 - prev.p999
        if span <= 0:
            return point.load_rps
        frac = (slo - prev.p999) / span
        return prev.load_rps + frac * (point.load_rps - prev.load_rps)
    return best if best is not None else 0.0
