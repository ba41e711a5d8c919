"""Declarative fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is a picklable, frozen description of every fault a
run will experience, expressed in simulated microseconds.  Plans are pure
data — the :class:`~repro.faults.injector.FaultInjector` interprets them
against a live rack — so the same plan object can parameterize a
:class:`~repro.parallel.RackJob`, key the result cache, and travel to
pool workers, and two runs of the same (plan, seed) pair are bit-identical.

The fault vocabulary mirrors the failure modes the paper's environment
actually faces:

* :class:`WorkerStall` — a worker stops honoring cooperative preemption
  probes for a window (a hog: the GC pause / interrupt storm that defeats
  Concord's timeliness story without stopping the request itself);
* :class:`ServerCrash` — a whole server goes dark and later recovers;
  in-flight requests are lost, or re-queued to the balancer when
  ``requeue_inflight`` is set (failover NIC semantics);
* :class:`FabricDegradation` — every hop's latency is multiplied for a
  window (incast, a flaky uplink);
* :class:`TelemetryBlackout` — queue-length telemetry freezes: reports are
  dropped in transit and counter updates stop, so the balancer routes on
  a stale snapshot (RackSched's nightmare);
* :class:`ProbeDropout` — preemption notifications are dropped with some
  probability (instrumentation gaps), delaying yields by a re-probe period.
"""

from dataclasses import dataclass, fields
from typing import Optional, Tuple

__all__ = [
    "WorkerStall", "ServerCrash", "FabricDegradation", "TelemetryBlackout",
    "ProbeDropout", "FaultPlan", "crash_plan", "blackout_plan", "stall_plan",
]


def _require(condition, message):
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class WorkerStall:
    """Workers on ``server`` ignore preemption probes during the window.

    ``worker`` limits the stall to one wid; None stalls every worker on the
    server.  The running request keeps executing — only the cooperative
    yield is suppressed, so the quantum's expiry is honored late, exactly
    at the window's end.
    """

    at_us: float
    duration_us: float
    server: int = 0
    worker: Optional[int] = None

    def __post_init__(self):
        _require(self.at_us >= 0, "stall at_us must be >= 0")
        _require(self.duration_us > 0, "stall duration_us must be > 0")
        _require(self.server >= 0, "stall server index must be >= 0")


@dataclass(frozen=True)
class ServerCrash:
    """``server`` goes dark at ``at_us`` and recovers ``down_us`` later.

    While down, deliveries are dropped at the NIC and the dispatcher runs
    nothing.  At the crash instant every in-flight request on the server
    (queued, executing, or inside a dispatcher micro-action) is lost — or,
    with ``requeue_inflight``, handed back to the balancer, which re-routes
    each one to a healthy server from scratch.
    """

    at_us: float
    down_us: float
    server: int = 0
    requeue_inflight: bool = False

    def __post_init__(self):
        _require(self.at_us >= 0, "crash at_us must be >= 0")
        _require(self.down_us > 0, "crash down_us must be > 0")
        _require(self.server >= 0, "crash server index must be >= 0")

    @property
    def recover_at_us(self):
        return self.at_us + self.down_us


@dataclass(frozen=True)
class FabricDegradation:
    """Every fabric hop (delivery, reply, telemetry) is ``multiplier``×
    slower during the window.  Overlapping degradations multiply."""

    at_us: float
    duration_us: float
    multiplier: float = 4.0

    def __post_init__(self):
        _require(self.at_us >= 0, "degradation at_us must be >= 0")
        _require(self.duration_us > 0, "degradation duration_us must be > 0")
        _require(
            self.multiplier >= 1.0,
            "degradation multiplier must be >= 1.0 (it models loss of "
            "capacity, not a speedup)",
        )


@dataclass(frozen=True)
class TelemetryBlackout:
    """The balancer's queue view freezes during the window: in-transit
    telemetry reports are dropped.  When the window ends, the board
    refreshes with the next periodic report."""

    at_us: float
    duration_us: float

    def __post_init__(self):
        _require(self.at_us >= 0, "blackout at_us must be >= 0")
        _require(self.duration_us > 0, "blackout duration_us must be > 0")


@dataclass(frozen=True)
class ProbeDropout:
    """Preemption notifications on ``server`` (None = every server) are
    dropped with probability ``drop_prob`` during the window.  A dropped
    notification is retried one re-probe period later, so yields are
    delayed, not lost."""

    at_us: float
    duration_us: float
    drop_prob: float = 1.0
    server: Optional[int] = None

    def __post_init__(self):
        _require(self.at_us >= 0, "dropout at_us must be >= 0")
        _require(self.duration_us > 0, "dropout duration_us must be > 0")
        _require(
            0.0 < self.drop_prob <= 1.0,
            "dropout drop_prob must be in (0, 1], got {}".format(
                self.drop_prob
            ),
        )


_FAULT_TYPES = (
    WorkerStall, ServerCrash, FabricDegradation, TelemetryBlackout,
    ProbeDropout,
)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated collection of fault specs for one run."""

    faults: Tuple = ()
    name: str = "plan"

    def __post_init__(self):
        for spec in self.faults:
            if not isinstance(spec, _FAULT_TYPES):
                raise TypeError(
                    "FaultPlan entries must be fault specs, got {!r}".format(
                        type(spec).__name__
                    )
                )
        ordered = tuple(
            sorted(self.faults, key=lambda spec: spec.at_us)
        )
        object.__setattr__(self, "faults", ordered)

    def __len__(self):
        return len(self.faults)

    def validate_for(self, num_servers):
        """Raise if any spec names a server outside ``range(num_servers)``."""
        for spec in self.faults:
            server = getattr(spec, "server", None)
            if server is not None and server >= num_servers:
                raise ValueError(
                    "{} targets server {} but the rack has {}".format(
                        type(spec).__name__, server, num_servers
                    )
                )
        return self

    def by_type(self, fault_type):
        """All specs of one type, in onset order."""
        return [s for s in self.faults if isinstance(s, fault_type)]

    def describe(self):
        """One line per fault, for logs and CLI output."""
        lines = []
        for spec in self.faults:
            parts = [
                "{}={!r}".format(f.name, getattr(spec, f.name))
                for f in fields(spec)
            ]
            lines.append(
                "{}({})".format(type(spec).__name__, ", ".join(parts))
            )
        return lines


# -- canned plans (experiments, CLI, CI smoke) ---------------------------------

def crash_plan(at_us, down_us, server=0, requeue_inflight=False,
               name="crash"):
    """One server crash + recovery."""
    return FaultPlan(
        faults=(
            ServerCrash(
                at_us=at_us, down_us=down_us, server=server,
                requeue_inflight=requeue_inflight,
            ),
        ),
        name=name,
    )


def blackout_plan(windows, name="blackout"):
    """Telemetry blackouts at each ``(at_us, duration_us)`` window."""
    return FaultPlan(
        faults=tuple(
            TelemetryBlackout(at_us=at, duration_us=duration)
            for at, duration in windows
        ),
        name=name,
    )


def stall_plan(at_us, duration_us, server=0, worker=None, name="stall"):
    """One worker-stall window."""
    return FaultPlan(
        faults=(
            WorkerStall(
                at_us=at_us, duration_us=duration_us, server=server,
                worker=worker,
            ),
        ),
        name=name,
    )
