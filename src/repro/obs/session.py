"""Trace sessions: ambient wiring from "trace this run" to probe buses.

A :class:`TraceSession` is the per-process container for one traced
execution: it holds the :class:`TraceConfig`, mints one
:class:`~repro.obs.bus.ProbeBus` per instrumented component (each server
in a rack gets its own, plus one for the balancer), and collects them for
export.  Sessions are installed ambiently with :func:`tracing`::

    with tracing(TraceConfig.full()) as session:
        result = server.run(workload, arrival, 20000)
    payload = chrome_trace(session.buses, server.clock)

Components discover the active session through :func:`resolve_probes`
(called from ``Server.__init__``): no session -> ``probes`` stays ``None``
and every probe site short-circuits on one falsy check.  The ambient
global is process-local by design — traced runs execute serially
in-process (the CLI disables the parallel runner for them), so worker
processes of a :class:`~repro.parallel.runner.ParallelRunner` never
observe a session and cached/parallel results stay trace-free.
"""

from contextlib import contextmanager
from dataclasses import dataclass

from repro import constants
from repro.obs.bus import ProbeBus
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import TelemetryRegistry

__all__ = [
    "TraceConfig",
    "TraceSession",
    "tracing",
    "active_session",
    "resolve_probes",
]


@dataclass(frozen=True)
class TraceConfig:
    """What to capture during a traced run.

    ``record_events`` keeps the full in-order event log (timeline export
    needs it); ``flight_capacity`` > 0 attaches a bounded
    :class:`~repro.obs.recorder.FlightRecorder` whose ``slowdown_trigger``
    snapshots the ring around tail completions; a positive
    ``sample_interval_us`` samples per-worker queue depth/busy state at
    that simulated period (piggybacked on probe instants — never via
    scheduled events).
    """

    record_events: bool = True
    flight_capacity: int = 0
    slowdown_trigger: float = constants.SLOWDOWN_SLO
    max_captures: int = 32
    sample_interval_us: float = 0.0
    #: Full event logs are kept for at most this many buses per session
    #: (later runs keep counters + flight recorder only), bounding trace
    #: memory when a whole experiment sweep runs under one session.
    #: ``None`` removes the bound.
    max_recorded_runs: int = 8

    def __post_init__(self):
        for name in ("flight_capacity", "max_captures", "sample_interval_us",
                     "max_recorded_runs"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(
                    "TraceConfig.{} must be non-negative, got {!r}".format(
                        name, value)
                )

    @classmethod
    def full(cls, sample_interval_us=25.0, flight_capacity=512,
             slowdown_trigger=constants.SLOWDOWN_SLO):
        """Everything on: event log, flight recorder, sampling."""
        return cls(
            record_events=True,
            flight_capacity=flight_capacity,
            slowdown_trigger=slowdown_trigger,
            sample_interval_us=sample_interval_us,
        )

    @classmethod
    def flight_only(cls, capacity=512,
                    slowdown_trigger=constants.SLOWDOWN_SLO):
        """Ring buffer + triggers only; no full event log (bounded memory
        for long runs)."""
        return cls(
            record_events=False,
            flight_capacity=capacity,
            slowdown_trigger=slowdown_trigger,
        )


class TraceSession:
    """One traced execution: a config plus the buses it minted."""

    def __init__(self, config=None):
        self.config = config if config is not None else TraceConfig()
        self.buses = []

    def make_bus(self, label, clock=None):
        """Mint a bus configured per the session; labels are made unique
        (``concord``, ``concord#1``, ...) so rack members stay distinct."""
        config = self.config
        clashes = sum(
            1 for bus in self.buses
            if bus.label == label or bus.label.startswith(label + "#")
        )
        if clashes:
            label = "{}#{}".format(label, clashes)
        record_events = config.record_events
        if record_events and config.max_recorded_runs is not None:
            already = sum(1 for bus in self.buses if bus.record_events)
            if already >= config.max_recorded_runs:
                record_events = False
        recorder = None
        if config.flight_capacity > 0:
            recorder = FlightRecorder(
                capacity=config.flight_capacity,
                slowdown_trigger=config.slowdown_trigger,
                max_captures=config.max_captures,
            )
        interval = 0
        if clock is not None and config.sample_interval_us > 0:
            interval = clock.us_to_cycles(config.sample_interval_us)
        bus = ProbeBus(
            label,
            record_events=record_events,
            recorder=recorder,
            sample_interval=interval,
        )
        bus.clock = clock
        self.buses.append(bus)
        return bus

    def merged_counters(self):
        """Counters summed across every bus."""
        merged = TelemetryRegistry()
        for bus in self.buses:
            merged.merge_counts(bus.registry)
        return merged

    def __repr__(self):
        return "TraceSession(buses={}, config={!r})".format(
            len(self.buses), self.config
        )


_ACTIVE = None


def active_session():
    """The ambient :class:`TraceSession`, or None when untraced."""
    return _ACTIVE


@contextmanager
def tracing(config=None):
    """Install a :class:`TraceSession` ambiently for the ``with`` body."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a trace session is already active")
    session = TraceSession(config)
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None


def resolve_probes(server):
    """The seam ``Server.__init__`` calls: a bus from the ambient session,
    or None (the zero-overhead default)."""
    session = _ACTIVE
    if session is None:
        return None
    bus = session.make_bus(server.config.name, clock=server.clock)
    return bus.bind_server(server)
