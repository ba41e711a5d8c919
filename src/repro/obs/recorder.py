"""Flight recorder: a bounded ring of recent probe events plus triggers.

Recording whole runs is expensive and usually pointless — the interesting
requests are the handful in the tail.  The flight recorder keeps only the
last ``capacity`` events in a ring buffer and, when a *trigger* fires
(a request completing with slowdown above a threshold), snapshots the
ring into a bounded list of captures.  This gives "the last N events of
context around every tail anomaly" without unbounded memory.

Triggers are evaluated on completion probes only, using quantities that
are pure functions of the simulation (sim time, request ids, cycle
counts), so a flight-recorder-only run is bit-identical to an untraced
one (``tests/test_obs.py`` enforces this differentially).
"""

from collections import deque

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Ring buffer of probe event tuples (see :mod:`repro.obs.events`)
    with triggers.

    A :class:`~repro.obs.bus.ProbeBus` appends to :attr:`ring` and bumps
    :attr:`events_seen` itself, with no :meth:`record` frame per event.

    Parameters
    ----------
    capacity:
        Maximum number of events retained in the ring at any instant.
    slowdown_trigger:
        Capture the ring whenever a request completes with
        ``slowdown >= slowdown_trigger``.  ``None`` disables triggering
        (the recorder then only offers :meth:`tail` for manual inspection).
    max_captures:
        Upper bound on retained captures; later triggers beyond the bound
        only bump ``triggers_fired`` so the memory stays bounded.
    """

    __slots__ = ("capacity", "slowdown_trigger", "max_captures",
                 "ring", "captures", "triggers_fired", "events_seen")

    def __init__(self, capacity=512, slowdown_trigger=None, max_captures=32):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.slowdown_trigger = slowdown_trigger
        self.max_captures = max_captures
        #: The last ``capacity`` events, oldest first.
        self.ring = deque(maxlen=capacity)
        self.captures = []
        self.triggers_fired = 0
        self.events_seen = 0

    def record(self, event):
        """Append one probe event to the ring."""
        self.events_seen += 1
        self.ring.append(event)

    def maybe_trigger(self, t, rid, slowdown):
        """Evaluate the slowdown trigger for a just-completed request."""
        threshold = self.slowdown_trigger
        if threshold is None or slowdown < threshold:
            return False
        self.triggers_fired += 1
        if len(self.captures) < self.max_captures:
            self.captures.append({
                "rid": rid,
                "t": t,
                "slowdown": slowdown,
                "events": list(self.ring),
            })
        return True

    def tail(self):
        """The current ring contents, oldest first."""
        return list(self.ring)

    def __len__(self):
        return len(self.ring)

    def __repr__(self):
        return (
            "FlightRecorder(capacity={}, seen={}, captures={}, "
            "triggers={})".format(self.capacity, self.events_seen,
                                  len(self.captures), self.triggers_fired)
        )
