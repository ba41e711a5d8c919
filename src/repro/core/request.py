"""Request objects tracked through the simulated server, and the feed that
posts an open-loop request stream on the event loop."""

__all__ = ["Request", "ArrivalFeed"]


class Request:
    """One in-flight request.

    Work accounting is in *uninstrumented* service cycles: ``service_cycles``
    is the request's intrinsic cost and ``remaining_cycles`` counts down as
    workers execute it.  Instrumentation and runtime overheads stretch the
    wall-clock time a worker spends per unit of work but never change these
    fields, which keeps the slowdown denominator the paper's "un-instrumented
    service time" (section 5.1).
    """

    __slots__ = (
        "rid",
        "kind",
        "arrival_cycle",
        "service_cycles",
        "service_us",
        "remaining_cycles",
        "first_dispatch_cycle",
        "completion_cycle",
        "preemptions",
        "migrations",
        "started_by_dispatcher",
        "last_worker",
        "payload",
    )

    def __init__(self, rid, kind, arrival_cycle, service_cycles, service_us,
                 payload=None):
        if service_cycles <= 0:
            raise ValueError(
                "request {} has non-positive service {}".format(rid, service_cycles)
            )
        self.rid = rid
        self.kind = kind
        self.arrival_cycle = arrival_cycle
        self.service_cycles = service_cycles
        self.service_us = service_us
        self.remaining_cycles = service_cycles
        self.first_dispatch_cycle = None
        self.completion_cycle = None
        self.preemptions = 0
        #: Resumptions on a different worker than the previous slice ran on
        #: (cold caches; locality-aware placement minimizes these).
        self.migrations = 0
        #: Once the work-conserving dispatcher starts a request it must finish
        #: it (section 3.3): the two code versions are instrumented
        #: differently, so contexts cannot migrate.
        self.started_by_dispatcher = False
        self.last_worker = None
        self.payload = payload

    @property
    def done(self):
        return self.completion_cycle is not None

    def sojourn_cycles(self):
        """Cycles from arrival to completion (raises if not done)."""
        if self.completion_cycle is None:
            raise ValueError("request {} has not completed".format(self.rid))
        return self.completion_cycle - self.arrival_cycle

    def slowdown(self):
        """Sojourn time over un-instrumented service time (section 5.1)."""
        return self.sojourn_cycles() / self.service_cycles

    def __repr__(self):
        return (
            "Request(rid={}, kind={!r}, service_us={:g}, remaining={}, "
            "preemptions={})".format(
                self.rid, self.kind, self.service_us, self.remaining_cycles,
                self.preemptions,
            )
        )


class ArrivalFeed:
    """Posts a stream of ``(arrival_us, kind, service_us)`` (e.g.
    :func:`repro.workloads.arrivals.open_loop`) on ``sim``, one request at a
    time, and hands each :class:`Request` to ``deliver`` when its arrival
    fires.

    Building the feed posts the first arrival; the event queue then holds
    the feed.  The next item is pulled only after ``deliver`` returns, so
    the stream draws in arrival order and the next arrival is posted after
    whatever ``deliver`` posts.  Requests get their stream position as ``rid``;
    their ``arrival_cycle`` is left for ``deliver`` to stamp.
    """

    __slots__ = ("_sim", "_to_cycles", "_stream", "_deliver", "_fire_cb")

    def __init__(self, sim, clock, stream, deliver):
        self._sim = sim
        self._to_cycles = clock.us_to_cycles
        self._stream = enumerate(stream)
        self._deliver = deliver
        #: The arrival timer's callback, bound once (see
        #: :mod:`repro.sim.engine`).
        self._fire_cb = self._fire
        self._post_next()

    def _post_next(self):
        for rid, (t_us, kind, service_us) in self._stream:
            to_cycles = self._to_cycles
            request = Request(
                rid, kind, None, max(1, to_cycles(service_us)), service_us
            )
            cycle = to_cycles(t_us)
            now = self._sim.now
            self._sim.post_at(
                cycle if cycle > now else now, self._fire_cb, request
            )
            return

    def _fire(self, request):
        self._deliver(request)
        self._post_next()
