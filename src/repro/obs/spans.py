"""Request spans: per-request timelines reconstructed from probe events.

A :class:`RequestSpan` folds one request's lifecycle events into a
timeline: arrival, queueing instants, execution *slices* (each a
``(start, end, wid, stolen)`` interval — one per worker occupancy or
dispatcher steal slice), and completion.  :func:`build_spans` performs
the fold over any in-order event sequence, including the *partial*
sequences a flight-recorder capture yields (a ring that starts mid-life
simply produces a span with a missing arrival or an unclosed slice —
never an error), so the same code renders full traces and tail captures.
"""

from repro.obs import events as ev

__all__ = ["ExecSlice", "RequestSpan", "build_spans"]


class ExecSlice:
    """One contiguous execution interval of a request."""

    __slots__ = ("start", "end", "wid", "stolen")

    def __init__(self, start, wid=None, stolen=False):
        self.start = start
        self.end = None
        self.wid = wid
        self.stolen = stolen

    def to_dict(self):
        return {
            "start": self.start,
            "end": self.end,
            "wid": self.wid,
            "stolen": self.stolen,
        }

    def __repr__(self):
        where = "dispatcher" if self.stolen else "w{}".format(self.wid)
        return "ExecSlice({}..{} on {})".format(self.start, self.end, where)


class RequestSpan:
    """Everything observed about one request, in timeline form."""

    __slots__ = (
        "rid", "kind", "arrival", "service_cycles", "completion",
        "slowdown", "preemptions", "dropped", "stolen", "slices",
        "queue_times", "routed", "first_seen",
    )

    def __init__(self, rid, first_seen):
        self.rid = rid
        self.kind = None
        self.arrival = None
        self.service_cycles = None
        self.completion = None
        self.slowdown = None
        self.preemptions = 0
        self.dropped = False
        self.stolen = False
        self.slices = []
        #: Instants the request (re-)entered the central queue.
        self.queue_times = []
        #: Balancer routing instant (rack traces only).
        self.routed = None
        #: First event timestamp — the span's anchor when the arrival was
        #: not captured (flight-recorder rings start mid-life).
        self.first_seen = first_seen

    @property
    def start_cycle(self):
        if self.routed is not None:
            return self.routed
        if self.arrival is not None:
            return self.arrival
        return self.first_seen

    @property
    def end_cycle(self):
        if self.completion is not None:
            return self.completion
        last = self.first_seen
        for s in self.slices:
            if s.end is not None and s.end > last:
                last = s.end
        return last

    def _open_slice(self):
        if self.slices and self.slices[-1].end is None:
            return self.slices[-1]
        return None

    def to_dict(self):
        return {
            "rid": self.rid,
            "kind": self.kind,
            "arrival": self.arrival,
            "routed": self.routed,
            "service_cycles": self.service_cycles,
            "completion": self.completion,
            "slowdown": self.slowdown,
            "preemptions": self.preemptions,
            "dropped": self.dropped,
            "stolen": self.stolen,
            "queue_times": list(self.queue_times),
            "slices": [s.to_dict() for s in self.slices],
        }

    def __repr__(self):
        return (
            "RequestSpan(rid={}, slices={}, slowdown={}, dropped={})".format(
                self.rid, len(self.slices), self.slowdown, self.dropped
            )
        )


def build_spans(probe_events):
    """Fold an in-order sequence of event tuples into spans, one per
    request id.

    Returns spans in first-seen order.  Tolerates partial sequences:
    unmatched closes are ignored, unclosed slices keep ``end=None``.
    """
    spans = {}
    for event in probe_events:
        t, kind, rid, wid = event[:4]
        if rid is None:
            continue
        span = spans.get(rid)
        if span is None:
            span = spans[rid] = RequestSpan(rid, t)
        if kind == ev.ARRIVAL:
            span.arrival = t
            span.kind, span.service_cycles = event[4:]
        elif kind == ev.ROUTE:
            span.routed = t
        elif kind == ev.ENQUEUE:
            span.queue_times.append(t)
        elif kind == ev.START:
            span.slices.append(ExecSlice(event[4], wid=wid))
        elif kind == ev.PREEMPT:
            span.preemptions = event[4]
            open_slice = span._open_slice()
            if open_slice is not None:
                open_slice.end = t
        elif kind == ev.STEAL:
            span.stolen = True
            span.slices.append(ExecSlice(event[4], stolen=True))
        elif kind == ev.STEAL_PAUSE:
            open_slice = span._open_slice()
            if open_slice is not None:
                open_slice.end = t
        elif kind == ev.COMPLETE:
            span.completion = t
            span.slowdown, span.preemptions, stolen = event[4:]
            if stolen:
                span.stolen = True
            open_slice = span._open_slice()
            if open_slice is not None:
                open_slice.end = t
        elif kind == ev.DROP:
            span.dropped = True
    return list(spans.values())
