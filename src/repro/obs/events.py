"""Typed probe events: the vocabulary of the observability layer.

Every probe the simulation emits is a :class:`ProbeEvent` — a flat,
allocation-cheap record stamped with **simulated** time (integer cycles)
and keyed by stable identifiers (request id, worker id).  Nothing here may
touch the wall clock, the filesystem, or process-global randomness: probe
events ride inside the simulation and the repro-san purity certificate
covers them (see ``docs/determinism.md``).

The request lifecycle is::

    ARRIVAL -> ENQUEUE -> DISPATCH -> START -> (PREEMPT -> ENQUEUE -> ...)*
            -> COMPLETE

with two side branches: the work-conserving dispatcher's ``STEAL`` /
``STEAL_PAUSE`` slices (section 3.3 of the paper) and ``DROP`` for
requests abandoned by a hard ``until_us`` stop.  ``WORKER_IDLE``,
``ACTION``, ``ROUTE``, and ``REPLY`` cover worker, dispatcher, and
balancer state transitions.
"""

__all__ = [
    "ProbeEvent",
    "ARRIVAL",
    "ENQUEUE",
    "DISPATCH",
    "START",
    "PREEMPT",
    "STEAL",
    "STEAL_PAUSE",
    "COMPLETE",
    "DROP",
    "WORKER_IDLE",
    "ACTION",
    "ROUTE",
    "REPLY",
    "CRASH",
    "RECOVER",
    "RETRY",
    "HEDGE",
    "SHED",
    "REQUEST_LIFECYCLE_KINDS",
    "EVENT_KINDS",
]

#: A request reached the server (the ``deliver`` seam).
ARRIVAL = "arrival"
#: The dispatcher pushed the request into the central queue (new or
#: preempted re-entry).
ENQUEUE = "enqueue"
#: The dispatcher's push action landed the request on a worker.
DISPATCH = "dispatch"
#: A worker began (or resumed) executing the request.
START = "start"
#: The request was preempted off its worker and yielded.
PREEMPT = "preempt"
#: The work-conserving dispatcher began a stolen execution slice.
STEAL = "steal"
#: The dispatcher paused its stolen slice to service other stimuli.
STEAL_PAUSE = "steal-pause"
#: The request finished (on a worker or in the dispatcher's steal buffer).
COMPLETE = "complete"
#: The run ended (``until_us``) with the request still in flight.
DROP = "drop"
#: A worker went idle (no local work; told the dispatcher).
WORKER_IDLE = "worker-idle"
#: One serialized dispatcher micro-action (d-rx, d-push, d-signal, ...).
ACTION = "action"
#: The rack balancer routed a request to a server.
ROUTE = "route"
#: A completion's reply landed back at the balancer.
REPLY = "reply"
#: The fault injector crashed a server (data: server, lost count).
CRASH = "crash"
#: A crashed server came back up.
RECOVER = "recover"
#: The resilience manager re-launched a timed-out logical request.
RETRY = "retry"
#: The resilience manager launched a hedged duplicate attempt.
HEDGE = "hedge"
#: Admission control shed an arrival before routing.
SHED = "shed"

#: Kinds that carry a request id and together form one request's span.
#: RETRY/HEDGE/SHED deliberately stay out: they are balancer-lane events
#: about *logical* requests, not stations on one server-side span — span
#: assembly ignores unknown kinds by design, so traces stay well-formed.
REQUEST_LIFECYCLE_KINDS = (
    ARRIVAL, ENQUEUE, DISPATCH, START, PREEMPT, STEAL, STEAL_PAUSE,
    COMPLETE, DROP,
)

#: Every kind a :class:`ProbeEvent` may carry.
EVENT_KINDS = REQUEST_LIFECYCLE_KINDS + (
    WORKER_IDLE, ACTION, ROUTE, REPLY,
    CRASH, RECOVER, RETRY, HEDGE, SHED,
)


class ProbeEvent:
    """One observation: ``(t, kind, rid, wid, data)``.

    ``t`` is simulated cycles; ``rid``/``wid`` are None when the event is
    not about a specific request/worker; ``data`` is an optional dict of
    kind-specific details (service cycles, run-start cycle, ...).
    """

    __slots__ = ("t", "kind", "rid", "wid", "data")

    def __init__(self, t, kind, rid=None, wid=None, data=None):
        self.t = t
        self.kind = kind
        self.rid = rid
        self.wid = wid
        self.data = data

    def key(self):
        """A plain tuple capturing the full event (tests compare these)."""
        data = None
        if self.data is not None:
            data = tuple(sorted(self.data.items()))
        return (self.t, self.kind, self.rid, self.wid, data)

    def to_dict(self):
        out = {"t": self.t, "kind": self.kind}
        if self.rid is not None:
            out["rid"] = self.rid
        if self.wid is not None:
            out["wid"] = self.wid
        if self.data:
            out.update(self.data)
        return out

    def __eq__(self, other):
        if not isinstance(other, ProbeEvent):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        extra = ""
        if self.rid is not None:
            extra += ", rid={}".format(self.rid)
        if self.wid is not None:
            extra += ", wid={}".format(self.wid)
        if self.data:
            extra += ", {!r}".format(self.data)
        return "ProbeEvent(t={}, kind={!r}{})".format(self.t, self.kind, extra)
