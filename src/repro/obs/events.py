"""Probe events: the vocabulary of the observability layer.

Every probe the simulation emits reads as one flat tuple of atoms::

    (t, kind, rid, wid, *values)

stamped with **simulated** time ``t`` (integer cycles) and keyed by stable
identifiers: the request id ``rid`` and worker id ``wid``, each None when
the event is not about a specific request or worker.  ``FIELDS[kind]``
names the trailing ``values`` in order; :func:`event_data` and
:func:`event_dict` give the named view.  Plain tuples compare and hash by
value, and CPython stops tracking a tuple of atoms in the cyclic garbage
collector once it survives a young-generation collection, so flight
recorder captures are never rescanned.  Nothing here may touch the wall
clock, the filesystem, or process-global randomness: probe events ride
inside the simulation and the repro-san purity certificate covers them
(see ``docs/determinism.md``).

A bus does not keep those tuples: its log stores each event's stamp and
its other atoms in two columns and decodes them back to these tuples
(see :class:`repro.obs.bus.EventLog`).

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
    "FIELDS",
    "event_data",
    "event_dict",
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

#: Every kind a probe event may carry.
EVENT_KINDS = REQUEST_LIFECYCLE_KINDS + (
    WORKER_IDLE, ACTION, ROUTE, REPLY,
    CRASH, RECOVER, RETRY, HEDGE, SHED,
)

#: Names of the values that follow ``(t, kind, rid, wid)`` in an event of
#: each kind.  A requeued ENQUEUE carries ``(True,)``; a fresh one has no
#: values.
FIELDS = {
    ARRIVAL: ("request_kind", "service_cycles"),
    ENQUEUE: ("requeued",),
    DISPATCH: (),
    START: ("run_start", "resumed"),
    PREEMPT: ("preemptions",),
    STEAL: ("exec_start", "completes"),
    STEAL_PAUSE: (),
    COMPLETE: ("slowdown", "preemptions", "stolen"),
    DROP: ("remaining_cycles",),
    WORKER_IDLE: (),
    ACTION: ("name", "cost"),
    ROUTE: ("server",),
    REPLY: ("server",),
    CRASH: ("server", "lost"),
    RECOVER: ("server",),
    RETRY: ("attempt", "server"),
    HEDGE: ("server",),
    SHED: (),
}


def event_data(event):
    """The event's trailing values keyed by their ``FIELDS`` names, or None
    when it has none."""
    values = event[4:]
    if not values:
        return None
    return dict(zip(FIELDS[event[1]], values))


def event_dict(event):
    """A JSON-ready dict of the event: ``t`` and ``kind``, ``rid``/``wid``
    when set, then the named values."""
    t, kind, rid, wid = event[:4]
    out = {"t": t, "kind": kind}
    if rid is not None:
        out["rid"] = rid
    if wid is not None:
        out["wid"] = wid
    data = event_data(event)
    if data:
        out.update(data)
    return out
