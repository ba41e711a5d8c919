"""The probe bus: typed observation points the simulation emits into.

A :class:`ProbeBus` is the single object a server (or the rack balancer)
talks to while instrumented.  Components hold a ``probes`` attribute that
is ``None`` by default and guard every probe site with ``if probes is not
None`` — so the uninstrumented hot path costs one attribute load and a
falsy check per site.  The engine drain loop has no observation hook at
all (``bench/run.py`` tracks the untraced throughput).

Each probe bumps its counter in the **telemetry registry**, builds the
event's atoms after its stamp, ``(kind, rid, wid, *values)`` (see
:mod:`repro.obs.events`), and writes them to

* the in-order **event log** (when ``record_events`` is on), and
* the bounded **flight recorder** ring (when attached), as one flat
  event tuple ``(t, kind, rid, wid, *values)``,

then takes the piggybacked sim-time sample of per-worker queue depth /
busy state when ``sample_interval`` cycles have passed.  A probe runs no
nested Python call on this path: counters, action counters and sampler
series are looked up in maps that build each instrument (and format its
name) once, at first use.

The event log is an :class:`EventLog`, stored in two columns: the stamps
in an ``array('q')`` and every event's atoms back to back in one list, so
no per-event tuple or stamp int outlives its probe, and no atom in the
log is tracked by the cyclic garbage collector.  It decodes back to the
flat tuples: the kind fixes how many atoms an event has, except that a
requeued ENQUEUE carries one more atom, ``True``, where a fresh one is
followed by the next event's kind.  This module is the only one that
knows the layout.

Everything is keyed off simulated time and request/worker ids — the bus
never reads the wall clock, never does io, and never perturbs the
simulation (it schedules nothing and mutates no simulation state), which
is what keeps instrumented runs bit-identical to bare ones.
"""

from array import array
from itertools import islice
from math import inf

from repro.obs.events import (
    ACTION,
    ARRIVAL,
    COMPLETE,
    CRASH,
    DISPATCH,
    DROP,
    ENQUEUE,
    EVENT_KINDS,
    FIELDS,
    HEDGE,
    PREEMPT,
    RECOVER,
    REPLY,
    RETRY,
    ROUTE,
    SHED,
    START,
    STEAL,
    STEAL_PAUSE,
    WORKER_IDLE,
)
from repro.obs.registry import TelemetryRegistry

__all__ = ["EventLog", "ProbeBus"]


#: Atoms an event stores after its stamp: kind, rid, wid and its values.
#: A fresh ENQUEUE has no values; a requeued one stores one more atom.
_WIDTH = {kind: 3 + len(FIELDS[kind]) for kind in EVENT_KINDS}
_WIDTH[ENQUEUE] = 3


class EventLog:
    """One bus's in-order event log, stored in two columns (see the
    module docstring) and read as a read-only sequence of event tuples.

    A probe appends its stamp to :attr:`stamps` and extends :attr:`atoms`
    by ``(kind, rid, wid, *values)``.  ``len`` is O(1); iteration decodes
    the tuples in order; ``log[i]`` decodes up to event ``i``.  A log
    equals another log with the same columns, or a list of the same
    tuples (it is not hashable).
    """

    __slots__ = ("stamps", "atoms")

    def __init__(self):
        self.stamps = array("q")
        self.atoms = []

    def __len__(self):
        return len(self.stamps)

    def __iter__(self):
        atoms = self.atoms
        width = _WIDTH
        i = 0
        for t in self.stamps:
            kind = atoms[i]
            j = i + width[kind]
            if kind == ENQUEUE and j < len(atoms) and atoms[j] is True:
                j += 1
            yield (t, *atoms[i:j])
            i = j

    def __getitem__(self, index):
        n = len(self.stamps)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("event log index out of range")
        return next(islice(self, index, None))

    def __eq__(self, other):
        if isinstance(other, EventLog):
            return self.stamps == other.stamps and self.atoms == other.atoms
        if isinstance(other, list):
            return len(other) == len(self.stamps) and list(self) == other
        return NotImplemented


class _Instruments(dict):
    """``key -> factory(key)``, built at the first lookup of ``key`` and
    kept, so instruments enter the registry in first-use order and a
    repeat lookup never leaves C."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        super().__init__()
        self.factory = factory

    def __missing__(self, key):
        instrument = self[key] = self.factory(key)
        return instrument


class ProbeBus:
    """Collects probe events for one server (or balancer); see module doc."""

    def __init__(self, label="server", record_events=True, recorder=None,
                 sample_interval=0):
        #: Human-readable name; becomes the process name in Chrome traces.
        self.label = label
        self.record_events = record_events
        #: The in-order event log, read as event tuples (see
        #: :class:`EventLog`); probes write its columns.
        events = self.events = EventLog()
        self._stamps = events.stamps
        self._atoms = events.atoms
        self.recorder = recorder
        registry = self.registry = TelemetryRegistry()
        self._counters = _Instruments(registry.counter)
        self._action_counters = _Instruments(
            lambda name: registry.counter("dispatcher.actions.{}".format(name))
        )
        self._worker_series = _Instruments(
            lambda wid: (
                registry.time_series("worker.{}.outstanding".format(wid)),
                registry.time_series("worker.{}.busy".format(wid)),
            )
        )
        #: Sampling period in cycles (0 disables sampling).  Samples are
        #: taken opportunistically at probe instants, never via scheduled
        #: events, so sampling cannot change the event sequence.
        self.sample_interval = sample_interval
        self._next_sample = sample_interval if sample_interval else inf
        self._server = None
        #: Clock used by exporters to render cycle stamps in microseconds;
        #: set by :meth:`bind_server` (or by the session when minting).
        self.clock = None
        #: Requests delivered but not completed, in arrival order (a dict,
        #: not a set: iteration order must be deterministic).
        self._inflight = {}

    # -- attachment ---------------------------------------------------------

    def bind_server(self, server):
        """Point the bus at the server whose workers it samples."""
        self._server = server
        self.clock = server.clock
        return self

    # -- sampling -----------------------------------------------------------

    def _sample(self, t):
        every = self.sample_interval
        self._next_sample = ((t // every) + 1) * every
        server = self._server
        if server is None:
            return
        self.registry.time_series("server.inflight").samples.append(
            (t, server.inflight)
        )
        worker_series = self._worker_series
        for worker in server.workers:
            outstanding, busy = worker_series[worker.wid]
            outstanding.samples.append((t, worker.outstanding))
            busy.samples.append((t, 0 if worker.is_idle else 1))

    # Every probe below ends with the same write: log, ring, sample.  It is
    # spelled out in each one because a shared helper would add a Python
    # call per event.

    # -- request lifecycle probes ------------------------------------------

    def request_arrival(self, t, request):
        self._counters["requests.arrived"].value += 1
        self._inflight[request.rid] = request
        atoms = (ARRIVAL, request.rid, None, request.kind,
                 request.service_cycles)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def request_enqueued(self, t, request, requeued=False):
        if requeued:
            self._counters["queue.requeues"].value += 1
            atoms = (ENQUEUE, request.rid, None, True)
        else:
            self._counters["queue.pushes"].value += 1
            atoms = (ENQUEUE, request.rid, None)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def request_dispatched(self, t, request, wid):
        self._counters["requests.dispatched"].value += 1
        atoms = (DISPATCH, request.rid, wid)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def request_started(self, t, request, wid, run_start, resumed):
        self._counters[
            "requests.resumed" if resumed else "requests.started"
        ].value += 1
        atoms = (START, request.rid, wid, run_start, resumed)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def request_preempted(self, t, request, wid):
        self._counters["requests.preempted"].value += 1
        atoms = (PREEMPT, request.rid, wid, request.preemptions)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def request_completed(self, t, request):
        self._counters["requests.completed"].value += 1
        rid = request.rid
        self._inflight.pop(rid, None)
        slowdown = request.slowdown()
        stolen = request.started_by_dispatcher
        atoms = (COMPLETE, rid, None if stolen else request.last_worker,
                 slowdown, request.preemptions, stolen)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)
        if recorder is not None and recorder.maybe_trigger(t, rid, slowdown):
            self._counters["flight.triggers"].value += 1

    # -- dispatcher probes --------------------------------------------------

    def dispatcher_action(self, t, name, cost):
        self._action_counters[name].value += 1
        atoms = (ACTION, None, None, name, cost)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def steal_started(self, t, request, exec_start, completes):
        self._counters["steals.slices"].value += 1
        atoms = (STEAL, request.rid, None, exec_start, completes)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def steal_paused(self, t, request):
        self._counters["steals.pauses"].value += 1
        atoms = (STEAL_PAUSE, request.rid, None)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    # -- worker probes ------------------------------------------------------

    def worker_went_idle(self, t, wid):
        self._counters["workers.idle_transitions"].value += 1
        atoms = (WORKER_IDLE, None, wid)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    # -- rack probes --------------------------------------------------------

    def request_routed(self, t, request, server_index):
        self._counters["balancer.routed"].value += 1
        atoms = (ROUTE, request.rid, None, server_index)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def reply_received(self, t, rid, server_index):
        self._counters["balancer.replies"].value += 1
        atoms = (REPLY, rid, None, server_index)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    # -- fault / resilience probes ------------------------------------------

    def server_crashed(self, t, server_index, lost):
        self._counters["faults.crashes"].value += 1
        atoms = (CRASH, None, None, server_index, lost)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def server_recovered(self, t, server_index):
        self._counters["faults.recoveries"].value += 1
        atoms = (RECOVER, None, None, server_index)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def request_retried(self, t, rid, attempt, server_index):
        self._counters["resilience.retries"].value += 1
        atoms = (RETRY, rid, None, attempt, server_index)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def request_hedged(self, t, rid, server_index):
        self._counters["resilience.hedges"].value += 1
        atoms = (HEDGE, rid, None, server_index)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    def request_shed(self, t, rid):
        self._counters["resilience.shed"].value += 1
        atoms = (SHED, rid, None)
        if self.record_events:
            self._stamps.append(t)
            self._atoms += atoms
        recorder = self.recorder
        if recorder is not None:
            recorder.events_seen += 1
            recorder.ring.append((t,) + atoms)
        if t >= self._next_sample:
            self._sample(t)

    # -- end of run ---------------------------------------------------------

    def finalize_run(self, t):
        """Mark requests still in flight at cycle ``t`` (the end of the
        run) as dropped."""
        for rid in list(self._inflight):
            request = self._inflight.pop(rid)
            self._counters["requests.dropped"].value += 1
            atoms = (DROP, rid, None, request.remaining_cycles)
            if self.record_events:
                self._stamps.append(t)
                self._atoms += atoms
            recorder = self.recorder
            if recorder is not None:
                recorder.events_seen += 1
                recorder.ring.append((t,) + atoms)
            if t >= self._next_sample:
                self._sample(t)

    def __repr__(self):
        return "ProbeBus({!r}, events={}, recorder={})".format(
            self.label, len(self.events), self.recorder is not None
        )
