"""Request objects tracked through the simulated server, the column-wise
log that keeps them once they complete, and the feed that posts an
open-loop request stream on the event loop."""

from array import array
from heapq import merge
from itertools import compress, repeat

__all__ = ["Request", "RecordLog", "ArrivalFeed"]


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


#: Stands for None in a :class:`RecordLog` int column (no cycle stamp or
#: worker id is ever negative).
_NONE = -1 << 63

#: The :class:`RecordLog` columns, one per recorded :class:`Request` field:
#: ``array('q')`` ints, a ``bytearray`` flag, and lists of the exact
#: objects.
_INT_COLUMNS = (
    "rid", "arrival_cycle", "service_cycles", "first_dispatch_cycle",
    "completion_cycle", "preemptions", "migrations", "last_worker",
)
_OBJECT_COLUMNS = ("kind", "service_us", "payload")
_COLUMNS = _INT_COLUMNS + ("started_by_dispatcher",) + _OBJECT_COLUMNS


class RecordLog:
    """Completed requests in completion order, stored column-wise and read
    as a sequence of :class:`Request` objects.

    A completion appends one row: every int field to its ``array('q')``
    column (None as a sentinel), ``started_by_dispatcher`` to a
    ``bytearray`` and ``kind``, ``service_us`` and ``payload`` to lists
    that keep the exact objects.  The log holds no reference to the
    request, so a finished request costs about 90 B of columns instead of
    a ~300 B object and its ints, and nothing in the columns is tracked by
    the cyclic garbage collector.

    ``len`` is O(1); iteration and ``log[i]`` decode a fresh
    :class:`Request` with the recorded field values and
    ``remaining_cycles`` 0.  A log equals another log with the same
    columns, or a list of requests with the same field values (it is not
    hashable).  :meth:`slowdowns`, :meth:`arrival_order`,
    :meth:`retain` and :meth:`merged` work on the columns and decode
    nothing.  Only the log's owner writes it (:meth:`append`,
    :meth:`retain`).  This module is the only one that knows the layout.
    """

    __slots__ = _COLUMNS

    def __init__(self):
        for name in _INT_COLUMNS:
            setattr(self, name, array("q"))
        self.started_by_dispatcher = bytearray()
        for name in _OBJECT_COLUMNS:
            setattr(self, name, [])

    def append(self, request):
        """Record the completed ``request``'s fields."""
        self.rid.append(request.rid)
        self.arrival_cycle.append(request.arrival_cycle)
        self.service_cycles.append(request.service_cycles)
        first = request.first_dispatch_cycle
        self.first_dispatch_cycle.append(_NONE if first is None else first)
        self.completion_cycle.append(request.completion_cycle)
        self.preemptions.append(request.preemptions)
        self.migrations.append(request.migrations)
        worker = request.last_worker
        self.last_worker.append(_NONE if worker is None else worker)
        self.started_by_dispatcher.append(request.started_by_dispatcher)
        self.kind.append(request.kind)
        self.service_us.append(request.service_us)
        self.payload.append(request.payload)

    def __len__(self):
        return len(self.rid)

    def _record(self, i):
        request = Request.__new__(Request)
        for name in _INT_COLUMNS:
            value = getattr(self, name)[i]
            setattr(request, name, None if value == _NONE else value)
        request.started_by_dispatcher = bool(self.started_by_dispatcher[i])
        for name in _OBJECT_COLUMNS:
            setattr(request, name, getattr(self, name)[i])
        request.remaining_cycles = 0
        return request

    def __iter__(self):
        return map(self._record, range(len(self.rid)))

    def __getitem__(self, index):
        n = len(self.rid)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record log index out of range")
        return self._record(index)

    def __eq__(self, other):
        if isinstance(other, RecordLog):
            return all(
                getattr(self, name) == getattr(other, name) for name in _COLUMNS
            )
        if isinstance(other, list):
            return len(other) == len(self.rid) and all(
                isinstance(theirs, Request) and _fields(ours) == _fields(theirs)
                for ours, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    # -- column operations ---------------------------------------------------------

    def _arrival_keys(self):
        """``arrival * n + row`` for every row, sorted: arrival order with
        ties in completion order (the order of a stable sort of the records
        by arrival), in one list of ints and no key list."""
        n = len(self.rid)
        keys = [
            arrival * n + row for row, arrival in enumerate(self.arrival_cycle)
        ]
        keys.sort()
        return keys

    def arrival_order(self):
        """Row indices in arrival order, ties in completion order."""
        n = len(self.rid)
        return [key % n for key in self._arrival_keys()]

    def slowdowns(self, skip=0):
        """:meth:`Request.slowdown` of every row in arrival order but the
        first ``skip``, computed the same way (int sojourn over int
        service, true division).  Each sort key is replaced by its
        slowdown in place, so the only list built is the one returned."""
        arrival = self.arrival_cycle
        completion = self.completion_cycle
        service = self.service_cycles
        keys = self._arrival_keys()
        del keys[:skip]
        n = len(self.rid)
        for j, key in enumerate(keys):
            row = key % n
            keys[j] = (completion[row] - arrival[row]) / service[row]
        return keys

    def retain(self, mask):
        """Keep only the rows whose byte in ``mask`` is nonzero, in order.
        Each column is replaced by its filtered copy in turn, so the log
        never exists twice."""
        for name in _INT_COLUMNS:
            setattr(self, name, array("q", compress(getattr(self, name), mask)))
        self.started_by_dispatcher = bytearray(
            compress(self.started_by_dispatcher, mask)
        )
        for name in _OBJECT_COLUMNS:
            setattr(self, name, list(compress(getattr(self, name), mask)))

    @staticmethod
    def merged(logs):
        """One log of every row of ``logs`` in completion order, ties in
        ``logs`` order: a k-way merge, equal to a stable sort of the
        concatenated rows by completion cycle because each log is already
        in completion order (a server completes requests as its clock
        advances)."""
        out = RecordLog()
        columns = [
            [(getattr(out, name).append, getattr(log, name)) for name in _COLUMNS]
            for log in logs
        ]
        keyed = [
            zip(log.completion_cycle, repeat(part), range(len(log)))
            for part, log in enumerate(logs)
        ]
        for _cycle, part, i in merge(*keyed):
            for append, column in columns[part]:
                append(column[i])
        return out


def _fields(request):
    return tuple(getattr(request, name) for name in Request.__slots__)


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
