"""Core event loop for the discrete-event simulator.

Time is an integer number of CPU cycles.  Events are callbacks scheduled at
absolute timestamps; ties are broken by a monotonically increasing sequence
number so execution order is deterministic and FIFO among same-time events.
The queue is a binary heap of ``(time, seq, ...)`` tuples (C-level tuple
compares) with counted lazy cancellation and amortized in-place compaction.

Scheduling comes in two shapes:

* ``schedule`` / ``at`` / ``after`` return an :class:`Event` handle that
  may be cancelled.  Cancellation is lazy (the entry stays queued and is
  skipped when reached), but not unbounded: dead entries are counted and
  the queue compacts once they exceed :data:`COMPACT_MIN_DEAD` *and* make
  up more than half the queue.
* ``post`` / ``post_at`` are fire-and-forget: no handle is allocated, so
  they cannot be cancelled — and they skip the :class:`Event` allocation
  that dominates the scheduling cost.  The core runtime uses them for the
  completion/arrival timers it never cancels.

``post`` / ``post_at`` also take an optional ``arg`` that is passed to the
callback when it fires, so a hot path can post a bound method plus its
state (``post(d, worker.on_signal, "notice", epoch)``) instead of
allocating a closure per event.

Queue entries are therefore either ``(time, seq, event)`` triples or
``(time, seq, None, callback, name, arg)`` fire-and-forget tuples, where
``arg`` is a module-private sentinel when the callback takes no argument
(so ``arg=None`` is delivered as ``None``).  ``entry[2] is None``
distinguishes the two shapes and the unique ``seq`` guarantees ordering
comparisons never reach the mismatched tails.
"""

from heapq import heapify, heappop, heappush

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "COMPACT_MIN_DEAD",
]

#: Compaction never triggers below this many dead queue entries; above it,
#: the queue is swept whenever dead entries outnumber live ones.  The scan
#: is O(queue) and removes >= half the entries, so total compaction work is
#: amortized O(1) per cancellation.
COMPACT_MIN_DEAD = 256

#: The ``arg`` of a fire-and-forget entry whose callback takes no argument.
_NO_ARG = object()

#: Stands in for an absent ``until`` / ``max_events`` bound in :meth:`run`:
#: an int, so the per-event compares stay int-to-int, and past any count
#: or cycle a run reaches (a time beyond it still runs when ``until`` is
#: None; see :meth:`run`).
_UNBOUNDED = 1 << 128


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` (or the ``at`` /
    ``after`` convenience wrappers) and may be cancelled before firing.
    Cancellation is lazy: the queue entry stays put and is discarded when
    reached (or swept out by queue compaction).
    """

    __slots__ = ("time", "callback", "name", "cancelled", "_sim")

    def __init__(self, time, callback, name, sim=None):
        self.time = time
        self.callback = callback
        self.name = name
        self.cancelled = False
        # Back-reference for cancellation accounting; detached (set to
        # None) once the event leaves the queue, so late cancels of already
        # fired events stay cheap and don't skew the dead-entry count.
        self._sim = sim

    def cancel(self):
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancel()

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return "Event(t={}, name={!r}{})".format(self.time, self.name, state)


_new_event = Event.__new__


class Simulator:
    """Drains an event queue in ``(time, seq)`` order."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._events_run = 0
        self._events_cancelled = 0
        self._dead_in_heap = 0
        self._compactions = 0
        self._running = False

    # -- scheduling ---------------------------------------------------------
    #
    # schedule/after/post are the hottest entry points in the package, so
    # each inlines validation + Event construction + push rather than
    # layering through a shared helper (a call frame per event is ~15% of
    # the whole loop).

    def schedule(self, time, callback, name=""):
        """Schedule ``callback`` at absolute cycle ``time``.

        Returns the :class:`Event`, which may be cancelled.
        """
        if time.__class__ is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                "cannot schedule event {!r} at t={} before now={}".format(
                    name, time, self.now
                )
            )
        event = _new_event(Event)
        event.time = time
        event.callback = callback
        event.name = name
        event.cancelled = False
        event._sim = self
        seq = self._seq = self._seq + 1
        heappush(self._heap, (time, seq, event))
        return event

    def at(self, time, callback, name=""):
        """Alias for :meth:`schedule` (absolute time)."""
        return self.schedule(time, callback, name)

    def after(self, delay, callback, name=""):
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(
                "negative delay {} for event {!r}".format(delay, name)
            )
        if delay.__class__ is not int:
            delay = int(delay)
        time = self.now + delay
        event = _new_event(Event)
        event.time = time
        event.callback = callback
        event.name = name
        event.cancelled = False
        event._sim = self
        seq = self._seq = self._seq + 1
        heappush(self._heap, (time, seq, event))
        return event

    def post(self, delay, callback, name="", arg=_NO_ARG):
        """Fire-and-forget :meth:`after`: no :class:`Event` handle is
        allocated, so the timer cannot be cancelled — and scheduling is
        cheaper.  Use for timers that always fire.  When ``arg`` is given
        the callback is called as ``callback(arg)``."""
        if delay < 0:
            raise SimulationError(
                "negative delay {} for event {!r}".format(delay, name)
            )
        if delay.__class__ is not int:
            delay = int(delay)
        seq = self._seq = self._seq + 1
        heappush(
            self._heap, (self.now + delay, seq, None, callback, name, arg)
        )

    def post_at(self, time, callback, name="", arg=_NO_ARG):
        """Fire-and-forget :meth:`schedule` (absolute time, no handle);
        ``arg`` as for :meth:`post`."""
        if time.__class__ is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                "cannot schedule event {!r} at t={} before now={}".format(
                    name, time, self.now
                )
            )
        seq = self._seq = self._seq + 1
        heappush(self._heap, (time, seq, None, callback, name, arg))

    # -- cancellation accounting -------------------------------------------

    def _note_cancel(self):
        """A live queue entry was just cancelled; compact if dead entries
        dominate."""
        self._events_cancelled += 1
        dead = self._dead_in_heap + 1
        self._dead_in_heap = dead
        if dead >= COMPACT_MIN_DEAD and dead * 2 >= len(self._heap):
            self.compact()

    def compact(self):
        """Rebuild the heap without cancelled entries, in place.

        In-place (slice assignment) so aliases of the heap list held by a
        running :meth:`run` loop stay valid.  Relative order of live events
        is untouched: entries keep their ``(time, seq)`` keys.
        """
        heap = self._heap
        live = [e for e in heap if e[2] is None or not e[2].cancelled]
        if len(live) != len(heap):
            heap[:] = live
            heapify(heap)
        self._dead_in_heap = 0
        self._compactions += 1

    # -- execution ------------------------------------------------------------

    def run(self, until=None, max_events=None):
        """Run until the queue drains, ``until`` cycles pass, or
        ``max_events`` events have executed — whichever comes first.

        Returns the number of events executed during this call.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        heap = self._heap
        pop = heappop
        no_arg = _NO_ARG
        # Absent bounds become ones that never bite, so the loop compares
        # numbers instead of testing for None on every event.
        budget = max_events if max_events is not None else _UNBOUNDED
        horizon = until if until is not None else _UNBOUNDED
        executed = 0
        try:
            while heap:
                if executed >= budget:
                    break
                entry = pop(heap)
                event = entry[2]
                if event is not None and event.cancelled:
                    self._dead_in_heap -= 1
                    continue
                time = entry[0]
                if time > horizon and until is not None:
                    # Past the bound: leave it queued for a later run.
                    heappush(heap, entry)
                    self.now = int(until)
                    break
                self.now = time
                if event is None:
                    arg = entry[5]
                    if arg is no_arg:
                        entry[3]()
                    else:
                        entry[3](arg)
                else:
                    event._sim = None
                    event.callback()
                executed += 1
            else:
                if until is not None and until > self.now:
                    self.now = int(until)
            self._events_run += executed
        finally:
            self._running = False
        return executed

    # -- introspection ----------------------------------------------------------

    @property
    def pending(self):
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._heap) - self._dead_in_heap

    @property
    def events_run(self):
        """Total events executed over the simulator's lifetime."""
        return self._events_run

    @property
    def events_cancelled(self):
        """Total events cancelled (before firing) over the lifetime."""
        return self._events_cancelled

    @property
    def heap_size(self):
        """Raw queue entries, live plus not-yet-swept cancelled ones."""
        return len(self._heap)

    @property
    def dead_in_heap(self):
        """Cancelled entries still occupying queue slots."""
        return self._dead_in_heap

    @property
    def compactions(self):
        """Times the queue was swept to shed cancelled entries."""
        return self._compactions

    def peek_time(self):
        """Timestamp of the next live event, or None if the queue is
        empty."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or not event.cancelled:
                return heap[0][0]
            heappop(heap)
            self._dead_in_heap -= 1
        return None
