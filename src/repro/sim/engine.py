"""Core event loop for the discrete-event simulator.

Time is an integer number of CPU cycles.  Events are callbacks scheduled at
absolute timestamps; ties are broken by a monotonically increasing sequence
number so execution order is deterministic and FIFO among same-time events.

Every queue entry has one shape, ``(time, seq, callback, arg)``, drained
from a binary heap in ``(time, seq)`` order (C-level tuple compares; the
unique ``seq`` keeps them from reaching ``callback``).  The drain loop
calls ``callback(arg)``; a callback with nothing to carry takes ``None``.

``post(delay, callback, arg=None)`` and ``post_at(time, callback,
arg=None)`` push an entry and return it, and the entry is the timer's
handle: ``cancel(entry)`` marks its ``seq`` dead, and the drain loop
discards dead entries when it reaches them, without counting them.
Nothing is pushed before ``now`` and ``seq`` only grows, so every entry
that has fired sorts before every entry still queued; ``cancel`` is
therefore a no-op for an entry that already fired.  A dead entry the loop
discarded can still sort after later entries when the run ended before
``now`` reached its time (it drained, or stopped at ``until``), so the
run remembers those until ``now`` passes them, and ``cancel`` skips them.

The core runtime's per-slice timers skip even the ``post`` frame and push
the same entry themselves, with a callback bound once when the agent is
built::

    self._next_cb = self._next             # in __init__, once
    ...
    seq = sim._seq = sim._seq + 1
    heappush(heap, (time, seq, self._next_cb, arg))

where ``heap`` is ``sim._heap`` (hoisted: the list is never rebound) and
``time`` is an int at or after ``now``.  Reading ``self._next`` at the
push site would build a new bound method every time, through an attribute
load CPython 3.11 cannot specialize.  The drain loop keeps the "never
schedule in the past" check for such sites: it raises
:class:`SimulationError` naming the callback when it pops an entry whose
time is before ``now``.
"""

from heapq import heappop, heappush

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


def _name(callback):
    return getattr(callback, "__qualname__", repr(callback))


class Simulator:
    """Drains an event queue in ``(time, seq)`` order."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        #: Seqs of cancelled entries still queued; mutated in place, so
        #: the drain loop's alias stays valid.
        self._dead = set()
        #: ``seq -> time`` of cancelled entries a run discarded while its
        #: clock was still behind their time; ``cancel`` ignores them.
        self._dropped = {}
        self._events_run = 0
        self._running = False

    # -- scheduling ---------------------------------------------------------

    def post(self, delay, callback, arg=None):
        """Call ``callback(arg)`` ``delay`` cycles from now; returns the
        queue entry, which :meth:`cancel` takes."""
        if delay < 0:
            raise SimulationError(
                "negative delay {} for {}".format(delay, _name(callback))
            )
        if delay.__class__ is not int:
            delay = int(delay)
        seq = self._seq = self._seq + 1
        entry = (self.now + delay, seq, callback, arg)
        heappush(self._heap, entry)
        return entry

    def post_at(self, time, callback, arg=None):
        """:meth:`post` at absolute cycle ``time``."""
        if time.__class__ is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                "cannot schedule {} at t={} before now={}".format(
                    _name(callback), time, self.now
                )
            )
        seq = self._seq = self._seq + 1
        entry = (time, seq, callback, arg)
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        """Keep a queued ``entry`` from firing.  A no-op once the entry has
        fired or a run has discarded it, and harmless twice while it is
        queued."""
        heap = self._heap
        if heap and entry >= heap[0] and entry[1] not in self._dropped:
            self._dead.add(entry[1])

    # -- execution ------------------------------------------------------------

    def run(self, until=None, max_events=None):
        """Run until the queue drains, ``until`` cycles pass, or
        ``max_events`` events have executed — whichever comes first.

        Returns the number of events executed during this call.  An
        ``until`` before ``now`` raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                "run(until={}) is before now={}".format(until, self.now)
            )
        self._running = True
        heap = self._heap
        pop = heappop
        dead = self._dead
        executed = 0
        now = self.now
        # ``seq -> time`` of the cancelled entries discarded since the last
        # event ran, and the event count they followed.
        discarded = {}
        discarded_after = 0
        try:
            # ``while True`` rather than ``while heap``: CPython 3.11 counts
            # warm-up (and so quickens this once-entered frame) only on a
            # plain ``JUMP_BACKWARD``, which a conditional back edge is not.
            # Each bound is tested for None before it is compared, so an
            # absent one costs no per-event integer compare.
            while True:
                if not heap:
                    if until is not None and until > self.now:
                        self.now = int(until)
                    break
                if max_events is not None and executed >= max_events:
                    break
                entry = pop(heap)
                time, seq, callback, arg = entry
                if seq in dead:
                    dead.remove(seq)
                    if executed != discarded_after:
                        discarded = {}
                        discarded_after = executed
                    discarded[seq] = time
                    continue
                if until is not None and time > until:
                    # Past the bound: leave it queued for a later run.
                    heappush(heap, entry)
                    self.now = int(until)
                    break
                if time < now:
                    # Only a direct push can get here: post and post_at
                    # refuse such a time.
                    raise SimulationError(
                        "event {} queued at t={} before now={}".format(
                            _name(callback), time, now
                        )
                    )
                now = self.now = time
                callback(arg)
                executed += 1
            self._events_run += executed
        finally:
            self._running = False
        if discarded and discarded_after == executed:
            # No event ran after these, so ``now`` may be short of them.
            self._dropped.update(discarded)
        if self._dropped:
            # Those ``now`` has reached sort before every later entry.
            now = self.now
            self._dropped = {
                seq: time for seq, time in self._dropped.items() if time > now
            }
        return executed

    # -- introspection ----------------------------------------------------------

    @property
    def pending(self):
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return len(self._heap) - len(self._dead)

    @property
    def events_run(self):
        """Total events executed over the simulator's lifetime."""
        return self._events_run
