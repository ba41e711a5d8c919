"""Central-queue scheduling policies.

The dispatcher has global visibility of all requests (section 3.1), which is
what lets these policies exist at all; single-logical-queue systems cannot
easily implement SRPT because no thread sees every request.

* :class:`FCFSPolicy` — arrival order; preempted requests re-join the tail,
  which combined with a finite quantum approximates Processor Sharing (the
  behaviour of Shinjuku's and Concord's default schedulers).
* :class:`SRPTPolicy` — Shortest Remaining Processing Time, the non-blind
  extension section 3.1 says Concord "can easily be extended to support".
"""

import heapq
import itertools
from collections import deque

__all__ = ["FCFSPolicy", "SRPTPolicy", "make_policy"]


class FCFSPolicy:
    """FIFO central queue; preempted work goes to the back (PS-like)."""

    name = "fcfs"

    def __init__(self):
        self._queue = deque()

    def push_new(self, request):
        """Enqueue a request that just arrived."""
        self._queue.append(request)

    def push_preempted(self, request):
        """Re-enqueue a request the dispatcher pulled back after preemption
        (section 3.1: "The dispatcher re-places the preempted request on the
        main queue")."""
        self._queue.append(request)

    def pop(self):
        """Next request for a worker, or None."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def peek(self):
        """The request pop() would return, without removing it."""
        return self._queue[0] if self._queue else None

    def steal_nonstarted(self):
        """First *non-started* request, for the work-conserving dispatcher
        (section 3.3: "the dispatcher can only pick up non-started requests
        from the central queue")."""
        for i, request in enumerate(self._queue):
            if not request.started:
                del self._queue[i]
                return request
        return None

    def __len__(self):
        return len(self._queue)

    def __bool__(self):
        return bool(self._queue)


class SRPTPolicy:
    """Shortest Remaining Processing Time order."""

    name = "srpt"

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()

    def _push(self, request):
        heapq.heappush(
            self._heap, (request.remaining_cycles, next(self._counter), request)
        )

    def push_new(self, request):
        self._push(request)

    def push_preempted(self, request):
        self._push(request)

    def pop(self):
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def peek(self):
        """The request pop() would return, without removing it."""
        return self._heap[0][2] if self._heap else None

    def steal_nonstarted(self):
        # Scan in priority order without disturbing the heap invariant more
        # than necessary: pop until a non-started request is found, then push
        # the started ones back.
        stash = []
        found = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            if not entry[2].started:
                found = entry[2]
                break
            stash.append(entry)
        for entry in stash:
            heapq.heappush(self._heap, entry)
        return found

    def __len__(self):
        return len(self._heap)

    def __bool__(self):
        return bool(self._heap)


_POLICIES = {"fcfs": FCFSPolicy, "srpt": SRPTPolicy}


def check_policy(name):
    """Raise ValueError unless ``name`` is a known central-queue policy."""
    if name not in _POLICIES:
        raise ValueError(
            "unknown policy {!r}; known: {}".format(name, ", ".join(sorted(_POLICIES)))
        )


def make_policy(name):
    """Instantiate a policy by name ('fcfs' or 'srpt')."""
    check_policy(name)
    return _POLICIES[name]()
