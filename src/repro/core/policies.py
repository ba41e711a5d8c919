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
        #: The queued requests in arrival order.  Never rebound, so the
        #: dispatcher holds it and tests it for emptiness directly.
        self.queue = deque()

    def push_new(self, request):
        """Enqueue a request that just arrived."""
        self.queue.append(request)

    def push_preempted(self, request):
        """Re-enqueue a request the dispatcher pulled back after preemption
        (section 3.1: "The dispatcher re-places the preempted request on the
        main queue")."""
        self.queue.append(request)

    def pop(self):
        """Next request for a worker, or None."""
        if not self.queue:
            return None
        return self.queue.popleft()

    def peek(self):
        """The request pop() would return, without removing it."""
        return self.queue[0] if self.queue else None

    def steal_nonstarted(self):
        """First *non-started* request, for the work-conserving dispatcher
        (section 3.3: "the dispatcher can only pick up non-started requests
        from the central queue")."""
        for i, request in enumerate(self.queue):
            if request.first_dispatch_cycle is None:
                del self.queue[i]
                return request
        return None

    def __len__(self):
        return len(self.queue)

    def __bool__(self):
        return bool(self.queue)


class SRPTPolicy:
    """Shortest Remaining Processing Time order."""

    name = "srpt"

    def __init__(self):
        #: ``(remaining_cycles, arrival counter, request)`` heap entries.
        #: Never rebound, so the dispatcher holds it and tests it for
        #: emptiness directly.
        self.queue = []
        self._counter = itertools.count()

    def _push(self, request):
        heapq.heappush(
            self.queue, (request.remaining_cycles, next(self._counter), request)
        )

    def push_new(self, request):
        self._push(request)

    def push_preempted(self, request):
        self._push(request)

    def pop(self):
        if not self.queue:
            return None
        return heapq.heappop(self.queue)[2]

    def peek(self):
        """The request pop() would return, without removing it."""
        return self.queue[0][2] if self.queue else None

    def steal_nonstarted(self):
        # Scan in priority order without disturbing the heap invariant more
        # than necessary: pop until a non-started request is found, then push
        # the started ones back.
        stash = []
        found = None
        while self.queue:
            entry = heapq.heappop(self.queue)
            if entry[2].first_dispatch_cycle is None:
                found = entry[2]
                break
            stash.append(entry)
        for entry in stash:
            heapq.heappush(self.queue, entry)
        return found

    def __len__(self):
        return len(self.queue)

    def __bool__(self):
        return bool(self.queue)


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
