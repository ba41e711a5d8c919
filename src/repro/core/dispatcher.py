"""The dispatcher thread.

One dedicated thread maintains the single physical queue (section 2.1).  It
is modelled as a serial resource executing micro-operations in priority
order: deliver due preemption signals, pull preempted contexts back onto the
central queue, receive new packets, dispatch to workers, and — for Concord —
steal application work when everything else is quiet and all per-worker
queues are full (section 3.3).

Because actions serialize, dispatcher saturation (the Fixed(1) bottleneck of
Fig. 8) and late preemption signals under load ("the dispatcher sends
preemption notifications late when busy", section 3) both emerge without
special-casing.
"""

import math
from collections import deque
from heapq import heappush

from repro import constants

__all__ = ["Dispatcher"]

# The in-flight micro-action, which ``_next(epoch)`` applies when its cost
# has elapsed: push a new request (d-rx) or a preempted one (d-requeue)
# onto the central queue, hand one to a worker (d-push), or deliver a
# preemption signal (d-signal).
_RX, _REQUEUE, _PUSH, _SIGNAL = range(4)


class Dispatcher:
    """The dispatcher agent; see module docstring."""

    # Slots, because past 30 instance attributes CPython drops a class's
    # shared-key dict and every ``self.x`` becomes a dict probe (3.11's
    # ``*_WITH_HINT`` forms) instead of a fixed-offset load.  A mistyped
    # attribute write raises instead of silently adding state.
    __slots__ = (
        "sim", "server", "single_queue", "jbsq_depth", "_levels",
        "locality_aware", "work_conserving", "costs", "policy", "_queued",
        "_heap", "rng_notice", "_poll_span", "workers", "probes", "rx",
        "preempts", "requeues", "ready_workers", "load_masks", "_in_action",
        "crash_epoch", "_action", "_action_request", "_action_worker",
        "_signal_epoch", "busy_cycles", "actions_run", "signals_sent",
        "stale_signals_skipped", "steal_buffer", "_steal_request",
        "_steal_start", "_steal_completes", "_steal_end", "steals_started",
        "steal_completions", "steal_busy_cycles", "_next_cb",
        "_register_ready_cb", "_finish_slice_cb", "_pause_steal_cb",
    )

    def __init__(self, sim, server):
        self.sim = sim
        self.server = server
        config = server.config
        # Per-run constants, hoisted off the server and config.
        self.single_queue = server.queue_mode == "sq"
        self.jbsq_depth = config.jbsq_depth
        self._levels = tuple(range(config.jbsq_depth))
        self.locality_aware = config.locality_aware
        self.work_conserving = config.work_conserving_dispatcher
        self.costs = server.costs
        self.policy = server.policy
        #: The policy's container: truthy iff requests are queued.
        self._queued = server.policy.queue
        #: The event heap, for the timers this agent pushes directly (see
        #: :mod:`repro.sim.engine`).
        self._heap = sim._heap
        self.rng_notice = server.rng_notice
        #: The single queue's flag-poll round across n workers, in cycles
        #: (0 for the ideal queue, which notices an idle worker at once).
        self._poll_span = (
            0 if config.ideal
            else server.machine.num_workers * constants.DISPATCHER_POLL_CYCLES
        )
        self.workers = server.workers
        self.probes = server.probes
        self.rx = deque()
        self.preempts = deque()
        self.requeues = deque()
        # All workers start idle; in single-queue mode they are born ready.
        self.ready_workers = deque(self.workers if self.single_queue else ())
        #: JBSQ occupancy as bitmasks: bit ``wid`` of ``load_masks[n]`` is
        #: set while worker ``wid`` owns exactly ``n`` requests (n <= k).
        #: Workers move their own bit as they gain and lose requests, so
        #: placement is a lowest-set-bit lookup instead of a scan.
        self.load_masks = [0] * (config.jbsq_depth + 1)
        #: Timer callbacks, bound once (see :mod:`repro.sim.engine`).
        self._next_cb = self._next
        self._register_ready_cb = self._register_ready
        self._finish_slice_cb = self._finish_slice
        self._pause_steal_cb = self._pause_steal
        for worker in self.workers:
            worker.dispatcher = self
            worker.load_masks = self.load_masks
            worker.quantum_cb = self.enqueue_preempt
        self.rebuild_load_masks()
        self._in_action = False
        #: Bumped by the fault injector when this server crashes; the
        #: pending action-finish event carries the epoch it was posted
        #: under and goes stale on mismatch (same trick as worker epochs).
        self.crash_epoch = 0
        #: The in-flight micro-action (only one runs at a time): its code
        #: (``_RX``, ...), and the request (rx/requeue/push) and worker
        #: (push/signal) it acts on.  A crash sweep accounts the request as
        #: lost.
        self._action = None
        self._action_request = None
        self._action_worker = None
        self._signal_epoch = None
        self.busy_cycles = 0
        self.actions_run = 0
        self.signals_sent = 0
        self.stale_signals_skipped = 0
        # Work-conserving state (section 3.3): at most one stolen request at
        # a time; its context lives in a dedicated buffer between slices and
        # can never migrate to a worker (different instrumentation).
        self.steal_buffer = None
        #: The running steal slice: its request (None when no slice runs),
        #: when execution starts (after the entry switch), whether it runs
        #: the request to completion, and its end entry on the event queue
        #: (None once a stimulus has cancelled it and a pause is pending).
        self._steal_request = None
        self._steal_start = 0
        self._steal_completes = False
        self._steal_end = None
        self.steals_started = 0
        self.steal_completions = 0
        self.steal_busy_cycles = 0

    def rebuild_load_masks(self):
        """Recompute ``load_masks`` from the workers' ``outstanding``, in
        place (workers hold a reference to the list)."""
        masks = self.load_masks
        for level in range(len(masks)):
            masks[level] = 0
        for worker in self.workers:
            masks[worker.outstanding] |= worker.bit

    # -- stimuli ------------------------------------------------------------------

    # Each stimulus wakes an idle dispatcher: a running steal slice is
    # interrupted, otherwise the next action starts.  A busy dispatcher
    # picks the stimulus up when its action finishes.

    def on_arrival(self, request):
        """A packet reached the NIC ring."""
        self.rx.append(request)
        if not self._in_action:
            if self._steal_request is not None:
                self._interrupt_steal()
            else:
                self._next()

    def enqueue_preempt(self, entry):
        """A worker's scheduling quantum expired (timer event); ``entry``
        is the ``(worker, epoch)`` the quantum was armed for."""
        self.preempts.append(entry)
        if not self._in_action:
            if self._steal_request is not None:
                self._interrupt_steal()
            else:
                self._next()

    def enqueue_requeue(self, request):
        """A worker yielded ``request``; pull it back to the central queue."""
        self.requeues.append(request)
        if not self._in_action:
            if self._steal_request is not None:
                self._interrupt_steal()
            else:
                self._next()

    def worker_became_idle(self, worker):
        if self.single_queue:
            # The dispatcher only notices the worker's "done" flag on its
            # next poll round over all n workers (section 2.2.2: with short
            # requests "multiple workers finish while the dispatcher is
            # busy sending a request to another worker").  The delay is
            # uniform over one round; ``span * random()`` is what
            # ``uniform(0, span)`` computes.
            span = self._poll_span
            if span:
                delay = int(span * self.rng_notice.random())
                if delay > 0:
                    sim = self.sim
                    seq = sim._seq = sim._seq + 1
                    heappush(self._heap, (
                        sim.now + delay, seq, self._register_ready_cb, worker,
                    ))
                    return
            self.ready_workers.append(worker)
        if not self._in_action:
            if self._steal_request is not None:
                self._interrupt_steal()
            else:
                self._next()

    def _register_ready(self, worker):
        """The flag poll found ``worker`` idle (the ``flag-poll`` timer)."""
        self.ready_workers.append(worker)
        if not self._in_action:
            if self._steal_request is not None:
                self._interrupt_steal()
            else:
                self._next()

    def worker_slot_freed(self, worker):
        if not self._in_action:
            if self._steal_request is not None:
                self._interrupt_steal()
            else:
                self._next()

    # -- the action loop --------------------------------------------------------------

    def _next(self, epoch=None):
        """Start the highest-priority micro-action, if any: the dispatcher
        is busy for its cost, then the action timer calls ``_next(epoch)``
        with the ``crash_epoch`` it was posted under, which applies the
        action and starts the next one.  Every other caller makes sure no
        action is in flight and no steal slice runs."""
        if epoch is not None:
            if epoch != self.crash_epoch:
                return  # the server crashed mid-action; the sweep took over
            self._in_action = False
            action = self._action
            sim = self.sim
            now = sim.now
            probes = self.probes
            if action == _SIGNAL:
                # The cache-line write / IPI just completed; the worker
                # reacts after the mechanism's notice latency plus any
                # safety deferral.
                worker = self._action_worker
                server = self.server
                delay = server.mechanism.notice_delay_cycles(
                    server.rng_notice
                )
                current = worker.current
                if current is not None and server.safety_defers:
                    elapsed = now - (worker.run_start or now)
                    delay += server.defer_cycles(
                        current.kind, elapsed if elapsed > 0 else 0
                    )
                seq = sim._seq = sim._seq + 1
                heappush(self._heap, (
                    now + int(delay), seq, worker.signal_cb,
                    self._signal_epoch,
                ))
            else:
                request = self._action_request
                self._action_request = None
                if action == _PUSH:
                    worker = self._action_worker
                    if probes is not None:
                        probes.request_dispatched(now, request, worker.wid)
                    worker.enqueue(request, now + self.costs.sq_receive)
                elif action == _REQUEUE:
                    self.policy.push_preempted(request)
                    if probes is not None:
                        probes.request_enqueued(now, request, requeued=True)
                else:
                    self.policy.push_new(request)
                    if probes is not None:
                        probes.request_enqueued(now, request)
        faults = self.server.faults
        if faults is not None and faults.down:
            return  # crashed: the dispatcher core is dark until recovery
        costs = self.costs

        # 1. Preemption signals: skip stale entries (the worker already
        # finished or yielded; the dispatcher sees that in the shared state
        # before paying for a signal).
        preempts = self.preempts
        while preempts:
            worker, aimed = preempts.popleft()
            if worker.epoch != aimed or worker.current is None:
                self.stale_signals_skipped += 1
                continue
            self.signals_sent += 1
            self._action = _SIGNAL
            self._action_worker = worker
            self._signal_epoch = aimed
            cost = costs.signal
            name = "d-signal"
            break
        else:
            if self.requeues:
                # 2. Preempted contexts returning to the central queue.
                self._action_request = self.requeues.popleft()
                self._action = _REQUEUE
                cost = costs.requeue
                name = "d-requeue"
            elif self.rx:
                # 3. New packets.
                self._action_request = self.rx.popleft()
                self._action = _RX
                cost = costs.rx
                name = "d-rx"
            else:
                # 4. Dispatch to a worker.
                policy = self.policy
                target = request = None
                if self.single_queue:
                    # Single queue: the first ready worker that is still
                    # idle, consumed only when a request is waiting.
                    if self._queued:
                        ready = self.ready_workers
                        while ready:
                            worker = ready.popleft()
                            if worker.outstanding == 0:
                                target = worker
                                break
                elif self._queued:
                    # JBSQ placement reads the load masks (and, when
                    # locality-aware, the head request's last worker).
                    target = self._pick_worker(
                        policy.peek() if self.locality_aware else None
                    )
                if target is not None:
                    request = policy.pop()
                if request is None:
                    # 5. Work conservation (Concord only): resume the stolen
                    # request, or steal when every worker is full.
                    if self.work_conserving and (
                        self.steal_buffer is not None
                        or (target is None and self._queued)
                    ):
                        self._begin_steal()
                    return
                self._action_request = request
                self._action_worker = target
                self._action = _PUSH
                cost = costs.push + costs.jbsq_scan
                name = "d-push"

        self._in_action = True
        self.busy_cycles += cost
        self.actions_run += 1
        sim = self.sim
        probes = self.probes
        if probes is not None:
            probes.dispatcher_action(sim.now, name, cost)
        # The action timer: ``_next(crash_epoch)`` once ``cost`` elapses.
        seq = sim._seq = sim._seq + 1
        heappush(
            self._heap, (sim.now + cost, seq, self._next_cb, self.crash_epoch)
        )

    # -- dispatch ---------------------------------------------------------------------

    def _pick_worker(self, request=None):
        """The JBSQ worker for ``request`` (single-queue placement is inline
        in :meth:`_next`)."""
        # Locality-aware placement (section 3.1; ``_next`` passes the head
        # request only when it is on): send a preempted request back to the
        # core whose caches still hold its state, if it has a free slot.
        if request is not None and request.last_worker is not None:
            previous = self.workers[request.last_worker]
            if previous.outstanding < self.jbsq_depth:
                return previous
        # JBSQ: the lowest-index worker among the least loaded, i.e. the
        # lowest set bit of the first non-empty level below k.
        masks = self.load_masks
        for level in self._levels:
            mask = masks[level]
            if mask:
                return self.workers[(mask & -mask).bit_length() - 1]
        return None

    # -- work conservation (section 3.3) --------------------------------------------------

    def _begin_steal(self):
        request = self.steal_buffer
        if request is None:
            request = self.policy.steal_nonstarted()
            if request is None:
                return
            self.steals_started += 1
        self.steal_buffer = None
        request.started_by_dispatcher = True
        now = self.sim.now
        if request.first_dispatch_cycle is None:
            request.first_dispatch_cycle = now

        costs = self.costs
        rate = self.server.dispatcher_rate
        exec_start = now + costs.context_switch
        need = int(math.ceil(request.remaining_cycles * rate))
        quantum = self.server.quantum_cycles or need
        slice_len = min(need, quantum)
        completes = slice_len >= need
        self._steal_request = request
        self._steal_start = exec_start
        self._steal_completes = completes
        self._steal_end = self.sim.post_at(
            exec_start + slice_len, self._finish_slice_cb
        )
        probes = self.probes
        if probes is not None:
            probes.steal_started(now, request, exec_start, completes)

    def _end_steal(self, stop_time):
        """Close the running slice at ``stop_time``: charge it [entry
        switch + execution] to the dispatcher and return its request."""
        request = self._steal_request
        self._steal_request = None
        self._steal_end = None
        spent = stop_time - (self._steal_start - self.costs.context_switch)
        self.busy_cycles += spent
        self.steal_busy_cycles += spent
        return request

    def _finish_slice(self, _):
        if self._steal_request is None:
            return  # the crash sweep already reclaimed the slice
        now = self.sim.now
        request = self._end_steal(now)
        if self._steal_completes:
            request.remaining_cycles = 0
            request.completion_cycle = now
            self.steal_completions += 1
            self.server.record_completion(request)
        else:
            executed = int(
                (now - self._steal_start) // self.server.dispatcher_rate
            )
            executed = max(0, min(executed, request.remaining_cycles - 1))
            request.remaining_cycles -= executed
            self.steal_buffer = request
        self._next()

    def _interrupt_steal(self):
        """A new stimulus arrived mid-slice: the dispatcher's rdtsc probes
        notice it within a probe gap and it self-preempts (section 3.3)."""
        end = self._steal_end
        if end is None:
            return  # a pause is already pending
        gap = self.server.rng_notice.uniform(
            0.0, constants.PROBE_INTERVAL_CYCLES
        )
        stop_at = self.sim.now + int(gap) + self.costs.context_switch
        if end[0] <= stop_at:
            # The slice ends before we could stop it; let it finish.
            return
        self._steal_end = None
        self.sim.cancel(end)
        self.sim.post_at(stop_at, self._pause_steal_cb)

    def _pause_steal(self, _):
        if self._steal_request is None:
            return  # the crash sweep already reclaimed the slice
        now = self.sim.now
        exec_time = now - self.costs.context_switch - self._steal_start
        request = self._end_steal(now)
        executed = int(exec_time // self.server.dispatcher_rate)
        executed = max(0, min(executed, request.remaining_cycles - 1))
        request.remaining_cycles -= executed
        self.steal_buffer = request
        probes = self.probes
        if probes is not None:
            probes.steal_paused(now, request)
        self._next()

    # -- crash and recovery (driven by repro.faults) ----------------------------------------

    def crash_sweep(self):
        """The server crashed: reset every agent to a cold-idle state and
        return the requests it held, in a fixed order.  Pending action and
        worker timers go stale through their epochs; the steal slice's end
        entry is cancelled."""
        now = self.sim.now
        lost = []
        self.crash_epoch += 1
        if self._in_action:
            self._in_action = False
            if self._action_request is not None:
                lost.append(self._action_request)
                self._action_request = None
        for worker in self.workers:
            lost.extend(worker.crash_sweep(now))
        self.rebuild_load_masks()
        lost.extend(self.rx)
        self.rx.clear()
        lost.extend(self.requeues)
        self.requeues.clear()
        self.preempts.clear()
        policy = self.policy
        while len(policy):
            lost.append(policy.pop())
        if self.steal_buffer is not None:
            lost.append(self.steal_buffer)
            self.steal_buffer = None
        if self._steal_request is not None:
            if self._steal_end is not None:
                self.sim.cancel(self._steal_end)
                self._steal_end = None
            lost.append(self._steal_request)
            self._steal_request = None
        self.ready_workers.clear()
        return lost

    def recover(self):
        """The server is back: drop the stale preemption entries and worker
        registrations that stragglers queued while it was down, and
        re-register the idle workers (single-queue mode)."""
        self.preempts.clear()
        self.ready_workers.clear()
        if self.single_queue:
            self.ready_workers.extend(w for w in self.workers if w.is_idle)

    # -- introspection ----------------------------------------------------------------------

    def utilization(self, elapsed):
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    def __repr__(self):
        return "Dispatcher(rx={}, queue={}, stealing={})".format(
            len(self.rx), len(self.policy), self._steal_request is not None
        )
