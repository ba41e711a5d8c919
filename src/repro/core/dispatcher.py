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

from repro import constants

__all__ = ["Dispatcher"]


class Dispatcher:
    """The dispatcher agent; see module docstring."""

    def __init__(self, sim, server):
        self.sim = sim
        self.server = server
        config = server.config
        # Per-run constants, hoisted off the server and config.
        self.single_queue = server.queue_mode == "sq"
        self.jbsq_depth = config.jbsq_depth
        self._levels = tuple(range(config.jbsq_depth))
        self.locality_aware = config.locality_aware
        #: Single-queue placement consumes ready workers and locality-aware
        #: placement looks at the head request, so both need a non-empty
        #: queue first; plain JBSQ placement does not.
        self.placement_reads_queue = self.single_queue or self.locality_aware
        self.work_conserving = config.work_conserving_dispatcher
        self.costs = server.costs
        self.policy = server.policy
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
        for worker in self.workers:
            worker.dispatcher = self
            worker.load_masks = self.load_masks
        self.rebuild_load_masks()
        self._in_action = False
        #: Bumped by the fault injector when this server crashes; the
        #: pending action-finish event carries the epoch it was posted
        #: under and goes stale on mismatch (same trick as worker epochs).
        self.crash_epoch = 0
        #: The in-flight micro-action (only one runs at a time): what to do
        #: when it finishes, and the request (rx/requeue/push) and worker
        #: (push/signal) it acts on.  A crash sweep accounts the request as
        #: lost.
        self._action_done = None
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
        self._steal = None
        self._steal_stop_pending = False
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

    def on_arrival(self, request):
        """A packet reached the NIC ring."""
        self.rx.append(request)
        if not self._in_action:
            self._wake()

    def enqueue_preempt(self, worker, epoch):
        """A worker's scheduling quantum expired (timer event)."""
        self.preempts.append((worker, epoch))
        if not self._in_action:
            self._wake()

    def enqueue_requeue(self, request):
        """A worker yielded ``request``; pull it back to the central queue."""
        self.requeues.append(request)
        if not self._in_action:
            self._wake()

    def worker_became_idle(self, worker):
        if self.single_queue:
            # The dispatcher only notices the worker's "done" flag on its
            # next poll round over all n workers (section 2.2.2: with short
            # requests "multiple workers finish while the dispatcher is
            # busy sending a request to another worker").
            delay = self.server.poll_discovery_delay()
            if delay > 0:
                self.sim.post(delay, self._register_ready, "flag-poll", worker)
                return
            self.ready_workers.append(worker)
        if not self._in_action:
            self._wake()

    def _register_ready(self, worker):
        self.ready_workers.append(worker)
        if not self._in_action:
            self._wake()

    def worker_slot_freed(self, worker):
        if not self._in_action:
            self._wake()

    # -- the action loop --------------------------------------------------------------

    def _wake(self):
        if self._in_action:
            return
        if self._steal is not None:
            self._interrupt_steal()
            return
        self._next()

    def _finish_action(self, epoch):
        if epoch != self.crash_epoch:
            return  # the server crashed mid-action; the sweep took over
        self._in_action = False
        self._action_done()
        self._action_request = None
        self._next()

    def _next(self):
        """Start the highest-priority micro-action, if any: the dispatcher
        is busy for its cost, then :meth:`_finish_action` applies it."""
        if self._in_action or self._steal is not None:
            return
        faults = self.server.faults
        if faults is not None and faults.down:
            return  # crashed: the dispatcher core is dark until recovery
        costs = self.costs

        # 1. Preemption signals: skip stale entries (the worker already
        # finished or yielded; the dispatcher sees that in the shared state
        # before paying for a signal).
        preempts = self.preempts
        while preempts:
            worker, epoch = preempts.popleft()
            if worker.epoch != epoch or worker.current is None:
                self.stale_signals_skipped += 1
                continue
            self.signals_sent += 1
            self._action_done = self._deliver_signal
            self._action_worker = worker
            self._signal_epoch = epoch
            cost = costs.signal
            name = "d-signal"
            break
        else:
            if self.requeues:
                # 2. Preempted contexts returning to the central queue.
                self._action_request = self.requeues.popleft()
                self._action_done = self._push_preempted
                cost = costs.requeue
                name = "d-requeue"
            elif self.rx:
                # 3. New packets.
                self._action_request = self.rx.popleft()
                self._action_done = self._push_new
                cost = costs.rx
                name = "d-rx"
            else:
                # 4. Dispatch to a worker.
                policy = self.policy
                target = request = None
                if self.placement_reads_queue:
                    if policy:
                        target = self._pick_worker(
                            policy.peek() if self.locality_aware else None
                        )
                else:
                    # Plain JBSQ placement reads only the load masks: find
                    # a slot first, then pop (None if the queue is empty).
                    target = self._pick_worker()
                if target is not None:
                    request = policy.pop()
                if request is None:
                    # 5. Work conservation (Concord only): resume the stolen
                    # request, or steal when every worker is full.
                    if self.work_conserving and (
                        self.steal_buffer is not None
                        or (target is None and policy)
                    ):
                        self._begin_steal()
                    return
                self._action_request = request
                self._action_worker = target
                self._action_done = self._complete_dispatch
                cost = costs.push + costs.jbsq_scan
                name = "d-push"

        self._in_action = True
        self.busy_cycles += cost
        self.actions_run += 1
        probes = self.probes
        if probes is not None:
            probes.dispatcher_action(self.sim.now, name, cost)
        self.sim.post(cost, self._finish_action, name, self.crash_epoch)

    # -- dispatch ---------------------------------------------------------------------

    def _pick_worker(self, request=None):
        if self.single_queue:
            ready = self.ready_workers
            while ready:
                worker = ready.popleft()
                if worker.outstanding == 0:
                    return worker
            return None
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

    def _push_new(self):
        request = self._action_request
        self.policy.push_new(request)
        probes = self.probes
        if probes is not None:
            probes.request_enqueued(self.sim.now, request)

    def _push_preempted(self):
        request = self._action_request
        self.policy.push_preempted(request)
        probes = self.probes
        if probes is not None:
            probes.request_enqueued(self.sim.now, request, requeued=True)

    def _complete_dispatch(self):
        request = self._action_request
        worker = self._action_worker
        now = self.sim.now
        probes = self.probes
        if probes is not None:
            probes.request_dispatched(now, request, worker.wid)
        worker.enqueue(request, now + self.costs.sq_receive)

    def _deliver_signal(self):
        """The cache-line write / IPI just completed; the worker reacts after
        the mechanism's notice latency plus any safety deferral."""
        worker = self._action_worker
        server = self.server
        now = self.sim.now
        delay = server.mechanism.notice_delay_cycles(server.rng_notice)
        current = worker.current
        if current is not None:
            elapsed = now - (worker.run_start or now)
            delay += server.defer_cycles(
                current.kind, elapsed if elapsed > 0 else 0
            )
        self.sim.post(
            int(delay), worker.on_preempt_signal, "notice", self._signal_epoch
        )

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
        end_event = self.sim.at(
            exec_start + slice_len, self._finish_slice, "d-steal-end"
        )
        self._steal = {
            "request": request,
            "exec_start": exec_start,
            "end_event": end_event,
            "completes": completes,
        }
        probes = self.probes
        if probes is not None:
            probes.steal_started(now, request, exec_start, completes)

    def _account_steal(self, st, stop_time):
        """Charge the slice [entry switch + execution] to the dispatcher."""
        spent = stop_time - (st["exec_start"] - self.costs.context_switch)
        self.busy_cycles += spent
        self.steal_busy_cycles += spent

    def _finish_slice(self):
        st = self._steal
        if st is None:
            return  # the crash sweep already reclaimed the slice
        self._steal = None
        self._steal_stop_pending = False
        now = self.sim.now
        self._account_steal(st, now)
        request = st["request"]
        if st["completes"]:
            request.remaining_cycles = 0
            request.completion_cycle = now
            self.steal_completions += 1
            self.server.record_completion(request)
        else:
            executed = int((now - st["exec_start"]) // self.server.dispatcher_rate)
            executed = max(0, min(executed, request.remaining_cycles - 1))
            request.remaining_cycles -= executed
            self.steal_buffer = request
        self._next()

    def _interrupt_steal(self):
        """A new stimulus arrived mid-slice: the dispatcher's rdtsc probes
        notice it within a probe gap and it self-preempts (section 3.3)."""
        if self._steal_stop_pending:
            return
        st = self._steal
        gap = self.server.rng_notice.uniform(
            0.0, constants.PROBE_INTERVAL_CYCLES
        )
        stop_at = self.sim.now + int(gap) + self.costs.context_switch
        if st["end_event"].time <= stop_at:
            # The slice ends before we could stop it; let it finish.
            return
        self._steal_stop_pending = True
        st["end_event"].cancel()
        self.sim.post_at(stop_at, self._pause_steal, "d-steal-pause")

    def _pause_steal(self):
        st = self._steal
        if st is None:
            return  # the crash sweep already reclaimed the slice
        self._steal = None
        self._steal_stop_pending = False
        now = self.sim.now
        self._account_steal(st, now)
        request = st["request"]
        exec_time = now - self.costs.context_switch - st["exec_start"]
        executed = int(exec_time // self.server.dispatcher_rate)
        executed = max(0, min(executed, request.remaining_cycles - 1))
        request.remaining_cycles -= executed
        self.steal_buffer = request
        probes = self.probes
        if probes is not None:
            probes.steal_paused(now, request)
        self._next()

    # -- introspection ----------------------------------------------------------------------

    def utilization(self, elapsed):
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    def __repr__(self):
        return "Dispatcher(rx={}, queue={}, stealing={})".format(
            len(self.rx), len(self.policy), self._steal is not None
        )
