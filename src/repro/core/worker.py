"""Worker threads.

A worker is pinned to a dedicated core (section 2.1).  It executes one
request at a time from its local queue (depth 1 in single-queue mode, k in
JBSQ(k) mode), yields cooperatively or takes interrupts depending on the
configured preemption mechanism, and tracks its idle time so Fig. 3-style
stall accounting falls out directly.

Timing model
------------
Work is accounted in *uninstrumented* cycles.  A worker executing a request
advances it at rate ``1 / rate`` where ``rate = 1 + proc_overhead`` stretches
wall-clock time by runtime bookkeeping plus the preemption mechanism's
instrumentation tax (cproc in Eq. 2).  Each (re)start pays a context switch;
each preemption pays the mechanism's notification disruption (cnotif).
"""

from collections import deque
from heapq import heappush
from math import ceil

__all__ = ["Worker"]


class Worker:
    """One simulated worker thread."""

    # Slots, as on the dispatcher: past 30 instance attributes CPython
    # drops a class's shared-key dict and every ``self.x`` becomes a dict
    # probe, and this class has more than that.  A mistyped attribute
    # write raises instead of silently adding state.
    __slots__ = (
        "sim", "wid", "server", "local", "current", "epoch", "run_start",
        "idle_since", "idle_cycles", "busy_cycles", "work_cycles",
        "preemptions_taken", "wasted_signals", "requests_completed",
        "_switching_until", "outstanding", "bit", "load_masks", "dispatcher",
        "quantum_cb", "costs", "_switch_in", "_warm_discount", "worker_rate",
        "quantum_cycles", "mechanism", "_signals_dispatcher", "probes",
        "_heap", "signal_cb", "_complete_cb", "_yield_cb",
    )

    def __init__(self, sim, wid, server):
        self.sim = sim
        self.wid = wid
        self.server = server
        self.local = deque()
        self.current = None
        #: Monotonic counter identifying the current execution; preemption
        #: signals carry the epoch they were aimed at so stale signals
        #: (request already finished or yielded) are recognised and dropped.
        self.epoch = 0
        self.run_start = None
        #: Start of the current idle interval, or None while busy.
        self.idle_since = 0
        self.idle_cycles = 0
        self.busy_cycles = 0
        #: Uninstrumented service cycles actually executed (goodput).
        self.work_cycles = 0
        self.preemptions_taken = 0
        self.wasted_signals = 0
        self.requests_completed = 0
        self._switching_until = None
        #: Requests owned by this worker: queued locally plus in service
        #: (or switching in or out).  JBSQ(k) bounds this at k (JBSQ(1) ==
        #: single queue, section 3.2).  Maintained, not recomputed: +1 on
        #: enqueue, -1 when a request completes or its yield finishes.  Those
        #: three sites move the ``load_masks`` bit inline (they run once per
        #: request); the crash sweep resets both.
        self.outstanding = 0
        #: This worker's bit in the dispatcher's ``load_masks`` (bit ``wid``
        #: of ``load_masks[n]`` is set while ``outstanding == n``); every
        #: change of ``outstanding`` moves the bit.  The dispatcher binds
        #: itself, the list and its quantum-expiry callback when it is built.
        self.bit = 1 << wid
        self.load_masks = None
        self.dispatcher = None
        self.quantum_cb = None
        # Per-run constants, hoisted off the server for the hot path.
        costs = self.costs = server.costs
        #: Cycles to switch a request in, and the discount for a warm
        #: resume on the core that ran its previous slice.
        self._switch_in = costs.context_switch + costs.jbsq_residual
        self._warm_discount = costs.context_switch // 2
        self.worker_rate = server.worker_rate
        self.quantum_cycles = (
            server.quantum_cycles if server.preemptive else None
        )
        self.mechanism = server.mechanism
        #: A class attribute of the mechanism, read once instead of per
        #: slice.
        self._signals_dispatcher = server.mechanism.needs_dispatcher_signal
        self.probes = server.probes
        #: The event heap: the per-slice timers are pushed onto it
        #: directly, with their callbacks bound once (see
        #: :mod:`repro.sim.engine`).
        self._heap = sim._heap
        self.signal_cb = self.on_preempt_signal
        self._complete_cb = self._on_complete
        self._yield_cb = self._after_yield

    # -- queue state ------------------------------------------------------------

    @property
    def is_idle(self):
        return self.outstanding == 0

    # -- dispatch entry points ----------------------------------------------------

    def enqueue(self, request, ready_at):
        """Receive a request pushed by the dispatcher.

        ``ready_at`` is when the request becomes visible to the worker
        (dispatch action completion plus, in single-queue mode, the worker's
        own receive miss).
        """
        self.local.append(request)
        n = self.outstanding
        self.outstanding = n + 1
        masks = self.load_masks
        masks[n] ^= self.bit
        masks[n + 1] ^= self.bit
        if n == 0:
            now = self.sim.now
            self._start_next(ready_at if ready_at > now else now)

    # -- execution ------------------------------------------------------------------

    def _start_next(self, at):
        """Begin the next local request: close the idle interval, pay the
        context switch (plus JBSQ's timer-arming residual), and schedule
        completion/preemption."""
        if not self.local:
            raise RuntimeError("worker {} has nothing to start".format(self.wid))
        request = self.local.popleft()
        sim = self.sim
        now = sim.now
        if at < now:
            at = now
        idle_since = self.idle_since
        if idle_since is not None:
            if at > idle_since:
                self.idle_cycles += at - idle_since
            self.idle_since = None

        switch = self._switch_in
        if request.preemptions > 0:
            if request.last_worker == self.wid:
                # Warm resume: the request's context is still in this
                # core's caches, halving the switch-in cost (the locality
                # benefit section 3.1 alludes to).
                switch -= self._warm_discount
            else:
                request.migrations += 1
        self.busy_cycles += switch
        run_start = at + switch
        self._switching_until = run_start
        epoch = self.epoch = self.epoch + 1
        self.current = request
        self.run_start = run_start
        if request.first_dispatch_cycle is None:
            request.first_dispatch_cycle = at
        request.last_worker = self.wid

        probes = self.probes
        if probes is not None:
            probes.request_started(
                at, request, self.wid, run_start, request.preemptions > 0
            )

        # ``w-complete``; ``at`` >= now, so every timer below is >= now.
        heap = self._heap
        completion_at = run_start + ceil(
            request.remaining_cycles * self.worker_rate
        )
        seq = sim._seq = sim._seq + 1
        heappush(heap, (completion_at, seq, self._complete_cb, epoch))

        quantum = self.quantum_cycles
        if quantum is not None and completion_at > run_start + quantum:
            expiry = run_start + quantum
            if self._signals_dispatcher:
                # ``quantum-expiry``: the dispatcher queues a signal.
                seq = sim._seq = seq + 1
                heappush(heap, (expiry, seq, self.quantum_cb, (self, epoch)))
            else:
                # Self-preemption (rdtsc probes): the worker notices the
                # elapsed quantum at its next probe, no dispatcher involved.
                server = self.server
                delay = self.mechanism.notice_delay_cycles(server.rng_notice)
                if server.safety_defers:
                    delay += server.defer_cycles(
                        request.kind, elapsed_cycles=quantum
                    )
                seq = sim._seq = seq + 1
                heappush(heap, (
                    expiry + int(delay), seq, self.signal_cb, epoch,
                ))

    def _on_complete(self, epoch):
        if epoch != self.epoch or self.current is None:
            return
        request = self.current
        now = self.sim.now
        self.busy_cycles += now - self.run_start
        self.work_cycles += request.remaining_cycles
        request.remaining_cycles = 0
        request.completion_cycle = now
        self.requests_completed += 1
        self.current = None
        self.run_start = None
        self._switching_until = None
        self.epoch += 1
        n = self.outstanding
        self.outstanding = n - 1
        masks = self.load_masks
        masks[n] ^= self.bit
        masks[n - 1] ^= self.bit
        self.server.record_completion(request)
        self._after_request(now)

    def on_preempt_signal(self, epoch):
        """The preemption notification reached application code: yield.

        Fired either by the dispatcher (signal + notice latency + safety
        deferral) or by the worker's own rdtsc probe.  Stale signals — the
        request completed or already yielded — are dropped, mirroring how a
        late cache-line read observes an already-cleared flag.
        """
        if epoch != self.epoch or self.current is None:
            self.wasted_signals += 1
            return
        sim = self.sim
        faults = self.server.faults
        if faults is not None:
            # Fault injection: a stall window swallows the probe until the
            # window ends; a dropout window loses it for one re-probe
            # period.  Either way the notification is re-armed, not lost —
            # if the request finishes first, the stale-epoch check above
            # drops the re-fire.
            retry_at = faults.preempt_retry_at(sim.now, self.wid)
            if retry_at is not None:
                sim.post_at(retry_at, self.signal_cb, epoch)
                return
        now = sim.now
        request = self.current
        # Cycles executed this slice, at least 0 and leaving at least 1.
        executed = int((now - self.run_start) // self.worker_rate)
        limit = request.remaining_cycles - 1
        if executed > limit:
            executed = limit
        if executed < 0:
            executed = 0
        request.remaining_cycles -= executed
        self.work_cycles += executed
        request.preemptions += 1
        self.preemptions_taken += 1
        self.busy_cycles += now - self.run_start
        probes = self.probes
        if probes is not None:
            probes.request_preempted(now, request, self.wid)

        costs = self.costs
        yield_done = now + costs.disruption + costs.context_switch
        self.busy_cycles += costs.disruption + costs.context_switch
        self.current = None
        self.run_start = None
        epoch = self.epoch = epoch + 1
        self._switching_until = yield_done
        self.dispatcher.enqueue_requeue(request)
        # ``w-yielded``, once the switch out is done.
        seq = sim._seq = sim._seq + 1
        heappush(self._heap, (yield_done, seq, self._yield_cb, epoch))

    def _after_yield(self, epoch):
        self._switching_until = None
        if epoch == self.epoch:
            # Otherwise a crash sweep already zeroed ``outstanding`` (and
            # possibly a new request started since).
            n = self.outstanding
            self.outstanding = n - 1
            masks = self.load_masks
            masks[n] ^= self.bit
            masks[n - 1] ^= self.bit
        self._after_request(self.sim.now)

    def _after_request(self, now):
        """Pick up the next local request or go idle and tell the dispatcher."""
        if self.local:
            self._start_next(now)
            self.dispatcher.worker_slot_freed(self)
        else:
            self.idle_since = now
            probes = self.probes
            if probes is not None:
                probes.worker_went_idle(now, self.wid)
            self.dispatcher.worker_became_idle(self)

    def crash_sweep(self, now):
        """The server crashed: drop to a cold-idle state and return the
        requests this worker held (in service first).  Bumping the epoch
        makes every pending completion, preemption and yield-done timer
        stale.  The dispatcher rebuilds ``load_masks`` afterwards."""
        lost = [] if self.current is None else [self.current]
        lost.extend(self.local)
        self.local.clear()
        self.current = None
        self.run_start = None
        self._switching_until = None
        self.outstanding = 0
        self.epoch += 1
        if self.idle_since is None:
            self.idle_since = now
        return lost

    def __repr__(self):
        return "Worker(wid={}, outstanding={}, idle={})".format(
            self.wid, self.outstanding, self.is_idle
        )
