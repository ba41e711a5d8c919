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
from math import ceil

__all__ = ["Worker"]


class Worker:
    """One simulated worker thread."""

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
        #: itself and the list when it is built.
        self.bit = 1 << wid
        self.load_masks = None
        self.dispatcher = None
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
        self.probes = server.probes

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

        completion_at = run_start + ceil(
            request.remaining_cycles * self.worker_rate
        )
        sim.post_at(completion_at, self._on_complete, "w-complete", epoch)

        quantum = self.quantum_cycles
        if quantum is not None and completion_at > run_start + quantum:
            expiry = run_start + quantum
            mech = self.mechanism
            if mech.needs_dispatcher_signal:
                sim.post_at(
                    expiry, self._quantum_expired, "quantum-expiry", epoch
                )
            else:
                # Self-preemption (rdtsc probes): the worker notices the
                # elapsed quantum at its next probe, no dispatcher involved.
                server = self.server
                delay = mech.notice_delay_cycles(
                    server.rng_notice
                ) + server.defer_cycles(request.kind, elapsed_cycles=quantum)
                sim.post_at(
                    expiry + int(delay), self.on_preempt_signal,
                    "self-preempt", epoch,
                )

    def _quantum_expired(self, epoch):
        self.dispatcher.enqueue_preempt(self, epoch)

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
                sim.post_at(
                    retry_at, self.on_preempt_signal, "fault-reprobe", epoch
                )
                return
        now = sim.now
        request = self.current
        executed = int((now - self.run_start) // self.worker_rate)
        executed = max(0, min(executed, request.remaining_cycles - 1))
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
        self.epoch += 1
        self._switching_until = yield_done
        self.dispatcher.enqueue_requeue(request)
        sim.post_at(yield_done, self._after_yield, "w-yielded", self.epoch)

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

    def __repr__(self):
        return "Worker(wid={}, outstanding={}, idle={})".format(
            self.wid, self.outstanding, self.is_idle
        )
