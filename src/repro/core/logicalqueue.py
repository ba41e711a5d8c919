"""A single-*logical*-queue runtime (section 6, "How Concord extends to
single-logical-queue systems").

Shenango/Caladan-style design: there is no dedicated dispatcher.  The NIC
sprays arrivals across per-worker queues (RSS); idle workers *steal* from
the longest peer queue; and a dedicated scheduler hyperthread — which some
systems already have — monitors elapsed quanta and delivers Concord's
cache-line preemption signals.  Because no thread owns a global queue, the
dispatcher bottleneck of the single-physical-queue design disappears, at
the price of imperfect load balancing.

:class:`LogicalQueueServer` is a :class:`~repro.core.server.Server` with
its own agents: arrivals, the run loop, costs and the
:class:`~repro.core.server.SimResult` are the server's, so sweeps and
experiments work unchanged.
"""

import math
from collections import deque

from repro import constants
from repro.core.server import Server

__all__ = ["LogicalQueueServer", "logical_queue_concord"]

#: Cycles for one steal: probing a peer's queue and moving an entry across
#: cores — two coherence misses, like the single-queue handoff.
STEAL_CYCLES = constants.SQ_HANDOFF_CYCLES

#: Cycles for a failed steal probe (peer queue observed empty).
STEAL_PROBE_CYCLES = 120

#: Cycles for the scheduler hyperthread to process one quantum check.
SCHEDULER_CHECK_CYCLES = 40


def logical_queue_concord(quantum_us=5.0, safety=None, profile=None):
    """Concord's mechanisms on a single logical queue: cache-line
    cooperation driven by a scheduler hyperthread, work stealing for load
    balance, no dispatcher."""
    from repro.core.config import RuntimeConfig
    from repro.core.presets import CooperationFactory

    return RuntimeConfig(
        name="Concord-logical",
        queue_mode="jbsq",  # unused by this runtime; kept valid
        quantum_us=quantum_us,
        preemption_factory=CooperationFactory(profile=profile),
        safety=safety or _no_safety(),
    )


def _no_safety():
    from repro.core.config import NoSafety

    return NoSafety()


class _LqWorker:
    """A worker with its own queue that steals when idle."""

    __slots__ = (
        "server", "sim", "wid", "queue", "current", "epoch", "run_start",
        "idle_since", "idle_cycles", "busy_cycles", "work_cycles",
        "preemptions_taken", "steals", "failed_steal_rounds",
        "requests_completed", "wasted_signals", "_yielding",
    )

    def __init__(self, sim, wid, server):
        self.sim = sim
        self.wid = wid
        self.server = server
        self.queue = deque()
        self.current = None
        self.epoch = 0
        self.run_start = None
        self.idle_since = 0
        self.idle_cycles = 0
        self.busy_cycles = 0
        self.work_cycles = 0
        self.preemptions_taken = 0
        self.steals = 0
        self.failed_steal_rounds = 0
        self.requests_completed = 0
        self.wasted_signals = 0
        self._yielding = False

    @property
    def is_idle(self):
        return self.current is None and not self._yielding

    def enqueue(self, request):
        """NIC spraying or a peer's requeue lands work here."""
        self.queue.append(request)
        if self.current is None and not self._yielding:
            self._start_next(self.sim.now)

    def _take_work(self, now):
        """Local pop, else steal from the longest peer queue."""
        if self.queue:
            return self.queue.popleft(), 0
        victim = None
        longest = 0
        for peer in self.server.workers:
            if peer is self:
                continue
            if len(peer.queue) > longest:
                victim = peer
                longest = len(peer.queue)
        if victim is not None:
            self.steals += 1
            return victim.queue.popleft(), STEAL_CYCLES
        self.failed_steal_rounds += 1
        return None, STEAL_PROBE_CYCLES * (len(self.server.workers) - 1)

    def _start_next(self, at):
        request, extra = self._take_work(at)
        if request is None:
            # Nothing anywhere: stay idle (re-woken by the next enqueue);
            # the failed probe round is busy time, not idle.
            self.busy_cycles += extra
            return
        if self.idle_since is not None:
            self.idle_cycles += max(0, at - self.idle_since)
            self.idle_since = None
        server = self.server
        switch = server.costs.context_switch
        self.busy_cycles += switch + extra
        run_start = at + switch + extra
        self.epoch += 1
        epoch = self.epoch
        self.current = request
        self.run_start = run_start
        if request.first_dispatch_cycle is None:
            request.first_dispatch_cycle = at
        request.last_worker = self.wid

        duration = int(math.ceil(request.remaining_cycles * server.worker_rate))
        completion_at = run_start + duration
        self.sim.post_at(completion_at, self._on_complete, "lq-done", epoch)

        quantum = server.quantum_cycles
        if quantum is not None and completion_at > run_start + quantum:
            self.sim.post_at(
                run_start + quantum, self._quantum_expired, "lq-quantum",
                epoch,
            )

    def _quantum_expired(self, epoch):
        self.server.scheduler.enqueue_check(self, epoch)

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
        self.epoch += 1
        self.server.record_completion(request)
        self._after(now)

    def on_preempt_signal(self, epoch):
        if epoch != self.epoch or self.current is None:
            self.wasted_signals += 1
            return
        now = self.sim.now
        request = self.current
        server = self.server
        costs = server.costs
        executed = int((now - self.run_start) // server.worker_rate)
        executed = max(0, min(executed, request.remaining_cycles - 1))
        request.remaining_cycles -= executed
        self.work_cycles += executed
        request.preemptions += 1
        self.preemptions_taken += 1
        self.busy_cycles += (now - self.run_start) + costs.disruption
        self.current = None
        self.epoch += 1
        self._yielding = True
        # Locality-preserving: the preempted request rejoins this worker's
        # own queue tail (section 3.1's locality discussion).
        self.queue.append(request)
        self.sim.post(
            costs.disruption + costs.context_switch,
            self._after_yield,
            "lq-yielded",
        )

    def _after_yield(self):
        self._after(self.sim.now)

    def _after(self, now):
        self._yielding = False
        if self.current is None:
            self._start_next(now)
            if self.current is None:
                self.idle_since = now


class _Scheduler:
    """The dedicated scheduler hyperthread: a serial resource that turns
    quantum expiries into cache-line writes (section 6).

    It sits in the server's dispatcher slot, so it is also where the NIC
    delivers arrivals: :meth:`on_arrival` is the RSS spray.  It keeps the
    dispatcher counters a :class:`~repro.core.server.SimResult` reads.
    """

    #: No thread here runs stolen work (idle workers steal instead).
    steal_completions = 0
    steal_busy_cycles = 0

    def __init__(self, sim, server):
        self.sim = sim
        self.server = server
        self.workers = server.workers
        self.rng_spray = server.streams.stream("spray")
        self.pending = deque()
        self._in_action = False
        self.busy_cycles = 0
        self.signals_sent = 0
        self.stale_signals_skipped = 0

    @property
    def actions_run(self):
        """Every action is one quantum check that sends a signal."""
        return self.signals_sent

    @property
    def steals_started(self):
        return sum(worker.steals for worker in self.workers)

    def on_arrival(self, request):
        """RSS-style spraying: a uniform choice over workers."""
        workers = self.workers
        workers[self.rng_spray.randrange(len(workers))].enqueue(request)

    def enqueue_check(self, worker, epoch):
        self.pending.append((worker, epoch))
        self._kick()

    def _kick(self):
        if self._in_action:
            return
        while self.pending:
            entry = self.pending.popleft()
            worker, epoch = entry
            if worker.epoch != epoch or worker.current is None:
                self.stale_signals_skipped += 1
                continue
            cost = SCHEDULER_CHECK_CYCLES + self.server.costs.signal
            self._in_action = True
            self.busy_cycles += cost
            self.signals_sent += 1
            self.sim.post(cost, self._signal_landed, "lq-signal", entry)
            return

    def _signal_landed(self, entry):
        """The cache-line write completed; the worker notices it after the
        mechanism's notice latency plus any safety deferral."""
        worker, epoch = entry
        self._in_action = False
        delay = self.server.mechanism.notice_delay_cycles(
            self.server.rng_notice
        )
        if worker.current is not None:
            elapsed = max(0, self.sim.now - (worker.run_start or 0))
            delay += self.server.defer_cycles(worker.current.kind, elapsed)
        self.sim.post(
            int(delay), worker.on_preempt_signal, "lq-notice", epoch
        )
        self._kick()


class LogicalQueueServer(Server):
    """Single-logical-queue server: spray + steal + scheduler hyperthread.

    There is no central :class:`~repro.core.dispatcher.Dispatcher`: the
    scheduler hyperthread takes the dispatcher slot (``dispatcher is
    scheduler``).
    """

    def _build_agents(self):
        # The agents have no probe sites (and the bus sampler reads a
        # Worker's ``outstanding``), so the runtime stays untraced.
        self.probes = None
        self.workers = [
            _LqWorker(self.sim, wid, self)
            for wid in range(self.machine.num_workers)
        ]
        self.dispatcher = self.scheduler = _Scheduler(self.sim, self)
