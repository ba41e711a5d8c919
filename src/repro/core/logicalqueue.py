"""A single-*logical*-queue runtime (section 6, "How Concord extends to
single-logical-queue systems").

Shenango/Caladan-style design: there is no dedicated dispatcher.  The NIC
sprays arrivals across per-worker queues (RSS); idle workers *steal* from
the longest peer queue; and a dedicated scheduler hyperthread — which some
systems already have — monitors elapsed quanta and delivers Concord's
cache-line preemption signals.  Because no thread owns a global queue, the
dispatcher bottleneck of the single-physical-queue design disappears, at
the price of imperfect load balancing.

The module reuses the same request/mechanism/metrics machinery as
:mod:`repro.core.server`, and returns the same :class:`SimResult` shape so
sweeps and experiments work unchanged.
"""

import math
from collections import deque

from repro import constants
from repro.core.preemption import NoPreemption
from repro.core.request import Request
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

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
        costs = self.server
        switch = costs.context_switch
        self.busy_cycles += switch + extra
        run_start = at + switch + extra
        self.epoch += 1
        epoch = self.epoch
        self.current = request
        self.run_start = run_start
        if request.first_dispatch_cycle is None:
            request.first_dispatch_cycle = at
        request.last_worker = self.wid

        duration = int(math.ceil(request.remaining_cycles * costs.worker_rate))
        completion_at = run_start + duration
        self.sim.post_at(completion_at, self._on_complete, "lq-done", epoch)

        quantum = costs.quantum_cycles
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
        executed = int((now - self.run_start) // self.server.worker_rate)
        executed = max(0, min(executed, request.remaining_cycles - 1))
        request.remaining_cycles -= executed
        self.work_cycles += executed
        request.preemptions += 1
        self.preemptions_taken += 1
        self.busy_cycles += (now - self.run_start) + self.server.disruption
        self.current = None
        self.epoch += 1
        self._yielding = True
        # Locality-preserving: the preempted request rejoins this worker's
        # own queue tail (section 3.1's locality discussion).
        self.queue.append(request)
        self.sim.post(
            self.server.disruption + self.server.context_switch,
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
    quantum expiries into cache-line writes (section 6)."""

    def __init__(self, sim, server):
        self.sim = sim
        self.server = server
        self.pending = deque()
        self._in_action = False
        self.busy_cycles = 0
        self.signals_sent = 0
        self.stale_skipped = 0

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
                self.stale_skipped += 1
                continue
            cost = SCHEDULER_CHECK_CYCLES + self.server.signal_cost
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


class LogicalQueueServer:
    """Single-logical-queue server: spray + steal + scheduler hyperthread.

    API-compatible with :class:`repro.core.server.Server` for ``run`` and
    the result object.
    """

    def __init__(self, machine, config, seed=0, profile=None):
        self.machine = machine
        self.config = config
        self.clock = machine.clock
        self.sim = Simulator()
        streams = RngStreams(seed)
        self.rng_arrival = streams.stream("arrivals")
        self.rng_service = streams.stream("service")
        self.rng_notice = streams.stream("notice")
        self.rng_defer = streams.stream("defer")
        self.rng_spray = streams.stream("spray")

        if config.preemptive:
            self.mechanism = config.preemption_factory(machine)
        else:
            self.mechanism = NoPreemption()
        if profile is not None:
            self.mechanism.attach_profile(profile)

        self.worker_rate = (
            1.0
            + constants.RUNTIME_PROC_OVERHEAD_FRACTION
            + self.mechanism.proc_overhead
        )
        self.quantum_cycles = (
            self.clock.us_to_cycles(config.quantum_us)
            if config.preemptive else None
        )
        self.context_switch = self.mechanism.context_switch_cycles
        self.disruption = self.mechanism.worker_disruption_cycles
        self.signal_cost = self.mechanism.dispatcher_signal_cycles

        self.workers = [
            _LqWorker(self.sim, wid, self)
            for wid in range(machine.num_workers)
        ]
        self.scheduler = _Scheduler(self.sim, self)
        self.completed = []
        self._ran = False
        self._spray_next = 0

    # shared hooks (same names the figure code uses) -------------------------------

    def defer_cycles(self, kind, elapsed_cycles=0):
        return self.config.safety.defer_cycles(
            kind, self.clock, self.rng_defer, elapsed_cycles
        )

    def record_completion(self, request):
        self.completed.append(request)

    @property
    def dispatcher(self):
        raise AttributeError(
            "LogicalQueueServer has no dispatcher; that is the point"
        )

    def run(self, workload, arrival, num_requests, until_us=None,
            max_events=60_000_000):
        if self._ran:
            raise RuntimeError("single-shot server; build a new one")
        self._ran = True
        if num_requests < 1:
            raise ValueError("need at least one request")
        self._workload = workload
        self._arrival = arrival
        self._num_requests = num_requests
        state = self._state = {
            "count": 0, "t_us": 0.0, "first": None, "last": None,
        }
        self._schedule_arrival()
        until = self.clock.us_to_cycles(until_us) if until_us is not None else None
        self.sim.run(until=until, max_events=max_events)
        return _LqResult(self, state, until)

    def _schedule_arrival(self):
        state = self._state
        state["t_us"] += self._arrival.next_gap_us(self.rng_arrival)
        cycle = self.clock.us_to_cycles(state["t_us"])
        self.sim.post_at(
            max(cycle, self.sim.now), self._fire_arrival, "lq-arrival"
        )

    def _fire_arrival(self):
        state = self._state
        cycle = self.sim.now
        if state["first"] is None:
            state["first"] = cycle
        state["last"] = cycle
        kind, service_us = self._workload.sample_class(self.rng_service)
        request = Request(
            rid=state["count"],
            kind=kind,
            arrival_cycle=cycle,
            service_cycles=max(1, self.clock.us_to_cycles(service_us)),
            service_us=service_us,
        )
        state["count"] += 1
        # RSS-style spraying: uniform choice over workers.
        target = self.workers[self.rng_spray.randrange(len(self.workers))]
        target.enqueue(request)
        if state["count"] < self._num_requests:
            self._schedule_arrival()


class _LqResult:
    """SimResult-shaped result for the logical-queue runtime."""

    def __init__(self, server, state, until):
        from repro.core.server import SimResult

        self.config_name = server.config.name
        self.clock = server.clock
        self.records = server.completed
        self.num_offered = state["count"]
        self.first_arrival_cycle = state["first"] or 0
        self.last_arrival_cycle = state["last"] or 0
        self.end_cycle = server.sim.now
        self.drained = len(self.records) == state["count"]
        self.worker_stats = [
            {
                "wid": w.wid,
                "idle_cycles": w.idle_cycles,
                "busy_cycles": w.busy_cycles,
                "work_cycles": w.work_cycles,
                "preemptions": w.preemptions_taken,
                "completed": w.requests_completed,
                "steals": w.steals,
            }
            for w in server.workers
        ]
        self.dispatcher_stats = {
            "busy_cycles": server.scheduler.busy_cycles,
            "actions": server.scheduler.signals_sent,
            "signals_sent": server.scheduler.signals_sent,
            "stale_signals_skipped": server.scheduler.stale_skipped,
            "steals_started": sum(w.steals for w in server.workers),
            "steal_completions": 0,
            "steal_busy_cycles": 0,
        }
        # Reuse SimResult's derived-metric implementations.
        self.slowdowns = SimResult.slowdowns.__get__(self)
        self.measured_records = SimResult.measured_records.__get__(self)
        self.duration_cycles = SimResult.duration_cycles.__get__(self)
        self.throughput_rps = SimResult.throughput_rps.__get__(self)
        self.worker_idle_fraction = SimResult.worker_idle_fraction.__get__(self)
        self.goodput_fraction = SimResult.goodput_fraction.__get__(self)

    def dispatcher_utilization(self):
        return min(
            1.0, self.dispatcher_stats["busy_cycles"] / self.duration_cycles()
        )

    def stolen_requests(self):
        return []
