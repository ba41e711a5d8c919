"""The fault injector: interprets a :class:`FaultPlan` against a live rack.

The injector is the only component that mutates simulation state on a
fault's behalf, and it does so deterministically: fault windows are
precomputed in cycles from the plan, the only scheduled events are the
ones that *must* mutate state at a point in time (crash, recovery,
blackout-end resync), and all randomness (probe-dropout Bernoulli draws)
comes from the injector's own named RNG stream, spawned from the rack's
master seed — so a fixed (plan, seed) pair replays bit-identically, and a
run with no plan never touches any of this code (every hook in the core
and cluster layers is guarded by ``faults is None`` / ``injector is
None``, mirroring the probe-bus pattern).

Crash semantics
---------------
At the crash instant the server's entire in-flight population is swept:
workers' current and local requests, the central queue, the dispatcher's
rx/requeue buffers, the steal slice, and the request riding the in-flight
dispatcher micro-action.  Worker epochs are bumped so every pending
completion/preemption event goes stale, and the dispatcher's
``crash_epoch`` invalidates its pending action-finish event.  Swept
requests are *lost* (counted, never completing) or — with
``requeue_inflight`` — handed back to the balancer, which re-routes each
from scratch.  While down, deliveries are dropped at the NIC.  Recovery
clears straggler state, re-registers idle workers, and resynchronizes
counter-mode telemetry against ground truth.
"""

from repro import constants
from repro.faults.plan import (
    FabricDegradation, ProbeDropout, ServerCrash, TelemetryBlackout,
    WorkerStall,
)

__all__ = ["FaultInjector", "ServerFaultState", "CrashRecord"]


class CrashRecord:
    """One crash's timeline: onset, planned recovery, observed restoration
    (first reply after recovery — the MTTR endpoint)."""

    __slots__ = ("server", "crash_cycle", "recover_cycle", "restored_cycle",
                 "lost", "requeued")

    def __init__(self, server, crash_cycle, recover_cycle):
        self.server = server
        self.crash_cycle = crash_cycle
        self.recover_cycle = recover_cycle
        self.restored_cycle = None
        self.lost = 0
        self.requeued = 0

    def to_dict(self):
        return {
            "server": self.server,
            "crash_cycle": self.crash_cycle,
            "recover_cycle": self.recover_cycle,
            "restored_cycle": self.restored_cycle,
            "lost": self.lost,
            "requeued": self.requeued,
        }


class ServerFaultState:
    """Per-server fault state consulted by the core layer's hooks.

    ``down`` is the only dynamic flag; stall and dropout windows are
    static, precomputed in cycles, and checked against ``sim.now`` at the
    probe site — no scheduled events, no state machine.
    """

    __slots__ = ("index", "injector", "down", "lost_inflight",
                 "stall_windows", "drop_windows")

    def __init__(self, index, injector, stall_windows, drop_windows):
        self.index = index
        self.injector = injector
        self.down = False
        #: Requests swept at crash instants on this server: subtracted from
        #: :attr:`Server.inflight` so telemetry sees ground truth again.
        self.lost_inflight = 0
        #: ``(start_cycle, end_cycle, wid_or_None)`` stall windows.
        self.stall_windows = stall_windows
        #: ``(start_cycle, end_cycle, drop_prob)`` dropout windows.
        self.drop_windows = drop_windows

    def preempt_retry_at(self, now, wid):
        """Consulted by :meth:`Worker.on_preempt_signal`: None lets the
        yield proceed; a cycle count re-arms the probe for that instant."""
        for start, end, target in self.stall_windows:
            if start <= now < end and (target is None or target == wid):
                self.injector.stalled_probes += 1
                return end
        for start, end, prob in self.drop_windows:
            if start <= now < end:
                if prob >= 1.0 or self.injector.rng.random() < prob:
                    self.injector.dropped_probes += 1
                    return now + self.injector.reprobe_cycles
                return None
        return None


class FaultInjector:
    """Drives one :class:`FaultPlan` against one :class:`Cluster`."""

    def __init__(self, plan, streams):
        self.plan = plan
        self.rng = streams.stream("faults")
        self.cluster = None
        self.balancer = None
        self.sim = None
        self.clock = None
        self.reprobe_cycles = 1
        #: Static ``(start, end, multiplier)`` fabric-degradation windows.
        self._degradations = ()
        #: Static ``(start, end)`` telemetry-blackout windows.
        self._blackouts = ()
        # -- counters ---------------------------------------------------------
        self.crashes = 0
        self.recoveries = 0
        self.lost_total = 0
        self.requeued_total = 0
        self.stalled_probes = 0
        self.dropped_probes = 0
        self.reports_dropped = 0
        #: Per-crash timelines, in onset order (MTTR comes from these).
        self.crash_log = []

    # -- installation ----------------------------------------------------------

    def install(self, cluster):
        """Wire the plan into a freshly-built cluster (before ``run``)."""
        plan = self.plan
        plan.validate_for(cluster.num_servers)
        self.cluster = cluster
        self.balancer = cluster.balancer
        self.sim = cluster.sim
        clock = cluster.machine.clock
        self.clock = clock
        self.reprobe_cycles = max(
            1, clock.us_to_cycles(constants.FAULT_REPROBE_US)
        )

        stall = {i: [] for i in range(cluster.num_servers)}
        for spec in plan.by_type(WorkerStall):
            stall[spec.server].append((
                clock.us_to_cycles(spec.at_us),
                clock.us_to_cycles(spec.at_us + spec.duration_us),
                spec.worker,
            ))
        drop = {i: [] for i in range(cluster.num_servers)}
        for spec in plan.by_type(ProbeDropout):
            targets = (
                [spec.server] if spec.server is not None
                else list(range(cluster.num_servers))
            )
            for index in targets:
                drop[index].append((
                    clock.us_to_cycles(spec.at_us),
                    clock.us_to_cycles(spec.at_us + spec.duration_us),
                    spec.drop_prob,
                ))
        for index, server in enumerate(cluster.servers):
            server.faults = ServerFaultState(
                index, self, tuple(stall[index]), tuple(drop[index])
            )

        self._degradations = tuple(
            (
                clock.us_to_cycles(spec.at_us),
                clock.us_to_cycles(spec.at_us + spec.duration_us),
                spec.multiplier,
            )
            for spec in plan.by_type(FabricDegradation)
        )
        blackouts = tuple(
            (
                clock.us_to_cycles(spec.at_us),
                clock.us_to_cycles(spec.at_us + spec.duration_us),
            )
            for spec in plan.by_type(TelemetryBlackout)
        )
        self._blackouts = blackouts
        for _start, end in blackouts:
            self.sim.post_at(end, self._blackout_resync, "fault-resync")

        for spec in plan.by_type(ServerCrash):
            at = clock.us_to_cycles(spec.at_us)
            recover = clock.us_to_cycles(spec.recover_at_us)
            self.sim.post_at(
                at, self._make_crash(spec, at, recover), "fault-crash"
            )
            self.sim.post_at(
                recover, self._make_recover(spec.server), "fault-recover"
            )
        self.balancer.injector = self
        return self

    # -- fabric state queries (balancer hooks) ---------------------------------

    def scale_hop(self, now, delay):
        """Apply every active degradation window to one hop delay."""
        for start, end, multiplier in self._degradations:
            if start <= now < end:
                delay = int(delay * multiplier)
        return delay

    def telemetry_frozen(self, now):
        for start, end in self._blackouts:
            if start <= now < end:
                return True
        return False

    def note_reply(self, index, now):
        """Reply landed from ``index``: close any crash record waiting for
        its post-recovery restoration instant (MTTR endpoint)."""
        for record in self.crash_log:
            if (
                record.server == index
                and record.restored_cycle is None
                and now >= record.recover_cycle
            ):
                record.restored_cycle = now

    # -- crash / recovery -------------------------------------------------------

    def _make_crash(self, spec, at, recover):
        def crash():
            self._crash(spec, at, recover)
        return crash

    def _make_recover(self, index):
        def recover():
            self._recover(index)
        return recover

    def _crash(self, spec, at, recover):
        server = self.cluster.servers[spec.server]
        state = server.faults
        if state.down:
            return  # overlapping crash specs: the first one owns the window
        state.down = True
        now = self.sim.now
        record = CrashRecord(spec.server, now, recover)
        self.crash_log.append(record)
        self.crashes += 1
        lost = self._sweep_inflight(server)
        if spec.requeue_inflight:
            record.requeued = len(lost)
            self.requeued_total += len(lost)
            for request in lost:
                self.balancer.reroute(request, exclude=(spec.server,))
        else:
            record.lost = len(lost)
            state.lost_inflight += len(lost)
            self.lost_total += len(lost)
            manager = self.balancer.resilience
            if manager is not None:
                manager.note_lost(lost)
        probes = self.balancer.probes
        if probes is not None:
            probes.server_crashed(now, spec.server, len(lost))

    def _sweep_inflight(self, server):
        """Collect every request alive on ``server`` and reset its agents to
        a cold-idle state; pending events are invalidated via epochs."""
        now = self.sim.now
        lost = []
        d = server.dispatcher
        d.crash_epoch += 1
        if d._in_action:
            d._in_action = False
            if d._action_request is not None:
                lost.append(d._action_request)
                d._action_request = None
        for worker in server.workers:
            if worker.current is not None:
                lost.append(worker.current)
                worker.current = None
            lost.extend(worker.local)
            worker.local.clear()
            worker.run_start = None
            worker._switching_until = None
            worker.outstanding = 0
            worker.epoch += 1
            if worker.idle_since is None:
                worker.idle_since = now
        d.rebuild_load_masks()
        lost.extend(d.rx)
        d.rx.clear()
        lost.extend(d.requeues)
        d.requeues.clear()
        d.preempts.clear()
        policy = server.policy
        while len(policy):
            lost.append(policy.pop())
        if d.steal_buffer is not None:
            lost.append(d.steal_buffer)
            d.steal_buffer = None
        if d._steal is not None:
            st = d._steal
            st["end_event"].cancel()
            lost.append(st["request"])
            d._steal = None
            d._steal_stop_pending = False
        d.ready_workers.clear()
        return lost

    def _recover(self, index):
        server = self.cluster.servers[index]
        state = server.faults
        if not state.down:
            return
        state.down = False
        now = self.sim.now
        d = server.dispatcher
        # Straggler events while down can only have queued stale preempt
        # tuples or re-registered workers; start from a clean slate.
        d.preempts.clear()
        d.ready_workers.clear()
        if server.queue_mode == "sq":
            d.ready_workers.extend(
                w for w in server.workers if w.is_idle
            )
        self.recoveries += 1
        board = self.balancer.board
        if board.counter_mode:
            # The switch re-reads its counters: lost in-flights must not
            # leave a phantom queue pinned on the dead server.
            board.resync(index, server.inflight)
        probes = self.balancer.probes
        if probes is not None:
            probes.server_recovered(now, index)

    def _blackout_resync(self):
        """Blackout ended: counter-mode boards re-read ground truth (missed
        increments/decrements would otherwise skew the view forever)."""
        board = self.balancer.board
        if not board.counter_mode:
            return
        if self.telemetry_frozen(self.sim.now):
            return  # still inside an overlapping blackout window
        for index, server in enumerate(self.cluster.servers):
            board.resync(index, server.inflight)

    # -- reporting --------------------------------------------------------------

    def stats(self):
        return {
            "plan": self.plan.name,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "lost": self.lost_total,
            "requeued": self.requeued_total,
            "stalled_probes": self.stalled_probes,
            "dropped_probes": self.dropped_probes,
            "reports_dropped": self.reports_dropped,
            "crash_log": [record.to_dict() for record in self.crash_log],
        }

    def mttr_us_samples(self):
        """Time from each crash onset to the first post-recovery reply."""
        out = []
        for record in self.crash_log:
            if record.restored_cycle is not None:
                out.append(self.clock.cycles_to_us(
                    record.restored_cycle - record.crash_cycle
                ))
        return out

    def __repr__(self):
        return "FaultInjector(plan={!r}, crashes={}, lost={})".format(
            self.plan.name, self.crashes, self.lost_total
        )
