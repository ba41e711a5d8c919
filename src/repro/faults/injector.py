"""The fault injector: interprets a :class:`FaultPlan` against a live rack.

The injector is the only component that mutates simulation state on a
fault's behalf, and it does so deterministically: fault windows are
precomputed in cycles from the plan, the only scheduled events are the
ones that *must* mutate state at a point in time (crash and recovery),
and all randomness (probe-dropout Bernoulli draws)
comes from the injector's own named RNG stream, spawned from the rack's
master seed — so a fixed (plan, seed) pair replays bit-identically, and a
run with no plan never touches any of this code (every hook in the core
and cluster layers is guarded by ``faults is None`` / ``injector is
None``, mirroring the probe-bus pattern).

Crash semantics
---------------
At the crash instant the server's entire in-flight population is swept
by ``Dispatcher.crash_sweep`` (which resets each worker through
``Worker.crash_sweep``): workers' current and local requests, the central
queue, the dispatcher's rx/requeue buffers, the steal slice, and the
request riding the in-flight dispatcher micro-action.  Worker epochs are
bumped so every pending completion/preemption event goes stale, and the
dispatcher's ``crash_epoch`` invalidates its pending action-finish event.
Swept requests are *lost* (counted, never completing) or — with
``requeue_inflight`` — handed back to the balancer, which re-routes each
from scratch.  While down, deliveries are dropped at the NIC.  Recovery
(``Dispatcher.recover``) clears straggler state and re-registers idle
workers; the balancer's queue view catches up with the next periodic
telemetry report, which no longer counts the swept requests.
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
        self._blackouts = tuple(
            (
                clock.us_to_cycles(spec.at_us),
                clock.us_to_cycles(spec.at_us + spec.duration_us),
            )
            for spec in plan.by_type(TelemetryBlackout)
        )

        for spec in plan.by_type(ServerCrash):
            self.sim.post_at(clock.us_to_cycles(spec.at_us), self._crash, spec)
            self.sim.post_at(
                clock.us_to_cycles(spec.recover_at_us), self._recover,
                spec.server,
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

    def _crash(self, spec):
        server = self.cluster.servers[spec.server]
        state = server.faults
        if state.down:
            return  # overlapping crash specs: the first one owns the window
        state.down = True
        now = self.sim.now
        record = CrashRecord(
            spec.server, now, self.clock.us_to_cycles(spec.recover_at_us)
        )
        self.crash_log.append(record)
        self.crashes += 1
        lost = server.dispatcher.crash_sweep()
        if spec.requeue_inflight:
            record.requeued = len(lost)
            self.requeued_total += len(lost)
            for request in lost:
                self.balancer.reroute(request, exclude=(spec.server,))
        else:
            record.lost = len(lost)
            state.lost_inflight += len(lost)
            self.lost_total += len(lost)
            # The balancer cannot observe a silent loss: resilience
            # resolves these attempts through their per-attempt timeouts.
        probes = self.balancer.probes
        if probes is not None:
            probes.server_crashed(now, spec.server, len(lost))

    def _recover(self, index):
        server = self.cluster.servers[index]
        state = server.faults
        if not state.down:
            return
        state.down = False
        now = self.sim.now
        server.dispatcher.recover()
        self.recoveries += 1
        probes = self.balancer.probes
        if probes is not None:
            probes.server_recovered(now, index)

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
