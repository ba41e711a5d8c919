"""The simulated rack: N single-dispatcher servers behind one balancer.

This is the first place multiple :class:`~repro.core.server.Server`
instances coexist in **one** simulation: every server is built on the
rack's shared :class:`~repro.sim.engine.Simulator` and fed through the
externally-injected arrival seam (:meth:`Server.deliver`), so intra-server
mechanisms (Concord's cooperation, JBSQ, work stealing) run unchanged while
the inter-server layer routes above them.  Per-server randomness comes from
:meth:`RngStreams.spawn_key`, so racks are reproducible and members are
independent.
"""

from repro import constants
from repro.core.server import RunLimitExceeded, Server, SimResult, pooled
from repro.cluster.balancer import LoadBalancer
from repro.cluster.network import NetworkFabric
from repro.cluster.policies import make_cluster_policy
from repro.metrics.slowdown import check_warmup_frac, summarize_slowdowns
from repro.obs.session import active_session
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

__all__ = ["Cluster", "ClusterServer", "ClusterResult"]


class ClusterServer(Server):
    """One rack member: an ordinary single-dispatcher server wired into the
    shared rack simulator with reproducibly-derived child streams.

    The adapter adds nothing to the scheduling model — that is the point:
    balancer-routed arrivals enter through the same :meth:`deliver` seam
    the single-server paths use, so rack-scale results compose the exact
    intra-server behaviour the paper's figures measure.
    """

    def __init__(self, index, machine, config, sim, streams, profile=None,
                 app=None):
        super().__init__(
            machine, config,
            sim=sim,
            streams=streams.spawn_key("server", index),
            profile=profile,
            app=app,
        )
        self.index = index


class Cluster:
    """A rack of ``num_servers`` identical servers behind one balancer.

    Parameters
    ----------
    machine, config:
        Per-server machine spec and runtime configuration (the intra-server
        mechanism: Concord, Shinjuku, no-preemption, ...).
    num_servers:
        Rack width.
    policy:
        Inter-server policy name ("random", "rr", "jsq", "po2", "sed") or
        an :class:`~repro.cluster.policies.InterServerPolicy` instance.
    fabric:
        Optional :class:`~repro.cluster.network.NetworkFabric`; defaults to
        the constants-derived rack fabric.
    seed:
        Master seed; servers and balancer derive children via
        ``spawn_key``, so the same seed reproduces the whole rack.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`.  ``None`` (the default)
        builds a rack bit-identical to the pre-fault layer: no injector is
        installed and every hook stays behind an ``is None`` guard.
    resilience:
        Optional :class:`~repro.faults.ResilienceConfig` enabling the
        balancer-side failure detector, per-request timeouts with retry,
        hedging, and admission-control shedding.
    """

    def __init__(self, machine, config, num_servers, policy="jsq", seed=0,
                 fabric=None, profile=None, fault_plan=None, resilience=None):
        if num_servers < 1:
            raise ValueError(
                "rack needs at least one server, got {}".format(num_servers)
            )
        self.machine = machine
        self.config = config
        self.num_servers = num_servers
        self.sim = Simulator()
        self.streams = RngStreams(seed)
        self.fabric = fabric if fabric is not None else NetworkFabric()
        self.policy = make_cluster_policy(policy)
        self.servers = [
            ClusterServer(
                index, machine, config, self.sim, self.streams,
                profile=profile,
            )
            for index in range(num_servers)
        ]
        self.balancer = LoadBalancer(
            self.sim, machine.clock, self.servers, self.policy, self.fabric,
            self.streams.spawn_key("balancer"),
        )
        self.injector = None
        if fault_plan is not None and len(fault_plan):
            # Imported lazily: repro.faults depends on the cluster layer's
            # seams, not the other way round.
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(
                fault_plan, self.streams.spawn_key("faults")
            )
            self.injector.install(self)
        self.resilience = None
        if resilience is not None:
            from repro.faults.resilience import ResilienceManager

            self.resilience = ResilienceManager(self.balancer, resilience)
        #: Probe bus for the balancer lane; the member servers already
        #: picked up their own buses through ``Server.__init__`` when a
        #: trace session is ambient.
        self.probes = None
        session = active_session()
        if session is not None:
            bus = session.make_bus("balancer", clock=machine.clock)
            self.probes = bus
            self.balancer.probes = bus
        self._ran = False

    def run(self, workload, arrival, num_requests, until_us=None,
            max_events=120_000_000):
        """Offer ``num_requests`` open-loop arrivals to the rack and run the
        shared event loop to drain (or to ``until_us``)."""
        if self._ran:
            raise RuntimeError("Cluster instances are single-shot; build a new one")
        self._ran = True
        self.balancer.start(workload, arrival, num_requests)
        clock = self.machine.clock
        until = clock.us_to_cycles(until_us) if until_us is not None else None
        self.sim.run(until=until, max_events=max_events)
        completed = sum(len(server.completed) for server in self.servers)
        if self.injector is not None or self.resilience is not None:
            # Crashed-away losses / shed / failed requests never produce a
            # completion record, so "every request resolved" is the honest
            # drain criterion under fault injection.
            drained = self.balancer.accounted()
        else:
            drained = completed == num_requests
        if not drained and until is None and self.sim.pending:
            raise RunLimitExceeded(
                "rack[{}x{}]: {} events were not enough to drain {} requests "
                "({} completed)".format(
                    self.num_servers, self.config.name, max_events,
                    num_requests, completed,
                )
            )
        return ClusterResult(
            self,
            [server.collect_result() for server in self.servers],
            drained=drained,
        )


class ClusterResult(SimResult):
    """Rack-wide :class:`~repro.core.server.SimResult` pooled over the
    per-server results (so the paper's metrics and :mod:`repro.metrics`
    work unchanged), plus rack-level introspection: routing counts,
    imbalance, telemetry and the fault and resilience accounting.

    Pooling per-request samples (rather than averaging per-server
    percentiles) is what makes the rack-wide p99/p99.9 equal the value a
    client-side observer of all replies would compute.
    """

    def __init__(self, cluster, server_results, drained):
        balancer = cluster.balancer
        super().__init__(
            config_name="{} x{} [{}]".format(
                cluster.config.name, cluster.num_servers, cluster.policy.name
            ),
            num_offered=balancer.offered,
            drained=drained,
            **pooled(server_results),
        )
        self.policy_name = cluster.policy.name
        self.num_servers = cluster.num_servers
        self.fabric = cluster.fabric
        #: Records dropped because a retry/hedge duplicate of the same
        #: logical request already completed earlier (first reply wins).
        self.duplicate_records = 0
        if balancer.resilience is not None:
            seen = set()
            unique = []
            for record in self.records:
                if record.rid in seen:
                    continue
                seen.add(record.rid)
                unique.append(record)
            self.duplicate_records = len(self.records) - len(unique)
            self.records = unique
        #: Requests the balancer routed to each server.
        self.routed = list(balancer.routed)
        self.replies = balancer.replies
        self.telemetry_updates = balancer.board.updates
        # -- fault-injection / resilience accounting (None/zero when off) -----
        injector = balancer.injector
        manager = balancer.resilience
        #: Injector counter dict (crashes, lost, ...), or None.
        self.fault_stats = injector.stats() if injector is not None else None
        #: Resilience counter dict (retries, hedges, ...), or None.
        self.resilience_stats = manager.stats() if manager is not None else None
        self.lost = injector.lost_total if injector is not None else 0
        self.requeued = injector.requeued_total if injector is not None else 0
        self.crashes = injector.crashes if injector is not None else 0
        #: Crash-onset-to-first-post-recovery-reply, µs, one per crash.
        self.mttr_us = (
            injector.mttr_us_samples() if injector is not None else []
        )
        self.shed = manager.shed if manager is not None else 0
        self.failed = manager.failed if manager is not None else 0
        self.retries = manager.retries if manager is not None else 0
        self.hedges = manager.hedges if manager is not None else 0
        self.timeouts = manager.timeouts if manager is not None else 0
        #: ``[server, suspect_cycle, clear_cycle_or_None]`` detector rows.
        self.suspicion_intervals = (
            [list(row) for row in manager.detector.intervals]
            if manager is not None and manager.detector is not None
            else []
        )
        #: Admission-to-first-reply latency per completed logical request
        #: (µs, rid order) — the client-side recovery-timeline signal.
        self.e2e_latencies_us = (
            manager.e2e_latencies_us() if manager is not None else None
        )

    @property
    def server_results(self):
        """The per-server results, in server order."""
        return self.parts

    def client_latencies_us(self, warmup_frac=0.1):
        """End-to-end latency as a client outside the rack would measure:
        balancer routing -> fabric hop -> server sojourn -> fabric hop,
        using each request's actual routing instant."""
        hop_us = self.fabric.hop_latency_us + self.fabric.hop_jitter_us / 2.0
        out = []
        for record in self.measured_records(warmup_frac):
            routed = record.payload["routed_cycle"]
            in_rack = self.clock.cycles_to_us(
                record.completion_cycle - routed
            )
            out.append(in_rack + hop_us)
        return out

    def goodput(self):
        """Fraction of offered logical requests that completed (uniquely):
        the headline degradation-curve metric.  1.0 on a fault-free drained
        run; crashes without retry, shedding, and failures pull it down."""
        return len(self.records) / max(1, self.num_offered)

    def slo_goodput(self, warmup_frac=0.1, slo=constants.SLOWDOWN_SLO):
        """Fraction of measured logical requests that completed *within*
        the slowdown SLO — requests that were lost, shed, failed, or
        completed unusably late all count against it, which is what makes
        telemetry blackouts (nothing lost, tail exploded) visible."""
        measured = self.measured_records(warmup_frac)
        offered_window = max(
            1, self.num_offered - (len(self.records) - len(measured))
        )
        good = sum(1 for r in measured if r.slowdown() <= slo)
        return good / offered_window

    def imbalance(self):
        """Max/mean ratio of per-server routed counts.  Robust to racks
        where some (or all) servers received zero requests — e.g. drained
        health-aware routing or shed-everything runs."""
        if not self.routed:
            return 1.0
        mean = sum(self.routed) / len(self.routed)
        if mean <= 0:
            return 1.0
        return max(self.routed) / mean

    def per_server_summaries(self, warmup_frac=0.1):
        """Per-server slowdown summaries (None for servers that completed
        nothing — idle, fully-drained-around, or crashed-and-swept)."""
        check_warmup_frac(warmup_frac)
        out = []
        for result in self.server_results:
            samples = result.slowdowns(warmup_frac)
            out.append(summarize_slowdowns(samples) if samples else None)
        return out
