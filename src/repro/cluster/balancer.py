"""The rack's load-balancer agent.

One balancer fronts N servers: it generates the rack's open-loop arrival
stream (so the *same* arrival randomness hits every policy under test —
common random numbers at rack scale), consults its inter-server policy for
each request, and ships the request across the fabric to the chosen
server's :meth:`~repro.core.server.Server.deliver` seam.  Completions
travel back across one hop; in counter-telemetry mode their landing is what
decrements the balancer's queue view.
"""

import functools

from repro.core.request import Request
from repro.cluster.network import TelemetryBoard

__all__ = ["LoadBalancer"]


class _BoardView:
    """A telemetry board restricted to a subset of servers, presented to a
    policy as a dense 0..k-1 index space.  Health-aware routing uses this
    to hide suspected/crashed servers without teaching every policy about
    exclusion sets."""

    __slots__ = ("_board", "_allowed")

    def __init__(self, board, allowed):
        self._board = board
        self._allowed = allowed

    def queue_len(self, index):
        return self._board.queue_len(self._allowed[index])

    def snapshot(self):
        return [self._board.queue_len(i) for i in self._allowed]


class LoadBalancer:
    """Routes an open-loop arrival stream across the rack's servers."""

    def __init__(self, sim, clock, servers, policy, fabric, streams):
        if not servers:
            raise ValueError("balancer needs at least one server")
        self.sim = sim
        self.clock = clock
        self.servers = list(servers)
        self.policy = policy
        policy.prepare(self.servers)
        self.fabric = fabric
        self.board = TelemetryBoard(
            len(self.servers), counter_mode=fabric.counter_telemetry
        )
        self.rng_arrival = streams.stream("lb-arrivals")
        self.rng_service = streams.stream("lb-service")
        self.rng_route = streams.stream("lb-route")
        self.rng_net = streams.stream("lb-net")
        #: Requests routed to each server.
        self.routed = [0] * len(self.servers)
        self.offered = 0
        #: Replies that have landed back at the balancer.
        self.replies = 0
        self.num_requests = 0
        self._workload = None
        self._arrival = None
        self._t_us = 0.0
        #: Probe bus for rack-level routing/reply events (observability
        #: layer); None = the zero-overhead default.  The rack installs one
        #: when a trace session is active.
        self.probes = None
        #: Fault injector (:mod:`repro.faults`); None = the zero-overhead
        #: default.  Installed by the cluster when a FaultPlan is given.
        self.injector = None
        #: Resilience manager (timeouts/retries/hedging/shedding); None =
        #: the pass-through arrival path, bit-identical to the pre-fault
        #: layer.  Installed when a ResilienceConfig is given.
        self.resilience = None
        for index, server in enumerate(self.servers):
            server.on_complete = self._completion_hook(index)

    # -- arrival generation ------------------------------------------------------

    def start(self, workload, arrival, num_requests):
        """Begin generating ``num_requests`` arrivals; the rack owns the
        event loop and runs it after this returns."""
        if num_requests < 1:
            raise ValueError("need at least one request")
        self.num_requests = num_requests
        self._workload = workload
        self._arrival = arrival
        self._schedule_next()
        self._start_telemetry()
        if self.resilience is not None:
            self.resilience.start()

    def _schedule_next(self):
        self._t_us += self._arrival.next_gap_us(self.rng_arrival)
        cycle = self.clock.us_to_cycles(self._t_us)
        self.sim.post_at(max(cycle, self.sim.now), self._fire, "lb-arrival")

    def _fire(self):
        kind, service_us = self._workload.sample_class(self.rng_service)
        service_cycles = max(1, self.clock.us_to_cycles(service_us))
        request = Request(
            rid=self.offered,
            kind=kind,
            arrival_cycle=None,
            service_cycles=service_cycles,
            service_us=service_us,
            payload={},
        )
        self.offered += 1
        manager = self.resilience
        if manager is None:
            self._route_and_send(request)
        else:
            manager.on_arrival(request)
        if self.offered < self.num_requests:
            self._schedule_next()

    def _choose(self, exclude=None):
        """Pick a server via the policy; ``exclude`` (suspected/crashed
        indices) narrows the candidate set through a masked board view.
        When exclusion would leave nothing, fall back to the full rack —
        routing somewhere beats dropping on the floor."""
        num = len(self.servers)
        if not exclude:
            return self.policy.choose(self.board, num, self.rng_route)
        allowed = [i for i in range(num) if i not in exclude]
        if not allowed:
            return self.policy.choose(self.board, num, self.rng_route)
        view = _BoardView(self.board, allowed)
        pick = self.policy.choose(view, len(allowed), self.rng_route)
        return allowed[pick]

    def _hop_delay(self):
        delay = self.fabric.hop_cycles(self.clock, self.rng_net)
        injector = self.injector
        if injector is not None:
            delay = injector.scale_hop(self.sim.now, delay)
        return delay

    def _route_and_send(self, request, exclude=None):
        """Route ``request`` (one attempt) and ship it across the fabric.

        Shared by the plain arrival path, the resilience manager's
        retry/hedge launches, and crash-requeue — RNG draw order on the
        plain path is identical to the pre-fault implementation, which is
        what keeps no-plan racks bit-identical.
        """
        index = self._choose(exclude)
        now = self.sim.now
        payload = request.payload
        payload["server"] = index
        if "routed_cycle" not in payload:
            payload["routed_cycle"] = now
        self.routed[index] += 1
        injector = self.injector
        if injector is None or not injector.telemetry_frozen(now):
            self.board.on_route(index)
        probes = self.probes
        if probes is not None:
            probes.request_routed(now, request, index)
        server = self.servers[index]
        delay = self._hop_delay()
        self.sim.post(delay, server.deliver, "net-deliver", request)
        return index

    def reroute(self, request, exclude=()):
        """Re-admit a request the fault injector swept out of a crashing
        server (``requeue_inflight``): execution restarts from scratch on a
        healthy server, but the original arrival instant is kept so its
        slowdown honestly includes the lost progress."""
        request.remaining_cycles = request.service_cycles
        request.started_by_dispatcher = False
        request.last_worker = None
        self._route_and_send(request, exclude=exclude)

    # -- replies ----------------------------------------------------------------

    def _completion_hook(self, index):
        reply_landed = functools.partial(self._reply_landed, index)

        def on_complete(request):
            delay = self.fabric.hop_cycles(self.clock, self.rng_net)
            self.sim.post(delay, reply_landed, "net-reply", request.rid)

        return on_complete

    def _reply_landed(self, index, rid=None):
        self.replies += 1
        injector = self.injector
        if injector is None:
            self.board.on_reply(index)
        else:
            if not injector.telemetry_frozen(self.sim.now):
                self.board.on_reply(index)
            injector.note_reply(index, self.sim.now)
        probes = self.probes
        if probes is not None:
            probes.reply_received(self.sim.now, rid, index)
        manager = self.resilience
        if manager is not None:
            manager.on_reply(rid, index)

    def accounted(self):
        """True once every offered request is resolved: replied, or (under
        fault injection) lost inside a crash, or (under resilience) shed /
        failed / completed.  This replaces the plain ``replies`` check as
        the periodic tickers' stop condition so faulted racks still
        drain."""
        manager = self.resilience
        if manager is not None:
            return (
                self.offered >= self.num_requests
                and manager.resolved >= self.num_requests
            )
        lost = self.injector.lost_total if self.injector is not None else 0
        return self.replies + lost >= self.num_requests

    # -- telemetry --------------------------------------------------------------

    def _start_telemetry(self):
        if self.board.counter_mode:
            return
        self._telemetry_tick()

    def _telemetry_tick(self):
        """Sample every server's true queue length and ship the reports to
        the board after the fabric's report-path delay."""
        injector = self.injector
        for index, server in enumerate(self.servers):
            value = server.inflight
            delay = self.fabric.telemetry_delay_cycles(
                self.clock, self.rng_net
            )
            if injector is not None:
                delay = injector.scale_hop(self.sim.now, delay)
            self.sim.post(
                delay, self._apply_report, "telemetry", (index, value)
            )
        if self.accounted():
            return  # the rack has drained; stop pumping so the heap empties
        self.sim.post(
            self.clock.us_to_cycles(self.fabric.telemetry_interval_us),
            self._telemetry_tick,
            "telemetry-tick",
        )

    def _apply_report(self, report):
        """Land one ``(index, value)`` telemetry report — unless a blackout
        window is eating reports in transit."""
        index, value = report
        injector = self.injector
        if injector is not None and injector.telemetry_frozen(self.sim.now):
            injector.reports_dropped += 1
            return
        self.board.record_report(index, value)

    # -- introspection ----------------------------------------------------------

    def imbalance(self):
        """Max/mean ratio of per-server routed counts (1.0 = perfectly
        even)."""
        mean = sum(self.routed) / len(self.routed)
        if mean <= 0:
            return 1.0
        return max(self.routed) / mean

    def __repr__(self):
        return "LoadBalancer(policy={}, offered={}, replies={})".format(
            self.policy.name, self.offered, self.replies
        )
