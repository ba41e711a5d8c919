"""Server assembly: machine + runtime config + workload -> simulation run.

A :class:`Server` wires the dispatcher and workers onto a machine spec,
generates open-loop arrivals, runs the event loop to completion, and returns
a :class:`SimResult` with every completed request plus agent-level counters.
Servers are single-shot: build a fresh one per simulated run (they are cheap).

Arrival generation is a *separable source*: :meth:`Server.run` builds the
default open-loop source and feeds it to :meth:`Server.run_source`, which
accepts any lazily-pulled iterator of ``(arrival_us, request)`` pairs.
External agents (the rack-scale layer in :mod:`repro.cluster`) bypass the
source machinery entirely and push requests in with :meth:`Server.deliver`,
sharing one :class:`~repro.sim.engine.Simulator` across many servers.

Every runtime shares this shell.  Runtimes differ only in
:meth:`Server._build_agents`: the logical-queue runtime
(:mod:`repro.core.logicalqueue`) overrides it, and replication
(:mod:`repro.core.replicated`) runs one server per partition and pools
their results with :func:`pooled`.
"""

from repro import constants
from repro.core.dispatcher import Dispatcher
from repro.core.policies import make_policy
from repro.core.preemption import NoPreemption
from repro.core.request import Request
from repro.core.worker import Worker
from repro.obs.session import resolve_probes
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

__all__ = ["Server", "SimResult", "RunLimitExceeded", "pooled"]


class RunLimitExceeded(RuntimeError):
    """The event budget ran out before the simulation drained."""


class _Costs:
    """Per-run cycle costs, precomputed from machine + config + mechanism."""

    __slots__ = (
        "context_switch",
        "disruption",
        "jbsq_residual",
        "signal",
        "requeue",
        "rx",
        "push",
        "jbsq_scan",
        "sq_receive",
    )

    def __init__(self, machine, config, mechanism):
        if config.ideal:
            for slot in self.__slots__:
                setattr(self, slot, 0)
            return
        scale = config.dispatch_cost_scale
        jbsq = config.queue_mode == "jbsq"
        self.context_switch = mechanism.context_switch_cycles
        self.disruption = mechanism.worker_disruption_cycles
        self.jbsq_residual = constants.JBSQ_RESIDUAL_CYCLES if jbsq else 0
        self.signal = int(mechanism.dispatcher_signal_cycles * scale)
        self.requeue = int(constants.DISPATCH_REQUEUE_CYCLES * scale)
        rx = (
            config.rx_cost_cycles
            if config.rx_cost_cycles is not None
            else constants.DISPATCH_RX_CYCLES
        )
        self.rx = int(rx * scale)
        self.push = int(constants.DISPATCH_PUSH_CYCLES * scale)
        self.jbsq_scan = constants.JBSQ_SHORTEST_QUEUE_CYCLES if jbsq else 0
        # The worker's receive miss applies whenever a push lands on an
        # *idle* worker — in JBSQ too (this is why JBSQ(1) behaves like the
        # single queue, section 3.2).  Busy JBSQ workers hide it entirely.
        self.sq_receive = constants.SQ_WORKER_RECEIVE_CYCLES


class SimResult:
    """Everything measured during one simulated run.

    A result holds data, not the server that produced it:
    :meth:`Server.collect_result` builds one per run.  Runtimes that run
    several servers (replicated partitions, rack members) subclass it and
    pass :func:`pooled` fields of their part results, so every paper
    metric below is computed here and nowhere else.
    """

    def __init__(self, config_name, quantum_us, clock, records, worker_stats,
                 dispatcher_stats, num_offered, first_arrival, last_arrival,
                 end_cycle, drained, parts=()):
        self.config_name = config_name
        self.quantum_us = quantum_us
        self.clock = clock
        self.num_offered = num_offered
        self.first_arrival_cycle = first_arrival
        self.last_arrival_cycle = last_arrival
        self.end_cycle = end_cycle
        self.drained = drained
        #: Completed requests, in completion order.
        self.records = records
        self.worker_stats = worker_stats
        self.dispatcher_stats = dispatcher_stats
        #: The part results a pooled result merges; empty for one server.
        self.parts = list(parts)

    # -- derived metrics ------------------------------------------------------------

    def slowdowns(self, warmup_frac=0.1):
        """Per-request slowdowns, discarding the warmup prefix by arrival
        order (section 5.1 discards the first 10% of samples)."""
        return [r.slowdown() for r in self.measured_records(warmup_frac)]

    def measured_records(self, warmup_frac=0.1):
        # Imported lazily: repro.metrics imports the server module (the
        # sweep harness), so a top-level import would be circular.
        from repro.metrics.slowdown import check_warmup_frac

        check_warmup_frac(warmup_frac)
        ordered = sorted(self.records, key=lambda r: r.arrival_cycle)
        skip = int(len(ordered) * warmup_frac)
        return ordered[skip:]

    def client_latencies_us(self, warmup_frac=0.1,
                            rtt_ns=constants.NETWORK_RTT_NS):
        """End-to-end latencies as the paper's client measures them
        (section 5.1): server sojourn plus the network round trip."""
        rtt_us = rtt_ns / 1000.0
        return [
            self.clock.cycles_to_us(r.sojourn_cycles()) + rtt_us
            for r in self.measured_records(warmup_frac)
        ]

    def duration_cycles(self):
        return max(1, self.end_cycle - self.first_arrival_cycle)

    def throughput_rps(self):
        """Completed requests per second of simulated time."""
        return len(self.records) * self.clock.freq_hz / self.duration_cycles()

    def goodput_fraction(self):
        """Fraction of worker capacity spent executing application work —
        the complement of the system throughput overhead of Eq. 1 (worker
        side).  Robust at overload, where completion counts lag because
        PS-style requeueing keeps many requests mid-flight."""
        elapsed = self.duration_cycles()
        if not self.worker_stats:
            return 0.0
        total_work = sum(s["work_cycles"] for s in self.worker_stats)
        return min(1.0, total_work / (len(self.worker_stats) * elapsed))

    def worker_idle_fraction(self):
        """Mean fraction of the run workers spent idle awaiting requests —
        the quantity Fig. 3 plots."""
        elapsed = self.duration_cycles()
        if not self.worker_stats:
            return 0.0
        fractions = [
            min(1.0, s["idle_cycles"] / elapsed) for s in self.worker_stats
        ]
        return sum(fractions) / len(fractions)

    def dispatcher_utilization(self):
        """Fraction of the run the dispatcher was busy; for a pooled result,
        the mean over its parts' dispatchers."""
        if self.parts:
            total = sum(part.dispatcher_utilization() for part in self.parts)
            return total / len(self.parts)
        return min(1.0, self.dispatcher_stats["busy_cycles"] / self.duration_cycles())

    def stolen_requests(self):
        return [r for r in self.records if r.started_by_dispatcher]

    def summary(self, warmup_frac=0.1):
        """The :class:`~repro.metrics.SlowdownSummary` of :meth:`slowdowns`."""
        from repro.metrics.slowdown import summarize_slowdowns

        return summarize_slowdowns(self.slowdowns(warmup_frac))

    def __repr__(self):
        return "{}(config={!r}, offered={}, completed={}, drained={})".format(
            type(self).__name__, self.config_name, self.num_offered,
            len(self.records), self.drained,
        )


def pooled(parts):
    """:class:`SimResult` fields merged over ``parts`` (a non-empty list of
    part results): records in completion order, worker stats concatenated,
    dispatcher stats summed, the first arrival over the parts that
    completed anything and the latest end.  A pooled subclass adds its own
    name, offered count and drain flag."""
    records = [record for part in parts for record in part.records]
    records.sort(key=lambda r: r.completion_cycle)
    firsts = [part.first_arrival_cycle for part in parts if part.records]
    return dict(
        quantum_us=parts[0].quantum_us,
        clock=parts[0].clock,
        records=records,
        worker_stats=[stat for part in parts for stat in part.worker_stats],
        dispatcher_stats={
            key: sum(part.dispatcher_stats[key] for part in parts)
            for key in parts[0].dispatcher_stats
        },
        first_arrival=min(firsts) if firsts else 0,
        last_arrival=max(part.last_arrival_cycle for part in parts),
        end_cycle=max(part.end_cycle for part in parts),
        parts=parts,
    )


class Server:
    """A single simulated server instance (one run)."""

    def __init__(self, machine, config, seed=0, profile=None, app=None,
                 sim=None, streams=None):
        self.machine = machine
        self.config = config
        self.clock = machine.clock
        #: The event loop.  Pass a shared ``sim`` to make several servers
        #: coexist in one simulation (the rack-scale layer does this).
        self.sim = sim if sim is not None else Simulator()
        #: Optional application implementing the Concord API (section 4.1).
        #: Its setup hooks run now; its service_time_us refines workload
        #: samples per request.
        self.app = app
        if app is not None:
            app.setup()
            for core in range(machine.num_workers):
                app.setup_worker(core)
        #: Pass ``streams`` (e.g. ``master.spawn_key("server", i)``) to give
        #: each member of a multi-server simulation independent,
        #: reproducibly-derived randomness; ``seed`` is ignored then.
        if streams is None:
            streams = RngStreams(seed)
        self.streams = streams
        self.rng_arrival = streams.stream("arrivals")
        self.rng_service = streams.stream("service")
        self.rng_notice = streams.stream("notice")
        self.rng_defer = streams.stream("defer")

        if config.preemptive:
            self.mechanism = config.preemption_factory(machine)
        else:
            self.mechanism = NoPreemption()
        if profile is not None:
            self.mechanism.attach_profile(profile)

        self.policy = make_policy(config.policy)
        self.costs = _Costs(machine, config, self.mechanism)
        self.queue_mode = config.queue_mode
        self.preemptive = config.preemptive
        self.quantum_cycles = (
            self.clock.us_to_cycles(config.quantum_us) if config.preemptive else None
        )
        if config.ideal:
            self.worker_rate = 1.0
            self.dispatcher_rate = 1.0
        else:
            self.worker_rate = (
                1.0
                + constants.RUNTIME_PROC_OVERHEAD_FRACTION
                + self.mechanism.proc_overhead
            )
            self.dispatcher_rate = (
                1.0
                + constants.RUNTIME_PROC_OVERHEAD_FRACTION
                + constants.RDTSC_INSTRUMENTATION_OVERHEAD
            )

        self.completed = []
        #: Optional callback fired on every completion — the seam the
        #: cluster load balancer uses to observe replies.
        self.on_complete = None
        #: Per-server fault state (:mod:`repro.faults`).  None — the
        #: default, and the only value single-server runs ever see — keeps
        #: every fault hook down to a single falsy check, mirroring
        #: ``probes``.  The rack's FaultInjector installs a
        #: :class:`~repro.faults.injector.ServerFaultState` when a plan
        #: targets this server.
        self.faults = None
        self._ran = False
        #: Arrivals injected so far (any source), and the first and last
        #: arrival instants.
        self._arrival_count = 0
        self._first_arrival = None
        self._last_arrival = None
        #: The arrival iterator :meth:`run_source` pulls from.
        self._source = None
        self._build_agents()

    def _build_agents(self):
        """Build ``probes``, ``workers`` and ``dispatcher``, in that order
        (the agents hoist ``probes``).  The one step where runtimes differ:
        a subclass swaps in its own agents and keeps the run shell."""
        #: Probe bus (observability layer), supplied by an ambient
        #: :func:`repro.obs.session.tracing` session; the default None
        #: keeps every probe site down to a single falsy check (the
        #: zero-overhead path).
        self.probes = resolve_probes(self)
        self.workers = [
            Worker(self.sim, wid, self)
            for wid in range(self.machine.num_workers)
        ]
        self.dispatcher = Dispatcher(self.sim, self)

    # -- callbacks used by agents ------------------------------------------------------

    def defer_cycles(self, kind, elapsed_cycles=0):
        """Safety-first preemption deferral for a request of ``kind`` that
        has been executing for ``elapsed_cycles`` on its worker."""
        if self.config.ideal:
            return 0
        return self.config.safety.defer_cycles(
            kind, self.clock, self.rng_defer, elapsed_cycles
        )

    def poll_discovery_delay(self):
        """Latency until the dispatcher's flag-poll loop notices a finished
        single-queue worker: uniform over one poll round across n workers."""
        if self.config.ideal:
            return 0
        span = self.machine.num_workers * constants.DISPATCHER_POLL_CYCLES
        return int(self.rng_notice.uniform(0, span))

    def record_completion(self, request):
        self.completed.append(request)
        probes = self.probes
        if probes is not None:
            probes.request_completed(self.sim.now, request)
        if self.on_complete is not None:
            self.on_complete(request)

    # -- the arrival seam -------------------------------------------------------------------

    def deliver(self, request):
        """Inject an externally-generated ``request`` *now*.

        This is the seam the rack-scale layer (:mod:`repro.cluster`) plugs
        into: the load balancer builds the request, models the network hop,
        and calls ``deliver`` on the chosen server at the delivery instant.
        ``request.arrival_cycle`` is stamped here (unless already set) so
        slowdowns measure the server sojourn, exactly as in the
        single-server runs.
        """
        faults = self.faults
        if faults is not None and faults.down:
            # Crashed: the NIC is dark; the packet evaporates.  The
            # injector accounts the loss so the rack's drain bookkeeping
            # stays exact.
            faults.injector.lost_total += 1
            return
        cycle = self.sim.now
        if request.arrival_cycle is None:
            request.arrival_cycle = cycle
        if self._first_arrival is None:
            self._first_arrival = cycle
        self._last_arrival = cycle
        self._arrival_count += 1
        probes = self.probes
        if probes is not None:
            probes.request_arrival(cycle, request)
        self.dispatcher.on_arrival(request)

    @property
    def inflight(self):
        """Requests delivered but not yet completed — the queue-length
        telemetry signal an inter-server balancer observes."""
        n = self._arrival_count - len(self.completed)
        faults = self.faults
        if faults is not None:
            # Requests swept at crash instants never complete; without this
            # the dead server would carry a phantom queue forever.
            n -= faults.lost_inflight
        return n

    @property
    def num_delivered(self):
        """Total arrivals injected so far (any source)."""
        return self._arrival_count

    def build_request(self, rid, workload):
        """Sample one request from ``workload`` using this server's service
        stream (and the application's refinement, if any)."""
        kind, service_us = workload.sample_class(self.rng_service)
        if self.app is not None:
            service_us = self.app.service_time_us(
                kind, service_us, self.rng_service
            )
        return self.request_from_sample(rid, kind, service_us)

    def request_from_sample(self, rid, kind, service_us):
        """Build a not-yet-arrived :class:`Request` from explicit values;
        ``arrival_cycle`` is stamped by :meth:`deliver`."""
        service_cycles = max(1, self.clock.us_to_cycles(service_us))
        return Request(
            rid=rid,
            kind=kind,
            arrival_cycle=None,
            service_cycles=service_cycles,
            service_us=service_us,
        )

    def arrival_source(self, workload, arrival, num_requests):
        """The default open-loop source: lazily yields ``(arrival_us,
        request)`` pairs, drawing gaps from ``arrival`` and classes from
        ``workload``.

        Laziness matters: :meth:`run_source` pulls the next pair only after
        the previous arrival fires, so closed-loop processes (zero gaps,
        paced by completions) keep their semantics.
        """
        t_us = 0.0
        for rid in range(num_requests):
            t_us += arrival.next_gap_us(self.rng_arrival)
            yield t_us, self.build_request(rid, workload)

    # -- running ---------------------------------------------------------------------------

    def run(self, workload, arrival, num_requests, until_us=None,
            max_events=60_000_000):
        """Generate ``num_requests`` open-loop arrivals and run to drain.

        Parameters
        ----------
        workload:
            A distribution with ``sample_class(rng) -> (kind, service_us)``.
        arrival:
            An :class:`~repro.workloads.arrivals.ArrivalProcess`.
        num_requests:
            Total arrivals to inject.
        until_us:
            Optional hard stop (µs of simulated time): the run ends even if
            requests are still in flight — used by saturation measurements.
        max_events:
            Safety valve against runaway simulations.
        """
        if num_requests < 1:
            raise ValueError("need at least one request")
        return self.run_source(
            self.arrival_source(workload, arrival, num_requests),
            expected=num_requests, until_us=until_us, max_events=max_events,
        )

    def run_source(self, source, expected=None, until_us=None,
                   max_events=60_000_000):
        """Drive the server from an injectable arrival source.

        ``source`` is any iterator of ``(arrival_us, request)`` pairs with
        non-decreasing times; it is pulled *lazily* — the next pair is
        requested only after the previous arrival fires, so sources may
        react to simulation state.  ``expected`` is the number of arrivals
        the source will produce (used for the drain check); when None, the
        run counts whatever the source yielded.
        """
        self._claim_run()
        self._source = iter(source)
        self._schedule_arrival()
        return self._drain(expected, until_us, max_events)

    def _schedule_arrival(self):
        """Pull the next pair from the source and post its arrival."""
        try:
            t_us, request = next(self._source)
        except StopIteration:
            return
        cycle = self.clock.us_to_cycles(t_us)
        now = self.sim.now
        self.sim.post_at(
            cycle if cycle > now else now, self._fire, "arrival", request
        )

    def _fire(self, request):
        self.deliver(request)
        self._schedule_arrival()

    def run_trace(self, trace, until_us=None, max_events=60_000_000):
        """Replay a recorded :class:`~repro.workloads.trace.Trace` exactly:
        same arrival instants, kinds, and service times.  Replaying one
        trace against several configurations gives a perfectly paired
        comparison (stronger than common random numbers)."""
        if not len(trace):
            raise ValueError("empty trace")

        def source():
            for rid, record in enumerate(trace):
                yield record.arrival_us, self.request_from_sample(
                    rid, record.kind, record.service_us
                )

        return self.run_source(
            source(), expected=len(trace), until_us=until_us,
            max_events=max_events,
        )

    def collect_result(self, drained=None, num_offered=None):
        """Build a :class:`SimResult` from the server's current state.

        The single-server paths call this through :meth:`_drain`; in a
        multi-server simulation the rack runs the shared event loop itself
        and calls ``collect_result`` on each member afterwards.
        """
        if num_offered is None:
            num_offered = self._arrival_count
        if drained is None:
            drained = len(self.completed) == self._arrival_count
        if self.probes is not None:
            self.probes.finalize_run(self.sim.now)
        d = self.dispatcher
        return SimResult(
            config_name=self.config.name,
            quantum_us=self.config.quantum_us,
            clock=self.clock,
            records=self.completed,
            worker_stats=[
                {
                    "wid": w.wid,
                    "idle_cycles": w.idle_cycles,
                    "busy_cycles": w.busy_cycles,
                    "work_cycles": w.work_cycles,
                    "preemptions": w.preemptions_taken,
                    "completed": w.requests_completed,
                }
                for w in self.workers
            ],
            dispatcher_stats={
                "busy_cycles": d.busy_cycles,
                "actions": d.actions_run,
                "signals_sent": d.signals_sent,
                "stale_signals_skipped": d.stale_signals_skipped,
                "steals_started": d.steals_started,
                "steal_completions": d.steal_completions,
                "steal_busy_cycles": d.steal_busy_cycles,
            },
            num_offered=num_offered,
            first_arrival=self._first_arrival or 0,
            last_arrival=self._last_arrival or 0,
            end_cycle=self.sim.now,
            drained=drained,
        )

    def _claim_run(self):
        if self._ran:
            raise RuntimeError("Server instances are single-shot; build a new one")
        self._ran = True

    def _drain(self, expected, until_us, max_events):
        until = self.clock.us_to_cycles(until_us) if until_us is not None else None
        self.sim.run(until=until, max_events=max_events)
        if expected is None:
            expected = self._arrival_count
        drained = len(self.completed) == expected
        if not drained and until is None:
            if self.sim.pending:
                raise RunLimitExceeded(
                    "{}: {} events were not enough to drain {} requests "
                    "({} completed)".format(
                        self.config.name, max_events, expected,
                        len(self.completed),
                    )
                )
        return self.collect_result(drained=drained)
