"""The benchmark's four simulated workloads, built only from the
package's public entry points (``Server``, ``Cluster``, ``tracing`` and the
result objects), so the package's internals can change without touching
the benchmark.

Simulated traffic is open-loop Poisson (section 5.1 of the paper).  Every
workload has a fixed request count, so one rep does the same simulated
work on every commit; the seed picks the inputs.

Importing this module imports ``repro``: ``run.py`` imports it lazily so
the set-up probe can time that import.
"""

import contextlib
import hashlib
import json
import statistics

from repro.cluster import Cluster
from repro.core import Server, concord, shinjuku
from repro.faults import ResilienceConfig, crash_plan
from repro.hardware import c6420
from repro.metrics import summarize_slowdowns
from repro.obs import TraceConfig, tracing
from repro.workloads import (
    PoissonProcess,
    bimodal_50_1_50_100,
    bimodal_995_05_500,
)

QUANTUM_US = 5.0
RACK_SERVERS = 4
RACK_WORKERS = 4
#: The exact counts of :meth:`SimRep.counts`, with their units.
COUNT_UNITS = {
    "sim.events": "count",
    "sim.events_per_req": "events/req",
    "core.dispatcher.actions_per_req": "1/req",
    "core.dispatcher.signals_per_req": "1/req",
    "core.dispatcher.stale_signals": "count",
    "core.dispatcher.steals": "count",
    "core.dispatcher.busy_frac": "fraction",
    "core.worker.preemptions_per_req": "1/req",
    "core.worker.wasted_signals": "count",
    "core.worker.idle_frac": "fraction",
    "cluster.imbalance": "ratio",
    "cluster.telemetry_updates": "count",
    "faults.retries": "count",
    "faults.timeouts": "count",
    "faults.lost": "count",
    "faults.goodput": "fraction",
    "faults.slo_goodput": "fraction",
    "obs.probe_events": "count",
    "model.p50_slowdown": "x",
    "model.p999_slowdown": "x",
}


def scaled(count, scale):
    return max(1, int(round(count * scale)))


class SimRep:
    """One rep of a simulated workload: a freshly built server or rack (the
    untimed set-up), run once by :meth:`run` (the timed region)."""

    def __init__(self, target, servers, mix, arrival, num_requests,
                 scope, session=None):
        self.target = target
        self.servers = servers
        self.mix = mix
        self.arrival = arrival
        self.num_requests = num_requests
        self.scope = scope
        self.session = session
        self.result = None
        self.summary = None

    def run(self):
        """The timed region: the run plus the slowdown summary the CLI
        prints for it."""
        self.result = self.target.run(self.mix, self.arrival, self.num_requests)
        self.summary = summarize_slowdowns(self.result.slowdowns())

    def close(self):
        self.scope.close()

    def failure(self):
        """Why this rep failed, or None."""
        return None if self.result.drained else "not drained"

    def digest(self):
        """sha256 over every completed record, the agent counters and the
        event count; for a faulted rack also the fault and resilience
        counters."""
        result = self.result
        h = hashlib.sha256()
        for r in result.records:
            h.update(repr((
                r.rid, r.kind, r.arrival_cycle, r.completion_cycle,
                r.preemptions, r.migrations, r.started_by_dispatcher,
                r.last_worker,
            )).encode())
        tail = {
            "worker_stats": result.worker_stats,
            "dispatcher_stats": result.dispatcher_stats,
            "events_run": self.target.sim.events_run,
        }
        if getattr(result, "fault_stats", None) is not None:
            tail["faults"] = [
                result.fault_stats, result.resilience_stats, result.lost,
                result.requeued, result.crashes, result.shed, result.failed,
                result.retries, result.hedges, result.timeouts,
                result.mttr_us, result.suspicion_intervals,
            ]
        h.update(json.dumps(tail, sort_keys=True).encode())
        return h.hexdigest()

    def counts(self):
        """Exact per-layer counts read from the public result objects, by
        the names of ``COUNT_UNITS``; layers a workload does not exercise
        read 0."""
        result = self.result
        n = self.num_requests
        events = self.target.sim.events_run
        span = result.duration_cycles()
        dstats = result.dispatcher_stats
        wstats = result.worker_stats
        workers = [w for server in self.servers for w in server.workers]
        rack = isinstance(self.target, Cluster)
        return {
            "sim.events": events,
            "sim.events_per_req": events / n,
            "core.dispatcher.actions_per_req": dstats["actions"] / n,
            "core.dispatcher.signals_per_req": dstats["signals_sent"] / n,
            "core.dispatcher.stale_signals": dstats["stale_signals_skipped"],
            "core.dispatcher.steals": dstats["steals_started"],
            "core.dispatcher.busy_frac":
                dstats["busy_cycles"] / (len(self.servers) * span),
            "core.worker.preemptions_per_req":
                sum(s["preemptions"] for s in wstats) / n,
            "core.worker.wasted_signals":
                sum(w.wasted_signals for w in workers),
            "core.worker.idle_frac": statistics.fmean(
                min(1.0, s["idle_cycles"] / span) for s in wstats),
            "cluster.imbalance": result.imbalance() if rack else 0.0,
            "cluster.telemetry_updates": result.telemetry_updates if rack else 0,
            "faults.retries": result.retries if rack else 0,
            "faults.timeouts": result.timeouts if rack else 0,
            "faults.lost": result.lost if rack else 0,
            "faults.goodput": result.goodput() if rack else 0.0,
            "faults.slo_goodput": result.slo_goodput() if rack else 0.0,
            "obs.probe_events": (
                sum(len(bus.events) for bus in self.session.buses)
                if self.session is not None else 0),
            "model.p50_slowdown": self.summary.p50,
            "model.p999_slowdown": self.summary.p999,
        }


class SimWorkload:
    """A simulated workload: a runtime preset and a service-time mix offered
    at ``load_frac`` of nominal capacity to one server, or with a
    ``policy`` to a rack.  :meth:`prepare` builds one rep."""

    def __init__(self, make_config, make_mix, load_frac, num_requests,
                 policy=None, chaos=False):
        self.make_config = make_config
        self.make_mix = make_mix
        self.load_frac = load_frac
        self.num_requests = num_requests
        self.policy = policy
        self.chaos = chaos

    def prepare(self, seed, scale):
        n = scaled(self.num_requests, scale)
        mix = self.make_mix()
        config = self.make_config(QUANTUM_US)
        if self.policy is None:
            machine = c6420()
            load = self.load_frac * machine.num_workers * 1e6 / mix.mean_us()
            server = Server(machine, config, seed=seed)
            return SimRep(server, [server], mix, PoissonProcess(load), n,
                          contextlib.ExitStack())
        machine = c6420(RACK_WORKERS)
        load = (self.load_frac * RACK_SERVERS * machine.num_workers * 1e6
                / mix.mean_us())
        scope = contextlib.ExitStack()
        with scope:
            kwargs = {}
            session = None
            if self.chaos:
                span_us = n / load * 1e6
                kwargs = dict(
                    fault_plan=crash_plan(0.25 * span_us, 0.3 * span_us),
                    resilience=ResilienceConfig.retry_only(),
                )
                # Request tracing is this workload's input, not benchmark
                # instrumentation: the session stays ambient while the rack
                # is built and run.
                session = scope.enter_context(tracing(TraceConfig.full()))
            cluster = Cluster(machine, config, RACK_SERVERS,
                              policy=self.policy, seed=seed, **kwargs)
            return SimRep(cluster, cluster.servers, mix, PoissonProcess(load),
                          n, scope.pop_all(), session=session)


WORKLOADS = {
    "usr-concord": SimWorkload(concord, bimodal_995_05_500, 0.55, 100_000),
    "preempt-shinjuku": SimWorkload(
        shinjuku, bimodal_50_1_50_100, 0.70, 20_000),
    "rack-po2": SimWorkload(
        concord, bimodal_50_1_50_100, 0.75, 20_000, policy="po2"),
    "rack-chaos-traced": SimWorkload(
        concord, bimodal_50_1_50_100, 0.75, 8_000, policy="jsq", chaos=True),
}
