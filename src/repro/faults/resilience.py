"""Balancer-side resilience: timeouts, retries, hedging, health-aware
routing, and admission-control load shedding.

The :class:`ResilienceManager` owns the *logical* view of every offered
request: each one is resolved exactly once — completed (first reply wins;
duplicates from hedges/retries are counted and dropped), shed at
admission, or failed after the retry budget — which is what lets faulted
runs drain deterministically even when attempts are lost inside crashed
servers.  All pacing is sim-time event scheduling with fixed thresholds
and deterministic backoff; routing randomness stays on the balancer's
``lb-route`` stream, so a fixed (plan, resilience config, seed) triple is
bit-reproducible, serial or pooled.
"""

from dataclasses import dataclass

from repro import constants
from repro.core.request import Request
from repro.faults.detector import FailureDetector

__all__ = ["ResilienceConfig", "ResilienceManager"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the balancer's resilience mechanisms.

    Attributes
    ----------
    timeout_us:
        Per-attempt reply deadline; expiry triggers a retry (or failure).
    max_retries:
        Retry budget per logical request (total launches = 1 + retries,
        plus at most one hedge).
    hedge_delay_us:
        > 0 launches one duplicate attempt on a second server after this
        delay if no reply arrived yet; 0 disables hedging.
    shed_queue_threshold:
        > 0 sheds arrivals at admission while the balancer-visible mean
        queue length per server is at or above this; 0 disables shedding.
    """

    timeout_us: float = constants.FAULT_TIMEOUT_US
    max_retries: int = constants.FAULT_MAX_RETRIES
    hedge_delay_us: float = 0.0
    shed_queue_threshold: int = 0

    def __post_init__(self):
        if self.timeout_us <= 0:
            raise ValueError("timeout_us must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.hedge_delay_us < 0:
            raise ValueError("hedge_delay_us must be >= 0")
        if self.shed_queue_threshold < 0:
            raise ValueError("shed_queue_threshold must be >= 0")

    @classmethod
    def retry_only(cls, **changes):
        """Timeout + retry + detector, no hedging (the baseline policy)."""
        return cls(**changes)

    @classmethod
    def hedged(cls, hedge_delay_us=500.0, **changes):
        """Retry policy plus one hedged duplicate per request."""
        return cls(hedge_delay_us=hedge_delay_us, **changes)


class _Entry:
    """Lifecycle state of one logical request at the balancer."""

    __slots__ = ("rid", "kind", "service_us", "service_cycles", "arrival",
                 "attempts", "tried", "done", "failed", "completion_cycle",
                 "timeout_event", "hedge_event")

    def __init__(self, rid, kind, service_us, service_cycles, arrival):
        self.rid = rid
        self.kind = kind
        self.service_us = service_us
        self.service_cycles = service_cycles
        self.arrival = arrival
        self.attempts = 0
        self.tried = []
        self.done = False
        self.failed = False
        self.completion_cycle = None
        self.timeout_event = None
        self.hedge_event = None


class ResilienceManager:
    """Intercepts the balancer's arrival/reply path; see module doc."""

    def __init__(self, balancer, config=None):
        self.config = config if config is not None else ResilienceConfig()
        self.lb = balancer
        self.sim = balancer.sim
        clock = balancer.clock
        self.clock = clock
        self.timeout_cycles = max(
            1, clock.us_to_cycles(self.config.timeout_us)
        )
        self.hedge_cycles = (
            clock.us_to_cycles(self.config.hedge_delay_us)
            if self.config.hedge_delay_us > 0 else None
        )
        self.detector = FailureDetector(clock, len(balancer.servers))
        self.table = {}
        #: Logical requests resolved (completed + shed + failed); the drain
        #: condition compares this against the offered count.
        self.resolved = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.retries = 0
        self.hedges = 0
        self.timeouts = 0
        self.duplicate_replies = 0
        self._ticking = False
        balancer.resilience = self

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        """Begin the detector tick; called from ``LoadBalancer.start``."""
        if not self._ticking:
            self._ticking = True
            self._detector_tick(None)

    def _detector_tick(self, _):
        self.detector.check(self.sim.now)
        if self.resolved >= self.lb.num_requests:
            return  # drained: stop pumping so the heap empties
        self.sim.post(
            self.detector.check_interval_cycles, self._detector_tick
        )

    # -- admission ---------------------------------------------------------------

    def on_arrival(self, request):
        """One logical request enters the balancer (attempt 0 included)."""
        now = self.sim.now
        threshold = self.config.shed_queue_threshold
        if threshold > 0:
            board = self.lb.board
            total = sum(board.snapshot())
            if total >= threshold * len(self.lb.servers):
                self.shed += 1
                self.resolved += 1
                probes = self.lb.probes
                if probes is not None:
                    probes.request_shed(now, request.rid)
                return
        entry = _Entry(
            request.rid, request.kind, request.service_us,
            request.service_cycles, now,
        )
        self.table[request.rid] = entry
        self._launch(entry, request)
        if self.hedge_cycles is not None:
            entry.hedge_event = self.sim.post(
                self.hedge_cycles, self._on_hedge, request.rid
            )

    def _launch(self, entry, request=None, hedge=False):
        """Route one attempt of ``entry``; builds a fresh Request unless the
        balancer-built attempt-0 object is passed in."""
        attempt = entry.attempts
        entry.attempts += 1
        if request is None:
            request = Request(
                rid=entry.rid,
                kind=entry.kind,
                arrival_cycle=None,
                service_cycles=entry.service_cycles,
                service_us=entry.service_us,
                payload={},
            )
        request.payload["attempt"] = attempt
        detector = self.detector
        exclude = detector.suspected()
        if attempt > 0:
            # Don't re-try the server that just failed us (unless the rack
            # leaves no alternative — _choose falls back to all servers).
            exclude.extend(entry.tried)
        index = self.lb._route_and_send(request, exclude=exclude)
        entry.tried.append(index)
        detector.on_send(index, self.sim.now)
        deadline = int(
            self.timeout_cycles * (constants.FAULT_RETRY_BACKOFF ** attempt)
        )
        if entry.timeout_event is not None:
            self.sim.cancel(entry.timeout_event)
        entry.timeout_event = self.sim.post(
            max(1, deadline), self._on_timeout, entry.rid
        )
        if hedge:
            self.hedges += 1
            probes = self.lb.probes
            if probes is not None:
                probes.request_hedged(self.sim.now, entry.rid, index)
        elif attempt > 0:
            self.retries += 1
            probes = self.lb.probes
            if probes is not None:
                probes.request_retried(
                    self.sim.now, entry.rid, attempt, index
                )
        return index

    # -- outcomes ----------------------------------------------------------------

    def on_reply(self, rid, index):
        now = self.sim.now
        self.detector.on_reply(index, now)
        entry = self.table.get(rid)
        if entry is None or entry.done or entry.failed:
            self.duplicate_replies += 1
            return
        entry.done = True
        entry.completion_cycle = now
        self._cancel_pending(entry)
        self.completed += 1
        self.resolved += 1

    def _on_timeout(self, rid):
        entry = self.table.get(rid)
        if entry is None or entry.done or entry.failed:
            return
        entry.timeout_event = None
        self.timeouts += 1
        if entry.attempts > self.config.max_retries:
            entry.failed = True
            self._cancel_pending(entry)
            self.failed += 1
            self.resolved += 1
            return
        self._launch(entry)

    def _on_hedge(self, rid):
        entry = self.table.get(rid)
        if entry is None or entry.done or entry.failed:
            return
        entry.hedge_event = None
        self._launch(entry, hedge=True)

    def _cancel_pending(self, entry):
        if entry.timeout_event is not None:
            self.sim.cancel(entry.timeout_event)
            entry.timeout_event = None
        if entry.hedge_event is not None:
            self.sim.cancel(entry.hedge_event)
            entry.hedge_event = None

    # -- reporting ---------------------------------------------------------------

    def e2e_latencies_us(self):
        """Balancer-observed end-to-end latency (admission to first reply)
        per completed logical request, in rid order."""
        out = []
        for rid in sorted(self.table):
            entry = self.table[rid]
            if entry.done:
                out.append(self.clock.cycles_to_us(
                    entry.completion_cycle - entry.arrival
                ))
        return out

    def stats(self):
        return {
            "resolved": self.resolved,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "retries": self.retries,
            "hedges": self.hedges,
            "timeouts": self.timeouts,
            "duplicate_replies": self.duplicate_replies,
            "suspicions": self.detector.suspicions,
            "readmissions": self.detector.readmissions,
        }

    def __repr__(self):
        return (
            "ResilienceManager(resolved={}, retries={}, hedges={}, "
            "shed={}, failed={})".format(
                self.resolved, self.retries, self.hedges, self.shed,
                self.failed,
            )
        )
