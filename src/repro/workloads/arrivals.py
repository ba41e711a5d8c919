"""Arrival processes and the open-loop load generator.

The paper's client "sends requests according to a Poisson process"
(section 5.1) in an open loop: arrivals do not slow down when the server
queues grow, which is what makes tail latency explode past saturation.
:func:`open_loop` is that client; every run shape (one server, replicated
partitions, the rack balancer) draws its requests from it.
"""

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "DeterministicProcess",
    "MarkovModulatedPoisson",
    "open_loop",
]


class ArrivalProcess:
    """Base class: generates interarrival gaps in microseconds."""

    def next_gap_us(self, rng):
        """Draw the gap (µs) until the next arrival."""
        raise NotImplementedError

    @property
    def rate_rps(self):
        """Mean offered load in requests per second."""
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Poisson arrivals at a fixed mean rate (requests/second)."""

    def __init__(self, rate_rps):
        if rate_rps <= 0:
            raise ValueError("arrival rate must be positive, got {}".format(rate_rps))
        self._rate_rps = float(rate_rps)
        self._mean_gap_us = 1e6 / rate_rps

    def next_gap_us(self, rng):
        return rng.expovariate(1.0 / self._mean_gap_us)

    @property
    def rate_rps(self):
        return self._rate_rps

    def __repr__(self):
        return "PoissonProcess(rate_rps={:g})".format(self._rate_rps)


class DeterministicProcess(ArrivalProcess):
    """Evenly spaced arrivals — useful for tests and overhead measurements
    where queueing noise would obscure the quantity under study."""

    def __init__(self, rate_rps):
        if rate_rps <= 0:
            raise ValueError("arrival rate must be positive, got {}".format(rate_rps))
        self._rate_rps = float(rate_rps)
        self._gap_us = 1e6 / rate_rps

    def next_gap_us(self, rng):
        return self._gap_us

    @property
    def rate_rps(self):
        return self._rate_rps

    def __repr__(self):
        return "DeterministicProcess(rate_rps={:g})".format(self._rate_rps)


class MarkovModulatedPoisson(ArrivalProcess):
    """A two-state MMPP: Poisson arrivals whose rate toggles between a
    normal and a burst level.

    The paper uses plain Poisson "to mimic the bursty behavior of
    production traffic" (section 5.1); an MMPP makes the burstiness knob
    explicit, which the burst-sensitivity extension uses.  ``burst_factor``
    scales the rate during bursts; ``burst_fraction`` is the long-run share
    of time spent bursting; ``mean_dwell_us`` is the average state holding
    time.  The *average* rate equals ``rate_rps``.
    """

    def __init__(self, rate_rps, burst_factor=4.0, burst_fraction=0.1,
                 mean_dwell_us=1000.0):
        if rate_rps <= 0:
            raise ValueError("arrival rate must be positive, got {}".format(rate_rps))
        if burst_factor < 1.0:
            raise ValueError("burst factor must be >= 1")
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError("burst fraction must be in (0, 1)")
        if mean_dwell_us <= 0:
            raise ValueError("dwell time must be positive")
        self._rate_rps = float(rate_rps)
        self.burst_factor = float(burst_factor)
        self.burst_fraction = float(burst_fraction)
        self.mean_dwell_us = float(mean_dwell_us)
        # Solve for the two levels so the time-average rate is rate_rps:
        # (1-f)*normal + f*burst_factor*normal = rate.
        normal = rate_rps / (1.0 - burst_fraction
                             + burst_fraction * burst_factor)
        self._normal_gap_us = 1e6 / normal
        self._burst_gap_us = 1e6 / (normal * burst_factor)
        self._in_burst = False
        self._state_left_us = 0.0

    def next_gap_us(self, rng):
        if self._state_left_us <= 0.0:
            self._in_burst = not self._in_burst if self._state_left_us < 0 \
                else rng.random() < self.burst_fraction
            dwell = self.mean_dwell_us * (
                self.burst_fraction if self._in_burst
                else (1.0 - self.burst_fraction)
            ) * 2.0
            self._state_left_us = rng.expovariate(1.0 / max(dwell, 1e-9))
        mean_gap = self._burst_gap_us if self._in_burst else self._normal_gap_us
        gap = rng.expovariate(1.0 / mean_gap)
        self._state_left_us -= gap
        return gap

    @property
    def rate_rps(self):
        return self._rate_rps

    def __repr__(self):
        return ("MarkovModulatedPoisson(rate_rps={:g}, burst_factor={:g}, "
                "burst_fraction={:g})").format(
                    self._rate_rps, self.burst_factor, self.burst_fraction)


def open_loop(workload, arrival, n, gap_rng, class_rng):
    """Yield ``n`` open-loop requests as ``(arrival_us, kind, service_us)``.

    Each request draws its gap from ``arrival`` on ``gap_rng``, then its
    class from ``workload`` on ``class_rng``; arrival instants are the
    running sum of the gaps.  Pass one rng as both to interleave the two
    draws on a single stream.  The generator is lazy, so a consumer that
    pulls one request per arrival draws in arrival order.
    """
    t_us = 0.0
    for _ in range(n):
        t_us += arrival.next_gap_us(gap_rng)
        kind, service_us = workload.sample_class(class_rng)
        yield t_us, kind, service_us
