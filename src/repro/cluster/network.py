"""Rack fabric model: hop latency and queue-length telemetry staleness.

The inter-server layer lives or dies by the quality of the queue signal the
load balancer acts on (RackSched section 4; Rain makes the staleness model
the crux).  This module keeps both knobs explicit:

* every balancer->server delivery and server->balancer reply crosses one
  **hop** of the rack fabric (base latency + uniform jitter), so routing
  decisions always act on a state snapshot that is at least one hop old;
* the balancer's per-server queue lengths live on a :class:`TelemetryBoard`
  that only **periodic reports** refresh: each is sampled at a server and
  delayed by a hop plus a configurable extra staleness — turning the
  staleness knob degrades every queue-reading policy naturally.
"""

from dataclasses import dataclass

from repro import constants

__all__ = ["NetworkFabric", "TelemetryBoard"]


@dataclass(frozen=True)
class NetworkFabric:
    """Latency model for the rack's top-of-rack fabric.

    Attributes
    ----------
    hop_latency_us:
        Base one-way latency of one balancer<->server traversal.
    hop_jitter_us:
        Uniform extra latency per hop in ``[0, hop_jitter_us]``.
    telemetry_interval_us:
        Period of queue-length reports (``> 0``): every server's queue is
        sampled once per period.
    telemetry_staleness_us:
        Extra report-path delay on top of the hop — the stale-signal knob.
    """

    hop_latency_us: float = constants.CLUSTER_HOP_LATENCY_NS / 1000.0
    hop_jitter_us: float = constants.CLUSTER_HOP_JITTER_NS / 1000.0
    telemetry_interval_us: float = constants.CLUSTER_TELEMETRY_INTERVAL_US
    telemetry_staleness_us: float = 0.0

    def __post_init__(self):
        if self.hop_latency_us < 0:
            raise ValueError(
                "hop latency must be >= 0, got {}".format(self.hop_latency_us)
            )
        if self.hop_jitter_us < 0:
            raise ValueError(
                "hop jitter must be >= 0, got {}".format(self.hop_jitter_us)
            )
        if self.telemetry_interval_us <= 0:
            raise ValueError(
                "telemetry_interval_us must be > 0, got {}".format(
                    self.telemetry_interval_us
                )
            )
        if self.telemetry_staleness_us < 0:
            raise ValueError(
                "telemetry staleness must be >= 0, got {}".format(
                    self.telemetry_staleness_us
                )
            )

    def hop_cycles(self, clock, rng):
        """Latency of one fabric traversal, in cycles."""
        latency_us = self.hop_latency_us
        if self.hop_jitter_us > 0:
            latency_us += rng.uniform(0.0, self.hop_jitter_us)
        return clock.us_to_cycles(latency_us)

    def telemetry_delay_cycles(self, clock, rng):
        """Delay between sampling a server's queue and the balancer seeing
        the report: one hop plus the configured extra staleness."""
        return self.hop_cycles(clock, rng) + clock.us_to_cycles(
            self.telemetry_staleness_us
        )

    def replace(self, **changes):
        """A copy of this fabric with ``changes`` applied."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)


class TelemetryBoard:
    """The balancer's (possibly stale) view of per-server queue lengths.

    The board only changes when a periodic telemetry report arrives;
    between reports every policy reads frozen — possibly badly stale —
    values.
    """

    def __init__(self, num_servers):
        if num_servers < 1:
            raise ValueError("board needs at least one server")
        self._lens = [0] * num_servers
        #: Telemetry reports applied.
        self.updates = 0

    def queue_len(self, index):
        """The balancer-visible queue length of server ``index``."""
        return self._lens[index]

    def snapshot(self):
        """The full balancer-visible view, as a list."""
        return list(self._lens)

    def record_report(self, index, queue_len):
        self._lens[index] = queue_len
        self.updates += 1

    def __repr__(self):
        return "TelemetryBoard(lens={})".format(self._lens)
