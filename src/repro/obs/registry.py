"""Telemetry registry: named counters and sim-time series.

One :class:`TelemetryRegistry` rides along with each probe bus and holds
the run's aggregate instruments:

* **counters** — monotonically increasing event tallies (arrivals,
  dispatches, preemptions, steals, completions, ...);
* **series** — ``(sim_cycle, value)`` samples appended at deterministic
  simulated instants (per-worker utilization and queue depth).  Series are
  stamped with *simulated* time only; sampling is piggybacked on probe
  emissions rather than scheduled on the event heap, so an instrumented
  run executes the exact same event sequence as a bare one (the
  differential tests in ``tests/test_obs.py`` pin this).

Everything in this module is pure in the repro-san sense: no clock, no
filesystem, no ambient environment — the registry may be populated from
inside a simulation without breaking the purity certificate.
"""

__all__ = ["Counter", "Series", "TelemetryRegistry"]


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def __repr__(self):
        return "Counter({}={})".format(self.name, self.value)


class Series:
    """An append-only list of ``(sim_cycle, value)`` samples."""

    __slots__ = ("name", "samples")

    def __init__(self, name):
        self.name = name
        self.samples = []

    def append(self, t, value):
        self.samples.append((t, value))

    def __len__(self):
        return len(self.samples)

    def __repr__(self):
        return "Series({}, n={})".format(self.name, len(self.samples))


class TelemetryRegistry:
    """Get-or-create registry of named instruments.

    Instruments are stored in insertion order (plain dicts), so two runs
    that emit the same probes produce byte-identical snapshots.
    """

    def __init__(self):
        self.counters = {}
        self.series = {}

    # -- get-or-create ------------------------------------------------------

    def counter(self, name):
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def time_series(self, name):
        instrument = self.series.get(name)
        if instrument is None:
            instrument = self.series[name] = Series(name)
        return instrument

    # -- convenience writers ------------------------------------------------

    def count(self, name, n=1):
        self.counter(name).inc(n)

    def sample(self, name, t, value):
        self.time_series(name).append(t, value)

    # -- export -------------------------------------------------------------

    def snapshot(self):
        """A JSON-ready dict of every instrument's current state."""
        return {
            "counters": {
                name: c.value for name, c in self.counters.items()
            },
            "series": {
                name: [[t, v] for t, v in s.samples]
                for name, s in self.series.items()
            },
        }

    def merge_counts(self, other):
        """Fold another registry's counters into this one (used to pool
        per-run telemetry into a session-wide view)."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)

    def __repr__(self):
        return "TelemetryRegistry(counters={}, series={})".format(
            len(self.counters), len(self.series)
        )
