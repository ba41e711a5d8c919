"""Request-trace record and replay.

Traces let an experiment (or a user debugging a scheduler) freeze a sampled
workload — arrival time, request kind, service time — and replay it exactly
against multiple scheduler configurations, or persist it to disk as CSV.
"""

import csv
from dataclasses import dataclass

from repro.workloads.arrivals import open_loop

__all__ = ["TraceRecord", "Trace"]

_HEADER = ("arrival_us", "kind", "service_us")


@dataclass(frozen=True)
class TraceRecord:
    """One request: absolute arrival time (µs), kind, service time (µs)."""

    arrival_us: float
    kind: str
    service_us: float

    def __post_init__(self):
        if self.arrival_us < 0:
            raise ValueError("arrival must be >= 0, got {}".format(self.arrival_us))
        if self.service_us <= 0:
            raise ValueError("service must be > 0, got {}".format(self.service_us))


class Trace:
    """An ordered sequence of :class:`TraceRecord`."""

    def __init__(self, records=()):
        self.records = sorted(records, key=lambda r: r.arrival_us)

    @classmethod
    def sample(cls, workload, arrivals, num_requests, rng):
        """Draw ``num_requests`` from ``workload`` with gaps from
        ``arrivals``, both using ``rng``."""
        return cls(
            TraceRecord(*request)
            for request in open_loop(workload, arrivals, num_requests, rng, rng)
        )

    # -- stats -----------------------------------------------------------------

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def duration_us(self):
        """Time spanned by the trace's arrivals."""
        if not self.records:
            return 0.0
        return self.records[-1].arrival_us - self.records[0].arrival_us

    def offered_load_rps(self):
        """Empirical arrival rate over the trace."""
        duration = self.duration_us()
        if duration <= 0:
            return 0.0
        return (len(self.records) - 1) * 1e6 / duration

    def mean_service_us(self):
        if not self.records:
            return 0.0
        return sum(r.service_us for r in self.records) / len(self.records)

    def kinds(self):
        """Set of request kinds present in the trace."""
        return {r.kind for r in self.records}

    # -- persistence ---------------------------------------------------------------

    def save_csv(self, path):
        """Write the trace as a CSV with columns arrival_us, kind, service_us."""
        with open(path, "w", newline="") as f:  # repro-san: ignore[DET005] -- persisting a trace is this method's purpose; not on a sim hot path
            writer = csv.writer(f)
            writer.writerow(_HEADER)
            for record in self.records:
                writer.writerow(
                    ["{:.6f}".format(record.arrival_us), record.kind,
                     "{:.6f}".format(record.service_us)]
                )

    @classmethod
    def load_csv(cls, path):
        """Read a trace previously written by :meth:`save_csv`."""
        records = []
        with open(path, newline="") as f:  # repro-san: ignore[DET005] -- loading a user-supplied trace is this method's purpose; the trace content is part of the job spec
            reader = csv.reader(f)
            header = tuple(next(reader))
            if header != _HEADER:
                raise ValueError(
                    "unexpected trace header {!r}; expected {!r}".format(
                        header, _HEADER
                    )
                )
            for row in reader:
                arrival, kind, service = row
                records.append(TraceRecord(float(arrival), kind, float(service)))
        return cls(records)
