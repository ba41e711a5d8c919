"""Multi-dispatcher replication (section 6, "Limitations").

"The single dispatcher can become a bottleneck as the number of CPUs
increases ... In such cases, replication, i.e. creating multiple
single-dispatcher instances that feed disjoint sets of cores, can help
improve scalability."

A :class:`ReplicatedServer` partitions the machine's workers into N
disjoint groups, runs one complete single-dispatcher instance per group,
sprays arrivals across partitions round-robin (as a NIC RSS indirection
table would), and merges the per-partition results.  Each partition is a
full :class:`~repro.core.server.Server`, so every mechanism — JBSQ, safety,
work stealing — works unchanged inside its partition.
"""

from repro.core.server import Server, SimResult, pooled
from repro.workloads.trace import Trace

__all__ = ["ReplicatedServer", "ReplicatedResult"]


class ReplicatedServer:
    """N independent single-dispatcher instances over disjoint workers."""

    def __init__(self, machine, config, num_partitions, seed=0):
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if machine.num_workers % num_partitions:
            raise ValueError(
                "cannot split {} workers into {} equal partitions".format(
                    machine.num_workers, num_partitions
                )
            )
        self.machine = machine
        self.config = config
        self.num_partitions = num_partitions
        workers_each = machine.num_workers // num_partitions
        self.partitions = [
            Server(
                machine.with_workers(workers_each), config,
                seed=seed + 1000 * index,
            )
            for index in range(num_partitions)
        ]
        self._ran = False

    def run(self, workload, arrival, num_requests, until_us=None,
            max_events=60_000_000):
        """Sample one arrival stream, deal it round-robin to partitions,
        replay each partition, and merge."""
        if self._ran:
            raise RuntimeError("single-shot server; build a new one")
        if num_requests < 1:
            raise ValueError("need at least one request")
        self._ran = True
        rng = self.partitions[0].rng_arrival
        trace = Trace.sample(workload, arrival, num_requests, rng)
        shards = [[] for _ in range(self.num_partitions)]
        for index, record in enumerate(trace):
            shards[index % self.num_partitions].append(record)
        results = []
        for partition, shard in zip(self.partitions, shards):
            if not shard:
                continue
            results.append(
                partition.run_trace(
                    Trace(shard), until_us=until_us, max_events=max_events
                )
            )
        return ReplicatedResult(self, results)


class ReplicatedResult(SimResult):
    """The partitions' results pooled into one :class:`SimResult`; the
    parts stay on ``parts``."""

    def __init__(self, server, results):
        super().__init__(
            config_name="{} x{}".format(
                server.config.name, server.num_partitions
            ),
            num_offered=sum(r.num_offered for r in results),
            drained=all(r.drained for r in results),
            **pooled(results),
        )
