"""Tests for the section-6 scalability designs: the single-logical-queue
runtime and multi-dispatcher replication."""

import pytest

from repro.cluster import Cluster
from repro.core import (
    LogicalQueueServer,
    ReplicatedServer,
    Server,
    concord,
    logical_queue_concord,
    persephone_fcfs,
)
from repro.core.dispatcher import Dispatcher
from repro.core.server import RunLimitExceeded
from repro.hardware import c6420
from repro.metrics import summarize_slowdowns
from repro.obs import tracing
from repro.workloads import PoissonProcess
from repro.workloads.named import bimodal_50_1_50_100, fixed_1us


class TestLogicalQueue:
    def test_drains_and_conserves(self):
        server = LogicalQueueServer(
            c6420(4), logical_queue_concord(5.0), seed=1
        )
        result = server.run(bimodal_50_1_50_100(), PoissonProcess(60_000),
                            2000)
        assert result.drained
        assert len(result.records) == 2000
        assert all(r.remaining_cycles == 0 for r in result.records)
        assert all(r.slowdown() >= 1.0 for r in result.records)

    def test_no_central_dispatcher(self):
        # The scheduler hyperthread takes the dispatcher slot; no
        # single-queue Dispatcher is ever built.
        server = LogicalQueueServer(
            c6420(2), logical_queue_concord(5.0), seed=1
        )
        assert server.dispatcher is server.scheduler
        assert not isinstance(server.dispatcher, Dispatcher)
        assert not any(
            isinstance(value, Dispatcher) for value in vars(server).values()
        )

    def test_truncated_run_is_not_drained(self):
        # 500 events cannot drain 1000 requests: like every Server, the
        # logical queue must say so rather than report a partial run as
        # drained.
        server = LogicalQueueServer(
            c6420(2), logical_queue_concord(5.0), seed=1
        )
        with pytest.raises(RunLimitExceeded):
            server.run(fixed_1us(), PoissonProcess(1e5), 1000,
                       max_events=500)

    def test_untraced_inside_a_trace_session(self):
        # The logical queue's agents have no probe sites, so a trace
        # session must not mint a bus for it.
        with tracing() as session:
            server = LogicalQueueServer(
                c6420(2), logical_queue_concord(5.0), seed=1
            )
            result = server.run(fixed_1us(), PoissonProcess(1e5), 200)
        assert result.drained
        assert server.probes is None
        assert session.buses == []

    def test_sustains_load_beyond_dispatcher_ceiling(self):
        # One dispatcher tops out ~4.3 MRps on Fixed(1us); no-dispatcher
        # spraying + stealing sails past it.
        server = LogicalQueueServer(
            c6420(), logical_queue_concord(5.0), seed=1
        )
        result = server.run(fixed_1us(), PoissonProcess(6_000_000), 20_000)
        assert summarize_slowdowns(result.slowdowns()).p999 < 50

    def test_stealing_happens_under_imbalance(self):
        server = LogicalQueueServer(
            c6420(8), logical_queue_concord(5.0), seed=2
        )
        result = server.run(
            bimodal_50_1_50_100(), PoissonProcess(120_000), 4000
        )
        assert result.dispatcher_stats["steals_started"] > 0

    def test_preemption_still_works(self):
        server = LogicalQueueServer(
            c6420(4), logical_queue_concord(5.0), seed=3
        )
        result = server.run(
            bimodal_50_1_50_100(), PoissonProcess(50_000), 1500
        )
        longs = [r for r in result.records if r.kind == "long"]
        assert longs
        assert sum(r.preemptions for r in longs) / len(longs) > 10

    def test_stealing_spreads_preempted_fragments(self):
        # A preempted request rejoins its own worker's queue, but idle
        # peers steal the fragments — that IS the logical queue's load
        # balancing.  Each steal moves exactly one entry, so the steal
        # count is bounded by queue insertions (arrivals + preemptions).
        server = LogicalQueueServer(
            c6420(4), logical_queue_concord(5.0), seed=4
        )
        result = server.run(
            bimodal_50_1_50_100(), PoissonProcess(20_000), 800
        )
        steals = result.dispatcher_stats["steals_started"]
        insertions = len(result.records) + sum(
            r.preemptions for r in result.records
        )
        assert 0 < steals <= insertions

    def test_single_shot(self):
        server = LogicalQueueServer(
            c6420(2), logical_queue_concord(5.0), seed=1
        )
        server.run(fixed_1us(), PoissonProcess(10_000), 100)
        with pytest.raises(RuntimeError):
            server.run(fixed_1us(), PoissonProcess(10_000), 100)


class TestReplication:
    def test_partitions_must_divide_workers(self):
        with pytest.raises(ValueError):
            ReplicatedServer(c6420(14), concord(5.0), num_partitions=4)
        with pytest.raises(ValueError):
            ReplicatedServer(c6420(14), concord(5.0), num_partitions=0)

    def test_rejects_zero_requests(self):
        server = ReplicatedServer(c6420(4), concord(5.0), num_partitions=2)
        with pytest.raises(ValueError, match="at least one request"):
            server.run(fixed_1us(), PoissonProcess(100_000), 0)

    def test_all_requests_complete_once(self):
        server = ReplicatedServer(c6420(4), persephone_fcfs(),
                                  num_partitions=2, seed=1)
        result = server.run(fixed_1us(), PoissonProcess(500_000), 3000)
        assert result.drained
        assert len(result.records) == 3000

    def test_two_dispatchers_beat_one_when_dispatcher_bound(self):
        rate = 5_000_000
        single = Server(c6420(14), concord(5.0), seed=1).run(
            fixed_1us(), PoissonProcess(rate), 15_000
        )
        dual = ReplicatedServer(c6420(14), concord(5.0),
                                num_partitions=2, seed=1).run(
            fixed_1us(), PoissonProcess(rate), 15_000
        )
        single_tail = summarize_slowdowns(single.slowdowns()).p999
        dual_tail = summarize_slowdowns(dual.slowdowns()).p999
        assert dual_tail < single_tail

    def test_replication_hurts_load_balance_for_heavy_tails(self):
        # Disjoint partitions cannot share queue depth: with few workers
        # per partition, heavy-tailed work suffers vs one global queue.
        workload = bimodal_50_1_50_100()
        rate = 0.6 * 14 * 1e6 / workload.mean_us()
        single = Server(c6420(14), concord(5.0), seed=2).run(
            workload, PoissonProcess(rate), 8000
        )
        sharded = ReplicatedServer(c6420(14), concord(5.0),
                                   num_partitions=7, seed=2).run(
            workload, PoissonProcess(rate), 8000
        )
        single_tail = summarize_slowdowns(single.slowdowns()).p999
        sharded_tail = summarize_slowdowns(sharded.slowdowns()).p999
        assert sharded_tail > single_tail

    def test_merged_result_interface(self):
        server = ReplicatedServer(c6420(4), concord(5.0),
                                  num_partitions=2, seed=1)
        result = server.run(fixed_1us(), PoissonProcess(100_000), 1000)
        assert "x2" in result.config_name
        assert 0.0 <= result.dispatcher_utilization() <= 1.0
        assert 0.0 <= result.worker_idle_fraction() <= 1.0
        assert result.throughput_rps() > 0
        assert len(result.worker_stats) == 4

    def test_single_shot(self):
        server = ReplicatedServer(c6420(2), concord(5.0),
                                  num_partitions=2, seed=1)
        server.run(fixed_1us(), PoissonProcess(10_000), 100)
        with pytest.raises(RuntimeError):
            server.run(fixed_1us(), PoissonProcess(10_000), 100)


def _server_result():
    return Server(c6420(2), concord(5.0), seed=1).run(
        fixed_1us(), PoissonProcess(100_000), 200
    )


def _logical_queue_result():
    return LogicalQueueServer(
        c6420(2), logical_queue_concord(5.0), seed=1
    ).run(fixed_1us(), PoissonProcess(100_000), 200)


def _replicated_result():
    return ReplicatedServer(
        c6420(4), concord(5.0), num_partitions=2, seed=1
    ).run(fixed_1us(), PoissonProcess(100_000), 200)


def _cluster_result():
    return Cluster(c6420(2), concord(5.0), num_servers=2, seed=1).run(
        fixed_1us(), PoissonProcess(100_000), 200
    )


@pytest.mark.parametrize(
    "run", [_server_result, _logical_queue_result, _replicated_result,
            _cluster_result],
    ids=["server", "logical-queue", "replicated", "cluster"],
)
@pytest.mark.parametrize("warmup_frac", [-0.1, 1.0, 1.5])
def test_every_result_rejects_bad_warmup(run, warmup_frac):
    result = run()
    with pytest.raises(ValueError):
        result.slowdowns(warmup_frac)
    with pytest.raises(ValueError):
        result.measured_records(warmup_frac)
