"""The column-wise completion log (:class:`repro.core.request.RecordLog`).

A server logs each completed request's fields, not the request: decoding a
record must give back exactly what the live request held when
``on_complete`` saw it, the column metrics must equal the per-record ones
bit for bit, and the log must cost far less than the objects it replaces.
"""

import gc
import tracemalloc

import pytest

from repro.cluster import Cluster
from repro.core import (
    ReplicatedServer,
    Server,
    concord,
    logical_queue_concord,
    persephone_fcfs,
)
from repro.core.logicalqueue import LogicalQueueServer
from repro.core.request import RecordLog, Request
from repro.faults import ResilienceConfig, crash_plan
from repro.hardware import c6420
from repro.workloads import PoissonProcess, bimodal_50_1_50_100, fixed_1us


def fields(request):
    return tuple(getattr(request, name) for name in Request.__slots__)


def watch(server, seen):
    """Snapshot every request ``server`` completes, as ``on_complete``
    sees it, and keep any hook already installed (the rack balancer's)."""
    hook = server.on_complete

    def on_complete(request):
        seen.append((fields(request), request.payload))
        if hook is not None:
            hook(request)

    server.on_complete = on_complete


def assert_decodes_to(records, seen):
    assert len(records) == len(seen)
    for record, (live, payload) in zip(records, seen):
        assert fields(record) == live
        assert record.payload is payload


def load(workers, workload=None, frac=0.7):
    workload = workload or bimodal_50_1_50_100()
    return PoissonProcess(frac * workers * 1e6 / workload.mean_us())


class TestDecoding:
    def test_concord_server(self):
        server = Server(c6420(4), concord(5.0), seed=2)
        seen = []
        watch(server, seen)
        result = server.run(bimodal_50_1_50_100(), load(4), 3000)
        assert any(record.started_by_dispatcher for record in result.records)
        assert any(record.preemptions for record in result.records)
        assert_decodes_to(result.records, seen)
        assert_decodes_to([result.records[i] for i in range(len(seen))], seen)
        assert result.records[-1].rid == seen[-1][0][0]

    def test_logical_queue_server(self):
        server = LogicalQueueServer(c6420(4), logical_queue_concord(5.0), seed=3)
        seen = []
        watch(server, seen)
        result = server.run(bimodal_50_1_50_100(), load(4), 2000)
        assert_decodes_to(result.records, seen)

    def test_replicated_server_pools_in_completion_order(self):
        server = ReplicatedServer(c6420(4), concord(5.0), 2, seed=4)
        seen = []
        for partition in server.partitions:
            watch(partition, seen)
        result = server.run(bimodal_50_1_50_100(), load(4), 2000)
        # Partitions run one after another; pooling is a stable sort of
        # their completions by completion cycle.
        seen.sort(key=lambda snapshot: snapshot[0][7])
        assert_decodes_to(result.records, seen)

    def test_crash_retry_rack_keeps_first_replies(self):
        cluster = Cluster(
            c6420(2), concord(5.0), 3, policy="jsq", seed=5,
            fault_plan=crash_plan(at_us=1500.0, down_us=2500.0, server=1),
            resilience=ResilienceConfig(timeout_us=300.0),
        )
        per_server = [[] for _ in cluster.servers]
        for server, seen in zip(cluster.servers, per_server):
            watch(server, seen)
        result = cluster.run(bimodal_50_1_50_100(), load(6), 1500)
        assert result.retries > 0 and result.duplicate_records > 0
        for part, seen in zip(result.server_results, per_server):
            assert_decodes_to(part.records, seen)
        pooled = sorted(
            (snapshot for seen in per_server for snapshot in seen),
            key=lambda snapshot: snapshot[0][7],
        )
        table = cluster.balancer.resilience.table
        first_replies, rids = [], set()
        for snapshot in pooled:
            rid = snapshot[0][0]
            if rid not in rids and table[rid].done:
                rids.add(rid)
                first_replies.append(snapshot)
        assert_decodes_to(result.records, first_replies)

    def test_log_equals_requests_by_field_values(self):
        server = Server(c6420(2), persephone_fcfs(), seed=0)
        seen = []
        server.on_complete = seen.append
        server.run(fixed_1us(), PoissonProcess(100_000), 50)
        log = server.completed
        assert log == seen and seen == log
        assert log == list(log)
        assert fields(log[-1]) == fields(seen[-1])
        assert log != seen[:-1]
        other = RecordLog()
        for request in seen:
            other.append(request)
        assert other == log
        other.preemptions[0] += 1
        assert other != log
        with pytest.raises(IndexError):
            log[len(seen)]
        with pytest.raises(TypeError):
            hash(log)


class TestColumnMetrics:
    @pytest.mark.parametrize("warmup_frac", [0.0, 0.1, 0.5])
    def test_slowdowns_equal_per_record_slowdowns(self, warmup_frac):
        server = Server(c6420(4), concord(5.0), seed=6)
        result = server.run(bimodal_50_1_50_100(), load(4, frac=0.9), 3000)
        measured = result.measured_records(warmup_frac)
        assert result.slowdowns(warmup_frac) == [r.slowdown() for r in measured]
        by_arrival = sorted(result.records, key=lambda r: r.arrival_cycle)
        skip = int(len(by_arrival) * warmup_frac)
        assert [r.rid for r in measured] == [r.rid for r in by_arrival[skip:]]

    def test_no_column_item_is_gc_tracked(self):
        cluster = Cluster(c6420(2), concord(5.0), 2, policy="jsq", seed=7)
        result = cluster.run(bimodal_50_1_50_100(), load(4), 800)
        for log in [result.records] + [p.records for p in result.parts]:
            assert len(log)
            for column in (log.kind, log.service_us, log.payload):
                assert not any(gc.is_tracked(item) for item in column)


class TestFootprint:
    def test_completed_request_retains_under_120_bytes(self):
        # A completed request used to stay alive as its ~300 B object plus
        # its cycle ints; the log keeps ~90 B of columns per request.  Fixed
        # 1 us requests keep the traced run short.
        server = Server(c6420(4), concord(5.0), seed=8)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = server.run(fixed_1us(), load(4, fixed_1us()), 20_000)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.records) == 20_000
        assert retained / len(result.records) < 120
