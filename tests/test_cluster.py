"""Tests for the rack-scale cluster layer (repro.cluster).

Covers the acceptance criteria: a >=4-server rack runs end-to-end; JSQ and
Po2 strictly beat random routing at high load; telemetry staleness degrades
shortest-expected-delay monotonically; and the rack-wide metrics merge
equals pooled per-request computation.
"""

import pytest

from repro.cluster import (
    Cluster,
    NetworkFabric,
    Po2Policy,
    TelemetryBoard,
    make_cluster_policy,
)
from repro.core import concord, persephone_fcfs
from repro.hardware import c6420
from repro.metrics import summarize_slowdowns
from repro.workloads import PoissonProcess, bimodal_50_1_50_100

SEED = 17
NUM_SERVERS = 4
WORKERS = 2
QUANTUM_US = 5.0
NUM_REQUESTS = 3000


def rack_capacity_rps(workload):
    return NUM_SERVERS * WORKERS * 1e6 / workload.mean_us()


def run_rack(policy, load_frac=0.75, fabric=None, config=None, seed=SEED,
             num_requests=NUM_REQUESTS, num_servers=NUM_SERVERS):
    workload = bimodal_50_1_50_100()
    cluster = Cluster(
        c6420(WORKERS), config or concord(QUANTUM_US), num_servers,
        policy=policy, seed=seed, fabric=fabric,
    )
    load = load_frac * rack_capacity_rps(workload)
    return cluster.run(workload, PoissonProcess(load), num_requests)


class TestEndToEnd:
    def test_rack_drains_and_conserves_requests(self):
        result = run_rack("jsq")
        assert result.drained
        rids = [r.rid for r in result.records]
        assert len(rids) == NUM_REQUESTS
        assert len(set(rids)) == NUM_REQUESTS
        assert sum(result.routed) == NUM_REQUESTS
        assert result.replies == NUM_REQUESTS
        assert all(r.remaining_cycles == 0 for r in result.records)

    def test_every_server_participates(self):
        result = run_rack("jsq")
        assert len(result.server_results) == NUM_SERVERS
        assert all(count > 0 for count in result.routed)
        assert all(r.drained for r in result.server_results)

    def test_deterministic_given_seed(self):
        a = run_rack("po2")
        b = run_rack("po2")
        assert a.slowdowns() == b.slowdowns()
        assert a.routed == b.routed

    def test_different_seeds_differ(self):
        a = run_rack("po2", seed=17)
        b = run_rack("po2", seed=18)
        assert a.slowdowns() != b.slowdowns()

    def test_same_arrival_stream_across_policies(self):
        # Common random numbers at rack scale: routing must not perturb the
        # workload, so policy comparisons are paired.
        a = {r.rid: (r.kind, r.service_us) for r in run_rack("random").records}
        b = {r.rid: (r.kind, r.service_us) for r in run_rack("jsq").records}
        assert a == b

    def test_cluster_is_single_shot(self):
        workload = bimodal_50_1_50_100()
        cluster = Cluster(
            c6420(WORKERS), concord(QUANTUM_US), 2, policy="rr", seed=1
        )
        cluster.run(workload, PoissonProcess(50_000), 200)
        with pytest.raises(RuntimeError):
            cluster.run(workload, PoissonProcess(50_000), 200)


class TestPolicyOrdering:
    def test_jsq_beats_random_at_high_load(self):
        random_p99 = run_rack("random").summary().p99
        jsq_p99 = run_rack("jsq").summary().p99
        assert jsq_p99 < random_p99

    def test_po2_beats_random_at_high_load(self):
        random_p99 = run_rack("random").summary().p99
        po2_p99 = run_rack("po2").summary().p99
        assert po2_p99 < random_p99

    def test_po2_within_small_factor_of_jsq(self):
        jsq_p99 = run_rack("jsq").summary().p99
        po2_p99 = run_rack("po2").summary().p99
        assert po2_p99 <= 1.5 * jsq_p99

    def test_round_robin_routes_evenly(self):
        result = run_rack("rr")
        assert max(result.routed) - min(result.routed) <= 1
        assert result.imbalance() == pytest.approx(1.0, abs=0.01)

    def test_sed_matches_jsq_on_homogeneous_rack(self):
        # With identical servers, capacity weighting cancels and
        # shortest-expected-delay degenerates to JSQ.
        assert run_rack("sed").slowdowns() == run_rack("jsq").slowdowns()

    def test_two_layer_claim_nonpreemptive_rack_is_worse(self):
        # Inter-server balancing cannot rescue a rack whose members let
        # long requests block short ones: Concord+JSQ must beat
        # no-preemption+JSQ on the same offered stream.
        concord_p99 = run_rack("jsq").summary().p99
        blocked_p99 = run_rack("jsq", config=persephone_fcfs()).summary().p99
        assert concord_p99 < blocked_p99


class TestStaleness:
    def test_staleness_degrades_sed_monotonically(self):
        tails = []
        for staleness_us in (0.0, 50.0, 200.0, 800.0):
            fabric = NetworkFabric(telemetry_staleness_us=staleness_us)
            tails.append(run_rack("sed", fabric=fabric).summary().p99)
        assert tails == sorted(tails)
        # The degradation is substantial, not a rounding artifact.
        assert tails[-1] > 2.0 * tails[0]

    def test_counter_telemetry_no_reports(self):
        fabric = NetworkFabric(telemetry_interval_us=0.0)
        result = run_rack("jsq", fabric=fabric, num_requests=500)
        assert result.telemetry_updates == 0
        assert result.drained

    def test_report_telemetry_updates_flow(self):
        result = run_rack("jsq", num_requests=500)
        assert result.telemetry_updates > 0


class TestMetricsMerge:
    def test_rack_merge_equals_pooled_per_request_computation(self):
        result = run_rack("po2")
        # Recompute independently: pool every per-server record, order by
        # arrival rack-wide, apply the same warmup skip, summarize.
        pooled = [
            record
            for server_result in result.server_results
            for record in server_result.records
        ]
        pooled.sort(key=lambda r: r.arrival_cycle)
        skip = int(len(pooled) * 0.1)
        expected = [r.slowdown() for r in pooled[skip:]]
        assert result.slowdowns() == expected
        merged = result.summary()
        recomputed = summarize_slowdowns(expected)
        assert merged.p99 == recomputed.p99
        assert merged.p999 == recomputed.p999

    def test_client_latencies_include_routing_and_hop(self):
        result = run_rack("jsq", num_requests=500)
        clock = result.clock
        for record, latency_us in zip(
            result.measured_records(), result.client_latencies_us()
        ):
            sojourn_us = clock.cycles_to_us(record.sojourn_cycles())
            assert latency_us > sojourn_us

    def test_throughput_positive(self):
        result = run_rack("jsq", num_requests=500)
        assert result.throughput_rps() > 0


class TestPolicyFactory:
    def test_named_policies(self):
        for name in ("random", "rr", "jsq", "po2", "sed"):
            assert make_cluster_policy(name).name == name

    def test_power_of_d_variants(self):
        assert make_cluster_policy("po3").d == 3
        assert make_cluster_policy("po2").d == 2

    def test_instances_pass_through(self):
        policy = Po2Policy(d=4)
        assert make_cluster_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="po<d>"):
            make_cluster_policy("magic")
        with pytest.raises(ValueError, match="'nope'"):
            Cluster(c6420(WORKERS), concord(QUANTUM_US), 2, policy="nope")

    def test_po1_rejected(self):
        with pytest.raises(ValueError):
            Po2Policy(d=1)


class TestTelemetryBoard:
    def test_counter_mode_tracks_outstanding(self):
        board = TelemetryBoard(2, counter_mode=True)
        board.on_route(0)
        board.on_route(0)
        board.on_route(1)
        assert board.snapshot() == [2, 1]
        board.on_reply(0)
        assert board.queue_len(0) == 1
        board.on_reply(0)
        board.on_reply(0)  # never goes negative
        assert board.queue_len(0) == 0

    def test_report_mode_ignores_routing(self):
        board = TelemetryBoard(2, counter_mode=False)
        board.on_route(0)
        assert board.queue_len(0) == 0
        board.record_report(0, 7)
        assert board.queue_len(0) == 7
        assert board.updates == 1

    def test_fabric_validation(self):
        with pytest.raises(ValueError):
            NetworkFabric(hop_latency_us=-1.0)
        with pytest.raises(ValueError):
            NetworkFabric(telemetry_staleness_us=-1.0)


class TestZeroRequestServers:
    """Regression: summary math must tolerate servers that got nothing.

    A 1-request run over a 4-server rack leaves three servers idle — the
    shape health-aware draining and shed-everything runs produce at scale.
    """

    def test_idle_servers_summarize_as_none(self):
        result = run_rack("jsq", num_requests=1)
        summaries = result.per_server_summaries(warmup_frac=0.0)
        assert summaries.count(None) == NUM_SERVERS - 1
        lone = next(s for s in summaries if s is not None)
        assert lone.p50 >= 1.0

    def test_imbalance_defined_with_idle_servers(self):
        result = run_rack("jsq", num_requests=1)
        assert result.imbalance() == NUM_SERVERS  # max=1, mean=1/4
        assert result.summary(warmup_frac=0.0).p999 >= 1.0

    def test_imbalance_defined_with_no_requests_routed(self):
        result = run_rack("jsq", num_requests=1)
        result.routed = [0] * NUM_SERVERS
        assert result.imbalance() == 1.0
        result.routed = []
        assert result.imbalance() == 1.0
