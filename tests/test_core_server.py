"""Integration tests for the simulated server: conservation, determinism,
queueing-theory agreement, and the paper's qualitative invariants."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Server, concord, persephone_fcfs, shinjuku
from repro.core.presets import concord_no_steal, coop_jbsq, ideal_single_queue
from repro.core.request import Request
from repro.core.worker import Worker
from repro.models.queueing import mg1_mean_wait, mmk_mean_wait
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.workloads import (
    Exponential,
    Fixed,
    PoissonProcess,
    Trace,
    TraceRecord,
    bimodal_50_1_50_100,
    fixed_1us,
    open_loop,
)
from repro.workloads.distributions import ClassMix, RequestClass
from repro.hardware import c6420


def run(config, workload, rate, n, workers=14, seed=3):
    server = Server(c6420(workers), config, seed=seed)
    return server.run(workload, PoissonProcess(rate), n)


class TestConservation:
    def test_every_request_completes_exactly_once(self):
        result = run(shinjuku(5.0), bimodal_50_1_50_100(), 100_000, 2000)
        assert result.drained
        rids = [r.rid for r in result.records]
        assert len(rids) == 2000
        assert len(set(rids)) == 2000

    def test_completed_requests_have_no_remaining_work(self):
        result = run(concord(5.0), bimodal_50_1_50_100(), 150_000, 2000)
        assert all(r.remaining_cycles == 0 for r in result.records)
        assert all(r.completion_cycle is not None for r in result.records)

    def test_slowdown_at_least_one(self):
        for config in (persephone_fcfs(), shinjuku(5.0), concord(5.0)):
            result = run(config, bimodal_50_1_50_100(), 100_000, 1500)
            assert all(s >= 1.0 for s in result.slowdowns(warmup_frac=0.0)), (
                config.name
            )

    def test_completion_after_arrival_plus_service(self):
        result = run(shinjuku(5.0), fixed_1us(), 500_000, 2000)
        for r in result.records:
            assert r.completion_cycle >= r.arrival_cycle + r.service_cycles


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = run(concord(5.0), bimodal_50_1_50_100(), 150_000, 1500, seed=11)
        b = run(concord(5.0), bimodal_50_1_50_100(), 150_000, 1500, seed=11)
        assert a.slowdowns() == b.slowdowns()
        assert a.dispatcher_stats == b.dispatcher_stats

    def test_different_seed_different_results(self):
        a = run(concord(5.0), bimodal_50_1_50_100(), 150_000, 1500, seed=11)
        b = run(concord(5.0), bimodal_50_1_50_100(), 150_000, 1500, seed=12)
        assert a.slowdowns() != b.slowdowns()

    def test_server_is_single_shot(self):
        server = Server(c6420(2), persephone_fcfs(), seed=0)
        server.run(fixed_1us(), PoissonProcess(100_000), 50)
        with pytest.raises(RuntimeError):
            server.run(fixed_1us(), PoissonProcess(100_000), 50)


class TestPreemptionBehaviour:
    def test_nonpreemptive_never_preempts(self):
        result = run(persephone_fcfs(), bimodal_50_1_50_100(), 100_000, 1500)
        assert all(r.preemptions == 0 for r in result.records)

    def test_long_requests_preempted_about_service_over_quantum(self):
        # At light load a 100us request with a 5us quantum yields ~19 times
        # (the last slice completes instead of yielding).
        result = run(shinjuku(5.0), bimodal_50_1_50_100(), 20_000, 1200)
        longs = [r for r in result.records if r.kind == "long"]
        assert longs
        mean_preempts = sum(r.preemptions for r in longs) / len(longs)
        assert 15 <= mean_preempts <= 21

    def test_short_requests_never_preempted(self):
        result = run(shinjuku(5.0), bimodal_50_1_50_100(), 100_000, 1500)
        shorts = [r for r in result.records if r.kind == "short"]
        assert shorts
        assert all(r.preemptions == 0 for r in shorts)

    def test_preemption_helps_heavy_tail(self):
        # The core claim behind Fig. 5-7: with long requests in the mix,
        # preemptive scheduling crushes the short requests' tail slowdown.
        from repro.metrics import summarize_slowdowns

        rate, n = 180_000, 4000
        blocked = summarize_slowdowns(
            run(persephone_fcfs(), bimodal_50_1_50_100(), rate, n).slowdowns()
        )
        preempted = summarize_slowdowns(
            run(shinjuku(5.0), bimodal_50_1_50_100(), rate, n).slowdowns()
        )
        assert preempted.p999 < blocked.p999


class TestQueueingAgreement:
    def test_ideal_mmk_matches_erlang_c(self):
        # Zero-overhead single queue + exponential service == M/M/k.
        workers, rate_rps, mean_us = 4, 320_000, 10.0
        config = ideal_single_queue()
        server = Server(c6420(workers), config, seed=5)
        workload = ClassMix(
            [RequestClass("exp", 1.0, Exponential(mean_us))], name="exp"
        )
        result = server.run(workload, PoissonProcess(rate_rps), 40_000)
        records = result.measured_records(warmup_frac=0.1)
        clock = server.clock
        waits_us = [
            clock.cycles_to_us(r.sojourn_cycles()) - r.service_us for r in records
        ]
        mean_wait = sum(waits_us) / len(waits_us)
        expected = mmk_mean_wait(
            rate_rps / 1e6, 1.0 / mean_us, workers
        )  # per-us rates
        assert mean_wait == pytest.approx(expected, rel=0.25)

    @pytest.mark.parametrize("service, scv", [
        (Fixed(10.0), 0.0), (Exponential(10.0), 1.0),
    ], ids=["fixed", "exponential"])
    def test_ideal_mg1_matches_pollaczek_khinchine(self, service, scv):
        # Zero-overhead single queue on one worker == M/G/1, whose mean
        # wait is the Pollaczek-Khinchine formula.  Each seed's mean wait is
        # one sample; the tolerance is the Student-t 99% interval over the
        # seeds, so it follows the simulator's own spread.
        rate_rps, mean_us, n = 70_000, 10.0, 20_000
        workload = ClassMix([RequestClass("g", 1.0, service)], name="g")
        means = []
        for seed in range(5):
            server = Server(c6420(1), ideal_single_queue(), seed=seed)
            result = server.run(workload, PoissonProcess(rate_rps), n)
            clock = server.clock
            waits_us = [
                clock.cycles_to_us(r.sojourn_cycles()) - r.service_us
                for r in result.measured_records()
            ]
            means.append(sum(waits_us) / len(waits_us))
        expected = mg1_mean_wait(rate_rps / 1e6, mean_us, scv)
        stderr = statistics.stdev(means) / math.sqrt(len(means))
        t99_4dof = 4.604
        assert abs(statistics.fmean(means) - expected) <= t99_4dof * stderr


class TestArrivalSeam:
    """One arrival path: run() and run_trace() post their stream through an
    ArrivalFeed into deliver(), and a rack's balancer calls deliver()
    directly on servers sharing one simulator."""

    def test_run_trace_posts_exact_instants(self):
        server = Server(c6420(2), persephone_fcfs(), seed=0)
        trace = Trace([TraceRecord(i * 20.0, "fixed", 1.0) for i in range(50)])
        result = server.run_trace(trace)
        assert result.drained
        assert len(result.records) == 50
        clock = server.clock
        for record in result.records:
            expected_cycle = clock.us_to_cycles(record.rid * 20.0)
            assert record.arrival_cycle == expected_cycle

    def test_run_equals_replay_of_its_open_loop_stream(self):
        # run() draws open_loop on the server's "arrivals" and "service"
        # streams; replaying that stream as a trace reproduces the run.
        direct = run(concord(5.0), bimodal_50_1_50_100(), 150_000, 800, seed=4)
        streams = RngStreams(4)
        trace = Trace(
            TraceRecord(*request)
            for request in open_loop(
                bimodal_50_1_50_100(), PoissonProcess(150_000), 800,
                streams.stream("arrivals"), streams.stream("service"),
            )
        )
        replayed = Server(c6420(14), concord(5.0), seed=4).run_trace(trace)
        assert direct.slowdowns() == replayed.slowdowns()
        assert direct.dispatcher_stats == replayed.dispatcher_stats

    def test_external_delivery_on_shared_simulator(self):
        # Two servers coexist in one simulation, fed by deliver() alone —
        # the way repro.cluster drives its members.
        sim = Simulator()
        master = RngStreams(21)
        servers = [
            Server(c6420(2), persephone_fcfs(), sim=sim,
                   streams=master.spawn_key("server", i))
            for i in range(2)
        ]
        for index, server in enumerate(servers):
            cycles = server.clock.us_to_cycles(1.0)
            for i in range(20):
                request = Request(i, "fixed", None, cycles, 1.0)
                sim.post_at(
                    server.clock.us_to_cycles(5.0 * i + index),
                    server.deliver, request,
                )
        sim.run()
        for index, server in enumerate(servers):
            assert server.inflight == 0
            result = server.collect_result()
            assert result.drained
            assert result.num_offered == 20
            assert sorted(r.rid for r in result.records) == list(range(20))
            assert result.first_arrival_cycle == server.clock.us_to_cycles(
                float(index)
            )

    def test_inflight_tracks_delivered_minus_completed(self):
        server = Server(c6420(2), persephone_fcfs(), seed=0)
        assert server.inflight == 0
        cycles = server.clock.us_to_cycles(10.0)
        server.deliver(Request(0, "fixed", None, cycles, 10.0))
        server.deliver(Request(1, "fixed", None, cycles, 10.0))
        assert server.inflight == 2
        server.sim.run()
        assert server.inflight == 0
        assert len(server.completed) == 2

    def test_completion_hook_fires_per_request(self):
        server = Server(c6420(2), persephone_fcfs(), seed=0)
        seen = []
        server.on_complete = seen.append
        server.run(fixed_1us(), PoissonProcess(100_000), 100)
        assert len(seen) == 100
        assert {r.rid for r in seen} == set(range(100))
        assert seen == server.completed


class TestJBSQ:
    def test_outstanding_never_exceeds_depth(self, monkeypatch):
        config = concord_no_steal(5.0, jbsq_depth=2)
        server = Server(c6420(4), config, seed=9)
        seen = []
        original = Worker.enqueue

        def checked(worker, request, ready_at):
            original(worker, request, ready_at)
            seen.append(worker.outstanding)

        # Class level: a slotted Worker has no per-instance methods.
        monkeypatch.setattr(Worker, "enqueue", checked)
        server.run(bimodal_50_1_50_100(), PoissonProcess(60_000), 1500)
        assert seen
        assert max(seen) <= 2

    def test_jbsq_reduces_worker_idle_vs_sq(self):
        # Fig. 3's effect: at saturation with short requests, JBSQ workers
        # idle far less than single-queue workers.
        sq = run(persephone_fcfs(), fixed_1us(), 3_500_000, 20_000)
        jbsq_config = coop_jbsq(100.0)  # quantum larger than service
        jbsq = run(jbsq_config, fixed_1us(), 3_500_000, 20_000)
        assert jbsq.worker_idle_fraction() < sq.worker_idle_fraction()


class TestWorkConservingDispatcher:
    def test_stolen_requests_finish_on_dispatcher(self):
        result = run(concord(5.0), bimodal_50_1_50_100(), 250_000, 4000)
        stolen = result.stolen_requests()
        assert result.dispatcher_stats["steal_completions"] == len(stolen)
        for r in stolen:
            assert r.started_by_dispatcher
            assert r.last_worker is None  # never migrated to a worker

    def test_steal_disabled_variant_never_steals(self):
        result = run(concord_no_steal(5.0), bimodal_50_1_50_100(), 250_000, 3000)
        assert result.dispatcher_stats["steals_started"] == 0
        assert not result.stolen_requests()


class TestFCFSOrdering:
    def test_single_worker_fcfs_completes_in_arrival_order(self):
        result = run(persephone_fcfs(), fixed_1us(), 200_000, 800, workers=1)
        completion_order = [r.rid for r in result.records]
        assert completion_order == sorted(completion_order)


class TestSingleQueueHandoff:
    def test_sparse_requests_pay_handoff_floor(self):
        # One worker, ultra-light load: sojourn = rx + push + receive +
        # switch + service; the handoff component must be >= the two-miss
        # floor of section 2.2.2.
        result = run(persephone_fcfs(), fixed_1us(), 1_000, 200, workers=1)
        service = result.records[0].service_cycles
        extras = [r.sojourn_cycles() - service for r in result.records]
        assert min(extras) >= 400


@given(
    rate=st.sampled_from([50_000, 150_000, 250_000]),
    seed=st.integers(min_value=0, max_value=1000),
    quantum=st.sampled_from([2.0, 5.0, 10.0]),
)
@settings(max_examples=8, deadline=None)
def test_property_all_configs_drain_and_conserve(rate, seed, quantum):
    for config in (persephone_fcfs(), shinjuku(quantum), concord(quantum)):
        server = Server(c6420(6), config, seed=seed)
        result = server.run(
            bimodal_50_1_50_100(), PoissonProcess(rate), 400
        )
        assert result.drained
        assert len(result.records) == 400
        assert all(r.remaining_cycles == 0 for r in result.records)
        assert all(r.slowdown() >= 1.0 for r in result.records)


class TestClientView:
    def test_client_latency_includes_rtt(self):
        result = run(persephone_fcfs(), fixed_1us(), 50_000, 500, workers=4)
        latencies = result.client_latencies_us(warmup_frac=0.0)
        assert len(latencies) == 500
        # Every end-to-end latency carries the 10us round trip on top of
        # at least the 1us service time.
        assert min(latencies) >= 11.0

    def test_custom_rtt(self):
        result = run(persephone_fcfs(), fixed_1us(), 50_000, 200, workers=4)
        base = min(result.client_latencies_us(warmup_frac=0.0, rtt_ns=0))
        with_rtt = min(result.client_latencies_us(warmup_frac=0.0,
                                                  rtt_ns=20_000))
        assert with_rtt - base == 20.0
