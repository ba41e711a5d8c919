"""Tests for the fault-injection & resilience layer (repro.faults).

The load-bearing properties:

* **hot-path neutrality** — a rack built with no FaultPlan and no
  ResilienceConfig is bit-identical to one that never imported the layer;
* **determinism** — a fixed (plan, config, seed) triple replays
  bit-identically, serial or pooled;
* **semantics** — crashes lose (or requeue) exactly the swept in-flight
  population, the detector suspects and re-admits, retries restore
  goodput, blackouts degrade queue-aware routing without losing anything.
"""

import gc
import math
import pickle

import pytest

from repro.cluster import Cluster
from repro.core import concord
from repro.faults import (
    DetectorConfig,
    FabricDegradation,
    FailureDetector,
    FaultPlan,
    ProbeDropout,
    ResilienceConfig,
    ServerCrash,
    TelemetryBlackout,
    WorkerStall,
    blackout_plan,
    crash_plan,
    stall_plan,
)
from repro.hardware import c6420
from repro.parallel import ParallelRunner, RackJob
from repro.workloads import PoissonProcess, bimodal_50_1_50_100

SEED = 11
NUM_SERVERS = 3
WORKERS = 2
QUANTUM_US = 5.0
NUM_REQUESTS = 1500


def rack_capacity_rps(workload):
    return NUM_SERVERS * WORKERS * 1e6 / workload.mean_us()


def run_rack(plan=None, resilience=None, policy="jsq", load_frac=0.6,
             seed=SEED, num_requests=NUM_REQUESTS, num_servers=NUM_SERVERS,
             fabric=None):
    workload = bimodal_50_1_50_100()
    cluster = Cluster(
        c6420(WORKERS), concord(QUANTUM_US), num_servers, policy=policy,
        seed=seed, fabric=fabric, fault_plan=plan, resilience=resilience,
    )
    load = load_frac * num_servers * WORKERS * 1e6 / workload.mean_us()
    return cluster.run(workload, PoissonProcess(load), num_requests)


def result_fingerprint(result):
    return [
        (r.rid, r.completion_cycle, r.payload["server"]) for r in result.records
    ]


# -- FaultPlan ----------------------------------------------------------------


class TestFaultPlan:
    def test_orders_by_onset(self):
        plan = FaultPlan(faults=(
            TelemetryBlackout(at_us=500.0, duration_us=10.0),
            ServerCrash(at_us=100.0, down_us=50.0),
        ))
        assert [f.at_us for f in plan.faults] == [100.0, 500.0]

    def test_rejects_non_fault_entries(self):
        with pytest.raises(TypeError):
            FaultPlan(faults=("crash at noon",))

    def test_validate_for_rejects_out_of_range_server(self):
        plan = crash_plan(at_us=10.0, down_us=5.0, server=7)
        with pytest.raises(ValueError, match="server"):
            plan.validate_for(num_servers=2)

    def test_degradation_multiplier_must_amplify(self):
        with pytest.raises(ValueError):
            FabricDegradation(at_us=1.0, duration_us=1.0, multiplier=0.5)

    def test_dropout_probability_range(self):
        with pytest.raises(ValueError):
            ProbeDropout(at_us=1.0, duration_us=1.0, drop_prob=0.0)
        with pytest.raises(ValueError):
            ProbeDropout(at_us=1.0, duration_us=1.0, drop_prob=1.5)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            ServerCrash(at_us=-1.0, down_us=5.0)
        with pytest.raises(ValueError):
            WorkerStall(at_us=1.0, duration_us=0.0)

    def test_plan_is_picklable(self):
        plan = FaultPlan(faults=(
            ServerCrash(at_us=10.0, down_us=5.0, server=1),
            TelemetryBlackout(at_us=20.0, duration_us=4.0),
            WorkerStall(at_us=1.0, duration_us=2.0, worker=0),
        ), name="mixed")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.describe() == plan.describe()

    def test_helpers(self):
        assert len(crash_plan(at_us=1.0, down_us=1.0)) == 1
        assert len(blackout_plan([(1.0, 2.0), (5.0, 6.0)])) == 2
        assert len(stall_plan(at_us=1.0, duration_us=1.0)) == 1


# -- hot-path neutrality ------------------------------------------------------


class TestFaultFreeNeutrality:
    def test_no_plan_is_bit_identical_to_plain_cluster(self):
        workload = bimodal_50_1_50_100()
        load = 0.6 * rack_capacity_rps(workload)
        plain = Cluster(
            c6420(WORKERS), concord(QUANTUM_US), NUM_SERVERS, policy="jsq",
            seed=SEED,
        ).run(workload, PoissonProcess(load), NUM_REQUESTS)
        gated = run_rack(plan=None, resilience=None)
        assert result_fingerprint(plain) == result_fingerprint(gated)
        assert plain.summary().p999 == gated.summary().p999

    def test_empty_plan_installs_nothing(self):
        result = run_rack(plan=FaultPlan(faults=()))
        assert result.fault_stats is None
        assert result.crashes == 0

    def test_fault_columns_zeroed_without_faults(self):
        result = run_rack()
        assert result.fault_stats is None
        assert result.resilience_stats is None
        assert (result.lost, result.shed, result.retries, result.hedges) == (
            0, 0, 0, 0
        )
        assert result.mttr_us == []
        assert result.goodput() == 1.0

    def test_rackjob_without_plan_zeroes_fault_columns(self):
        workload = bimodal_50_1_50_100()
        row = RackJob(
            machine=c6420(WORKERS), config=concord(QUANTUM_US),
            num_servers=NUM_SERVERS, policy="jsq", workload=workload,
            load_rps=0.6 * rack_capacity_rps(workload), num_requests=800,
            seed=SEED,
        ).run()
        assert row["plan"] is None
        assert row["drained"] and row["completed"] == row["offered"] == 800
        for key in ("crashes", "lost", "requeued", "shed", "failed",
                    "retries", "hedges", "timeouts", "reports_dropped"):
            assert row[key] == 0, key
        assert row["goodput"] == 1.0
        assert math.isnan(row["mttr_us"])


# -- determinism --------------------------------------------------------------


class TestDeterminism:
    PLAN = FaultPlan(faults=(
        ServerCrash(at_us=1500.0, down_us=2000.0, server=1),
        TelemetryBlackout(at_us=5000.0, duration_us=1500.0),
        ProbeDropout(at_us=800.0, duration_us=3000.0, drop_prob=0.5),
    ), name="chaos")

    def test_same_plan_same_seed_replays_bit_identically(self):
        first = run_rack(plan=self.PLAN, resilience=ResilienceConfig())
        second = run_rack(plan=self.PLAN, resilience=ResilienceConfig())
        assert result_fingerprint(first) == result_fingerprint(second)
        assert first.fault_stats == second.fault_stats
        assert first.resilience_stats == second.resilience_stats
        assert first.mttr_us == second.mttr_us

    def test_different_seed_differs(self):
        first = run_rack(plan=self.PLAN, seed=SEED)
        second = run_rack(plan=self.PLAN, seed=SEED + 1)
        assert result_fingerprint(first) != result_fingerprint(second)

    def test_serial_vs_pooled_bit_identical(self):
        workload = bimodal_50_1_50_100()
        load = 0.6 * rack_capacity_rps(workload)
        jobs = [
            RackJob(
                machine=c6420(WORKERS), config=concord(QUANTUM_US),
                num_servers=NUM_SERVERS, policy="jsq", workload=workload,
                load_rps=load, num_requests=700, seed=seed,
                fault_plan=self.PLAN, resilience=ResilienceConfig(),
            )
            for seed in (1, 2, 3, 4)
        ]
        serial = ParallelRunner(jobs=1).map(jobs)
        pooled = ParallelRunner(jobs=4).map(jobs)
        assert serial == pooled

    def test_faulted_rackjob_is_picklable(self):
        job = RackJob(
            machine=c6420(WORKERS), config=concord(QUANTUM_US),
            num_servers=2, policy="jsq", workload=bimodal_50_1_50_100(),
            load_rps=1e5, num_requests=10, seed=1, fault_plan=self.PLAN,
            resilience=ResilienceConfig.hedged(),
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone.fault_plan == self.PLAN


# -- crash semantics ----------------------------------------------------------


class TestCrash:
    def test_crash_loses_inflight_and_window_arrivals(self):
        plan = crash_plan(at_us=1500.0, down_us=2500.0, server=1)
        result = run_rack(plan=plan)
        assert result.crashes == 1
        assert result.lost > 0
        assert result.drained  # losses are accounted, not hung
        assert len(result.records) + result.lost == result.num_offered
        assert result.goodput() < 1.0

    def test_requeue_preserves_swept_inflight(self):
        lost_mode = run_rack(
            plan=crash_plan(at_us=1500.0, down_us=2500.0, server=1)
        )
        requeue_mode = run_rack(
            plan=crash_plan(at_us=1500.0, down_us=2500.0, server=1,
                            requeue_inflight=True)
        )
        assert requeue_mode.requeued > 0
        # Only the arrivals routed into the dead window are lost; the swept
        # in-flight population survives via re-routing.
        assert requeue_mode.lost < lost_mode.lost
        assert requeue_mode.goodput() > lost_mode.goodput()

    def test_crashed_server_completes_nothing_while_down(self):
        plan = crash_plan(at_us=1000.0, down_us=4000.0, server=0)
        result = run_rack(plan=plan)
        cluster_clock = result.clock
        crash_rec = result.fault_stats["crash_log"][0]
        down = range(crash_rec["crash_cycle"], crash_rec["recover_cycle"])
        for record in result.server_results[0].records:
            assert record.completion_cycle not in down
        assert result.mttr_us  # recovery observed
        assert result.mttr_us[0] > cluster_clock.cycles_to_us(
            crash_rec["recover_cycle"] - crash_rec["crash_cycle"]
        ) * 0.99

    def test_retry_restores_goodput(self):
        plan = crash_plan(at_us=1500.0, down_us=2500.0, server=1)
        bare = run_rack(plan=plan)
        resilient = run_rack(plan=plan, resilience=ResilienceConfig())
        assert bare.goodput() < 0.95
        assert resilient.goodput() >= 0.9
        assert resilient.retries > 0
        assert resilient.drained

    def test_mttr_reported_per_crash(self):
        plan = FaultPlan(faults=(
            ServerCrash(at_us=1000.0, down_us=800.0, server=0),
            ServerCrash(at_us=4000.0, down_us=800.0, server=2),
        ))
        result = run_rack(plan=plan)
        assert result.crashes == 2
        assert len(result.mttr_us) == 2
        assert all(m >= 800.0 for m in result.mttr_us)


# -- blackout / degradation / stall / dropout ---------------------------------


class TestSignalFaults:
    def test_blackout_degrades_tail_without_losing_requests(self):
        clean = run_rack(load_frac=0.8)
        dark = run_rack(
            plan=blackout_plan([(500.0, 6000.0)]), load_frac=0.8
        )
        assert dark.lost == 0
        assert dark.drained
        assert len(dark.records) == dark.num_offered
        assert dark.summary().p999 > clean.summary().p999
        assert dark.fault_stats["reports_dropped"] > 0

    def test_rackjob_row_counts_dropped_reports(self):
        """The ``reports_dropped`` column ext-faults prints: a blackout
        cell counts the telemetry reports it swallowed, a clean cell 0."""
        workload = bimodal_50_1_50_100()
        base = dict(
            machine=c6420(WORKERS), config=concord(QUANTUM_US),
            num_servers=NUM_SERVERS, policy="jsq", workload=workload,
            load_rps=0.8 * rack_capacity_rps(workload), num_requests=800,
            seed=SEED,
        )
        dark = RackJob(
            fault_plan=blackout_plan([(500.0, 3000.0)]), **base
        ).run()
        clean = RackJob(**base).run()
        assert dark["reports_dropped"] > 0
        assert clean["reports_dropped"] == 0

    def test_blackout_freezes_report_board(self):
        result = run_rack(plan=blackout_plan([(500.0, 6000.0)]))
        clean = run_rack()
        assert result.telemetry_updates < clean.telemetry_updates

    def test_degradation_inflates_fabric_delay(self):
        plan = FaultPlan(faults=(
            FabricDegradation(at_us=500.0, duration_us=8000.0,
                              multiplier=16.0),
        ))
        slow = run_rack(plan=plan, load_frac=0.5)
        clean = run_rack(load_frac=0.5)
        slow_lat = sorted(slow.client_latencies_us())
        clean_lat = sorted(clean.client_latencies_us())
        assert slow_lat[len(slow_lat) // 2] > clean_lat[len(clean_lat) // 2]

    def test_stall_defers_preemption(self):
        # One server, stall covering the whole run: Concord's probe-driven
        # yields are deferred to the window end, so long requests hog.
        stall = run_rack(
            plan=stall_plan(at_us=0.0, duration_us=10_000_000.0, server=0),
            num_servers=1, load_frac=0.5,
        )
        clean = run_rack(num_servers=1, load_frac=0.5)
        assert stall.fault_stats["stalled_probes"] > 0
        stalled_preemptions = sum(
            s["preemptions"] for s in stall.worker_stats
        )
        clean_preemptions = sum(
            s["preemptions"] for s in clean.worker_stats
        )
        assert stalled_preemptions < clean_preemptions
        assert stall.summary().p999 > clean.summary().p999

    def test_dropout_reprobes_deterministically(self):
        plan = FaultPlan(faults=(
            ProbeDropout(at_us=0.0, duration_us=10_000_000.0,
                         drop_prob=0.5),
        ))
        first = run_rack(plan=plan, load_frac=0.5)
        second = run_rack(plan=plan, load_frac=0.5)
        assert first.fault_stats["dropped_probes"] > 0
        assert (
            first.fault_stats["dropped_probes"]
            == second.fault_stats["dropped_probes"]
        )
        assert result_fingerprint(first) == result_fingerprint(second)


# -- resilience mechanisms ----------------------------------------------------


class TestResilience:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(timeout_us=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            DetectorConfig(suspicion_timeout_us=0.0)

    def test_detector_suspects_and_readmits(self):
        plan = crash_plan(at_us=1500.0, down_us=2500.0, server=1)
        result = run_rack(plan=plan, resilience=ResilienceConfig())
        rows = result.suspicion_intervals
        assert rows, "crash must trigger suspicion"
        assert any(server == 1 for server, _start, _end in rows)
        assert any(end is not None for _server, _start, end in rows)
        assert result.resilience_stats["suspicions"] >= 1
        assert result.resilience_stats["readmissions"] >= 1

    def test_detector_unit_behaviour(self):
        clock = c6420(1).clock
        det = FailureDetector(clock, 2, DetectorConfig(
            suspicion_timeout_us=10.0, check_interval_us=5.0,
            probation_us=50.0,
        ))
        t0 = 0
        det.on_send(0, t0)
        late = t0 + clock.us_to_cycles(20.0)
        det.check(late)
        assert det.is_suspected(0)
        assert det.suspected() == [0]
        # replies clear suspicion immediately
        det.on_reply(0, late + 1)
        assert not det.is_suspected(0)
        # probationary re-admission without any reply
        det.on_send(1, t0)
        det.check(late)
        assert det.is_suspected(1)
        det.check(late + clock.us_to_cycles(60.0))
        assert not det.is_suspected(1)
        assert det.readmissions == 1

    def test_hedging_duplicates_are_deduped(self):
        plan = crash_plan(at_us=1500.0, down_us=2500.0, server=1)
        result = run_rack(
            plan=plan,
            resilience=ResilienceConfig.hedged(hedge_delay_us=300.0),
        )
        assert result.hedges > 0
        rids = [r.rid for r in result.records]
        assert len(rids) == len(set(rids))
        assert result.goodput() <= 1.0

    def test_shedding_counts_and_drains(self):
        result = run_rack(
            load_frac=1.3,
            num_requests=1200,
            resilience=ResilienceConfig(shed_queue_threshold=3),
        )
        assert result.shed > 0
        assert result.drained
        assert result.resilience_stats["shed"] == result.shed
        assert result.goodput() < 1.0

    def test_failed_requests_do_not_count_as_goodput(self):
        # A 50 us deadline with no retry budget fails about half the
        # requests, yet every one of them still completes on its server;
        # those late completions are not goodput.
        workload = bimodal_50_1_50_100()
        cluster = Cluster(
            c6420(4), concord(QUANTUM_US), 2, policy="jsq", seed=1,
            resilience=ResilienceConfig(timeout_us=50.0, max_retries=0),
        )
        load = 0.8 * 2 * 4 * 1e6 / workload.mean_us()
        result = cluster.run(workload, PoissonProcess(load), 3000)
        assert result.failed > 1000
        assert result.shed == 0
        assert len(result.records) == result.resilience_stats["completed"]
        assert result.goodput() == pytest.approx(
            (3000 - result.failed) / 3000
        )
        assert result.slo_goodput() <= result.goodput()
        assert len(result.e2e_latencies_us) == len(result.records)

    def test_e2e_latencies_cover_completed_requests(self):
        plan = crash_plan(at_us=1500.0, down_us=2500.0, server=1)
        result = run_rack(plan=plan, resilience=ResilienceConfig())
        lat = result.e2e_latencies_us
        assert len(lat) == len(result.records)
        assert all(v > 0 for v in lat)


# -- warmup_frac boundary behaviour (satellite) -------------------------------


class TestWarmupFracBoundaries:
    def test_zero_warmup_keeps_every_record(self):
        result = run_rack(num_requests=400)
        assert len(result.measured_records(0.0)) == len(result.records)
        assert len(result.slowdowns(0.0)) == len(result.records)

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.1])
    def test_out_of_range_warmup_rejected(self, bad):
        result = run_rack(num_requests=400)
        with pytest.raises(ValueError, match="warmup_frac"):
            result.measured_records(bad)
        with pytest.raises(ValueError, match="warmup_frac"):
            result.slowdowns(bad)
        with pytest.raises(ValueError, match="warmup_frac"):
            result.per_server_summaries(bad)
        with pytest.raises(ValueError, match="warmup_frac"):
            result.slo_goodput(bad)

    @pytest.mark.parametrize("bad", [1.0, 2.0, -0.5])
    def test_simresult_accessors_reject_bad_warmup(self, bad):
        from repro.core.server import Server

        workload = bimodal_50_1_50_100()
        server = Server(c6420(WORKERS), concord(QUANTUM_US), seed=1)
        sim_result = server.run(workload, PoissonProcess(1e5), 300)
        with pytest.raises(ValueError, match="warmup_frac"):
            sim_result.measured_records(bad)
        with pytest.raises(ValueError, match="warmup_frac"):
            sim_result.slowdowns(bad)

    def test_simresult_zero_warmup_works(self):
        from repro.core.server import Server

        workload = bimodal_50_1_50_100()
        server = Server(c6420(WORKERS), concord(QUANTUM_US), seed=1)
        sim_result = server.run(workload, PoissonProcess(1e5), 300)
        assert len(sim_result.measured_records(0.0)) == 300


# -- observability integration ------------------------------------------------


class TestFaultProbes:
    def test_crash_recover_retry_events_emitted(self):
        from repro.obs import TraceConfig, tracing
        from repro.obs import events as ev

        plan = crash_plan(at_us=1500.0, down_us=2500.0, server=1)
        with tracing(TraceConfig.full()) as session:
            run_rack(plan=plan, resilience=ResilienceConfig(),
                     num_requests=600)
        balancer_bus = next(
            bus for bus in session.buses if bus.label == "balancer"
        )
        counters = balancer_bus.registry.snapshot()["counters"]
        assert counters.get("faults.crashes") == 1
        assert counters.get("faults.recoveries") == 1
        assert counters.get("resilience.retries", 0) > 0
        kinds = {event[1] for event in balancer_bus.events}
        assert {ev.CRASH, ev.RECOVER, ev.RETRY} <= kinds
        gc.collect()
        assert not any(
            gc.is_tracked(atom)
            for bus in session.buses for atom in bus.events.atoms
        )
        assert not any(
            gc.is_tracked(event)
            for bus in session.buses for capture in bus.recorder.captures
            for event in capture["events"]
        )

    def test_shed_events_emitted(self):
        from repro.obs import TraceConfig, tracing
        from repro.obs import events as ev

        with tracing(TraceConfig.full()) as session:
            run_rack(
                load_frac=1.3, num_requests=600,
                resilience=ResilienceConfig(shed_queue_threshold=3),
            )
        balancer_bus = next(
            bus for bus in session.buses if bus.label == "balancer"
        )
        counters = balancer_bus.registry.snapshot()["counters"]
        assert counters.get("resilience.shed", 0) > 0
        assert any(event[1] == ev.SHED for event in balancer_bus.events)
