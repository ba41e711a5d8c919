"""Cross-cutting integration tests: DES vs the analytical model, trace
replay, instrumentation-profile-driven scheduling, and LevelDB workloads
end to end."""

import pytest

from repro import constants
from repro.core import Server, concord, shinjuku
from repro.core.presets import coop_jbsq, persephone_fcfs
from repro.hardware import CycleClock, c6420
from repro.instrument import CACHELINE_STYLE, profile_kernel
from repro.instrument.kernels import kernel_by_name
from repro.kvstore import (
    concord_lock_counter_safety,
    leveldb_workload,
    shinjuku_api_window_safety,
)
from repro.metrics import summarize_slowdowns
from repro.models.overhead import worker_overhead
from repro.workloads import PoissonProcess, Trace
from repro.workloads.distributions import ClassMix, Fixed, RequestClass


class TestModelVsSimulation:
    """Eq. 2-4 must agree with the DES where the model's assumptions hold:
    saturated workers, fixed service, single quantum regime."""

    def test_goodput_matches_analytical_overhead(self):
        service_us = 100.0
        quantum_us = 10.0
        machine = c6420(4)
        config = coop_jbsq(quantum_us)
        workload = ClassMix(
            [RequestClass("spin", 1.0, Fixed(service_us))], name="fixed"
        )
        rate = 1.3 * machine.num_workers * 1e6 / service_us
        server = Server(machine, config, seed=1)
        duration_us = 30_000
        result = server.run(
            workload, PoissonProcess(rate),
            int(rate * duration_us / 1e6) + 1, until_us=duration_us,
        )
        measured_overhead = 1.0 - result.goodput_fraction()

        clock = CycleClock()
        mech = config.preemption_factory(machine)
        breakdown = worker_overhead(
            clock.us_to_cycles(service_us),
            clock.us_to_cycles(quantum_us),
            cnotif=mech.worker_disruption_cycles,
            cswitch=mech.context_switch_cycles,
            cnext=constants.JBSQ_RESIDUAL_CYCLES,
            proc_fraction=mech.proc_overhead
            + constants.RUNTIME_PROC_OVERHEAD_FRACTION,
        )
        # Model: wasted / (service + wasted); DES measures the same thing
        # plus probe-gap notice latency and warmup edges.
        predicted = breakdown.wasted_cycles / (
            breakdown.service_cycles + breakdown.wasted_cycles
        )
        assert measured_overhead == pytest.approx(predicted, abs=0.02)


class TestTraceReplay:
    def test_replay_is_deterministic_and_exact(self):
        import random

        workload = leveldb_workload({"GET": 0.5, "SCAN": 0.5})
        trace = Trace.sample(
            workload, PoissonProcess(20_000), 1500, random.Random(3)
        )
        machine = c6420(4)
        a = Server(machine, persephone_fcfs(), seed=1).run_trace(trace)
        b = Server(machine, persephone_fcfs(), seed=1).run_trace(trace)
        # Identical trace + identical seed (the seed still drives the
        # dispatcher's flag-poll discovery jitter): bit-exact replay.
        assert a.slowdowns() == b.slowdowns()
        assert len(a.records) == len(trace)
        kinds = sorted(r.kind for r in a.records)
        assert kinds == sorted(r.kind for r in trace)

    def test_replay_pairs_configs_fairly(self):
        import random

        workload = leveldb_workload({"GET": 0.5, "SCAN": 0.5})
        trace = Trace.sample(
            workload, PoissonProcess(25_000), 1200, random.Random(5)
        )
        machine = c6420(8)
        preemptive = Server(machine, shinjuku(5.0), seed=1).run_trace(trace)
        blocking = Server(machine, persephone_fcfs(), seed=1).run_trace(trace)
        get_tail = lambda result: summarize_slowdowns(
            [r.slowdown() for r in result.records if r.kind == "GET"]
        ).p999
        # Same requests, same instants: preemption must win for GETs.
        assert get_tail(preemptive) < get_tail(blocking)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Server(c6420(2), persephone_fcfs()).run_trace(Trace())


class TestProfileDrivenScheduling:
    def test_kernel_profile_feeds_notice_latency(self):
        # ocean-ncp has multi-microsecond probe gaps (halo exchanges); a
        # Concord server driven by its profile sees larger notice latency
        # than the default dense-probe assumption, and the tail reflects it.
        profile = profile_kernel(
            lambda: kernel_by_name("ocean-ncp").build(scale=0.3),
            CACHELINE_STYLE,
        )
        assert profile.max_gap_cycles > 10 * constants.PROBE_INTERVAL_CYCLES
        machine = c6420(4)
        workload = ClassMix(
            [
                RequestClass("short", 0.9, Fixed(1.0)),
                RequestClass("long", 0.1, Fixed(200.0)),
            ],
            name="mix",
        )
        rate = 0.6 * machine.num_workers * 1e6 / workload.mean_us()
        dense = Server(machine, concord(5.0), seed=2).run(
            workload, PoissonProcess(rate), 4000
        )
        coarse = Server(machine, concord(5.0, profile=profile), seed=2).run(
            workload, PoissonProcess(rate), 4000
        )
        dense_tail = summarize_slowdowns(dense.slowdowns()).p999
        coarse_tail = summarize_slowdowns(coarse.slowdowns()).p999
        assert coarse_tail >= dense_tail * 0.9  # never dramatically better


class TestLevelDBEndToEnd:
    def test_safety_models_change_the_tail(self):
        # Same LevelDB workload, Shinjuku-style API windows vs Concord's
        # lock counter: the lock counter preempts more promptly, so GETs
        # behind SCANs see a tighter tail.
        workload = leveldb_workload({"GET": 0.5, "SCAN": 0.5})
        machine = c6420(8)
        rate = 0.5 * machine.num_workers * 1e6 / workload.mean_us()

        def tail(safety):
            config = coop_jbsq(5.0, safety=safety)
            result = Server(machine, config, seed=3).run(
                workload, PoissonProcess(rate), 5000
            )
            gets = [
                r.slowdown() for r in result.measured_records()
                if r.kind == "GET"
            ]
            return summarize_slowdowns(gets).p999

        counter_tail = tail(concord_lock_counter_safety())
        # Coarse API segments (50us iterator chunks) defer every SCAN
        # preemption by tens of microseconds; GETs queue behind them.
        window_tail = tail(shinjuku_api_window_safety(scan_segment_us=50.0))
        assert counter_tail < window_tail
