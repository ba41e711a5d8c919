"""Tests for the preemption mechanism models (sections 2.2.1, 3.1, 5.6)."""

import random

import pytest

from repro import constants
from repro.core import Server, concord
from repro.core.preemption import (
    CacheLineCooperation,
    HalfNormalNotice,
    LinuxIPI,
    NoPreemption,
    PostedIPI,
    RdtscSelfPreemption,
    UniformProbeGapNotice,
    UserIPI,
)
from repro.hardware import CoherenceModel, c6420


def rng(seed=0):
    return random.Random(seed)


class TestPostedIPI:
    def test_is_precise(self):
        assert PostedIPI().notice_delay_cycles(rng()) == 0.0

    def test_disruption_includes_receive_and_flush(self):
        mech = PostedIPI()
        assert mech.worker_disruption_cycles == (
            constants.IPI_RECEIVE_CYCLES + constants.IPI_EXTRA_DISRUPTION_CYCLES
        )

    def test_no_instrumentation_tax(self):
        assert PostedIPI().proc_overhead == 0.0

    def test_preemptive_context_switch(self):
        assert (
            PostedIPI().context_switch_cycles
            == constants.PREEMPTIVE_CONTEXT_SWITCH_CYCLES
        )


class TestLinuxIPI:
    def test_costs_double_receive(self):
        assert LinuxIPI().worker_disruption_cycles == (
            2 * constants.IPI_RECEIVE_CYCLES + constants.IPI_EXTRA_DISRUPTION_CYCLES
        )


class TestUserIPI:
    def test_scales_with_coherence(self):
        base = UserIPI().worker_disruption_cycles
        scaled = UserIPI(coherence=CoherenceModel(1.5)).worker_disruption_cycles
        assert scaled == int(round(1.5 * constants.UIPI_RECEIVE_CYCLES))
        assert base == constants.UIPI_RECEIVE_CYCLES

    def test_cheaper_than_posted_ipi(self):
        assert UserIPI().worker_disruption_cycles < PostedIPI().worker_disruption_cycles


class TestCacheLineCooperation:
    def test_cnotif_is_one_eighth_of_shinjuku_ipi(self):
        # Section 3.1: the final probe's RaW miss (~150 cycles) is 1/8th the
        # cost of a Shinjuku IPI (~1200 cycles).
        mech = CacheLineCooperation()
        assert mech.raw_miss_cycles * 8 == constants.IPI_RECEIVE_CYCLES
        # Only part of the miss is exposed as lost execution time.
        assert mech.worker_disruption_cycles == int(
            round(
                constants.CACHELINE_MISS_CYCLES
                * constants.CACHELINE_MISS_EXPOSED_FRACTION
            )
        )

    def test_notice_delay_is_bounded_by_probe_gap(self):
        mech = CacheLineCooperation()
        r = rng(1)
        delays = [mech.notice_delay_cycles(r) for _ in range(1000)]
        assert all(0 <= d <= constants.PROBE_INTERVAL_CYCLES for d in delays)
        assert max(delays) > 0

    def test_instrumentation_tax_is_low(self):
        assert CacheLineCooperation().proc_overhead < 0.02

    def test_coherence_scaling(self):
        mech = CacheLineCooperation(coherence=CoherenceModel(1.5))
        assert mech.raw_miss_cycles == int(
            round(1.5 * constants.CACHELINE_MISS_CYCLES)
        )
        assert mech.worker_disruption_cycles == int(
            round(
                mech.raw_miss_cycles * constants.CACHELINE_MISS_EXPOSED_FRACTION
            )
        )

    def test_cooperative_switch_is_cheap(self):
        assert (
            CacheLineCooperation().context_switch_cycles
            == constants.COOP_CONTEXT_SWITCH_CYCLES
        )

    def test_profile_sets_notice_and_overhead(self):
        class StubProfile:
            overhead_fraction = 0.01

            def sample_gap_cycles(self, rng):
                return 10_000

        mech = CacheLineCooperation(profile=StubProfile())
        assert mech.proc_overhead == 0.01
        r = rng(2)
        delays = [mech.notice_delay_cycles(r) for _ in range(200)]
        assert max(delays) > constants.PROBE_INTERVAL_CYCLES

    def test_negative_profiled_overhead_floors_at_zero(self):
        # A kernel can profile slightly faster instrumented than not
        # (examples/compiler_instrumentation.py's matmul reads -2.12%);
        # the instrumented workers must still run no faster than plain.
        class StubProfile:
            overhead_fraction = -0.0212

            def sample_gap_cycles(self, rng):
                return 10_000

        mech = CacheLineCooperation(profile=StubProfile())
        assert mech.proc_overhead == 0.0
        server = Server(c6420(2), concord(5.0, profile=StubProfile()), seed=1)
        assert server.worker_rate == pytest.approx(
            1.0 + constants.RUNTIME_PROC_OVERHEAD_FRACTION
        )


class TestRdtscSelfPreemption:
    def test_no_dispatcher_needed(self):
        assert not RdtscSelfPreemption().needs_dispatcher_signal

    def test_flat_21_percent_tax(self):
        assert RdtscSelfPreemption().proc_overhead == pytest.approx(0.21)

    def test_no_notification_disruption(self):
        assert RdtscSelfPreemption().worker_disruption_cycles == 0


class TestNoPreemption:
    def test_not_preemptive(self):
        assert not NoPreemption().preemptive

    def test_signal_raises(self):
        with pytest.raises(RuntimeError):
            NoPreemption().notice_delay_cycles(rng())


class TestNoticeModels:
    def test_half_normal_is_one_sided(self):
        notice = HalfNormalNotice(2600)
        r = rng(3)
        samples = [notice.sample_cycles(r) for _ in range(2000)]
        assert all(s >= 0 for s in samples)
        # Mean of |N(0, s)| is s * sqrt(2/pi) ~= 0.798 s.
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(2600 * 0.7979, rel=0.1)

    def test_half_normal_zero_sigma_is_precise(self):
        assert HalfNormalNotice(0).sample_cycles(rng()) == 0

    def test_half_normal_rejects_negative(self):
        with pytest.raises(ValueError):
            HalfNormalNotice(-1)

    def test_uniform_probe_gap_uses_profile(self):
        class StubProfile:
            def sample_gap_cycles(self, rng):
                return 500

        notice = UniformProbeGapNotice(StubProfile())
        r = rng(4)
        samples = [notice.sample_cycles(r) for _ in range(500)]
        assert all(0 <= s <= 500 for s in samples)
