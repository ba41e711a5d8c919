"""Tests for runtime configuration and safety models."""

import random

import pytest

from repro.core.config import (
    ApiWindowSafety,
    LockCounterSafety,
    NoSafety,
    RuntimeConfig,
)
from repro.core.preemption import PostedIPI
from repro.core.presets import (
    concord,
    concord_no_steal,
    coop_jbsq,
    coop_single_queue,
    ideal_single_queue,
    persephone_fcfs,
    shinjuku,
)
from repro.hardware import CycleClock, c6420


def rng(seed=0):
    return random.Random(seed)


class TestRuntimeConfig:
    def test_quantum_requires_mechanism(self):
        with pytest.raises(ValueError):
            RuntimeConfig(name="bad", quantum_us=5.0)

    def test_invalid_queue_mode(self):
        with pytest.raises(ValueError):
            RuntimeConfig(name="bad", queue_mode="multi")

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            RuntimeConfig(name="bad", queue_mode="jbsq", jbsq_depth=0)

    def test_negative_quantum(self):
        with pytest.raises(ValueError):
            RuntimeConfig(
                name="bad", quantum_us=-1.0,
                preemption_factory=lambda machine: PostedIPI(),
            )

    def test_unknown_policy_fails_at_construction(self):
        with pytest.raises(ValueError, match="'nope'.*fcfs, srpt"):
            concord(5.0, policy="nope")
        with pytest.raises(ValueError, match="fcfs, srpt"):
            RuntimeConfig(name="bad").replace(policy="lifo")

    def test_replace_makes_modified_copy(self):
        config = shinjuku(5.0)
        other = config.replace(name="Shinjuku-2us", quantum_us=2.0)
        assert other.quantum_us == 2.0
        assert config.quantum_us == 5.0

    def test_preemptive_property(self):
        assert shinjuku(5.0).preemptive
        assert not persephone_fcfs().preemptive


class TestPresets:
    def test_shinjuku_shape(self):
        config = shinjuku(5.0)
        assert config.queue_mode == "sq"
        assert not config.work_conserving_dispatcher
        mech = config.preemption_factory(c6420())
        assert mech.name == "posted-ipi"

    def test_persephone_is_run_to_completion(self):
        config = persephone_fcfs()
        assert config.quantum_us is None
        assert config.dispatch_cost_scale > 1.0

    def test_concord_has_all_three_mechanisms(self):
        config = concord(5.0)
        assert config.queue_mode == "jbsq"
        assert config.jbsq_depth == 2
        assert config.work_conserving_dispatcher
        mech = config.preemption_factory(c6420())
        assert mech.name == "cacheline"

    def test_ablation_chain_is_cumulative(self):
        step1 = coop_single_queue(5.0)
        step2 = coop_jbsq(5.0)
        full = concord(5.0)
        assert step1.queue_mode == "sq"
        assert step2.queue_mode == "jbsq"
        assert not step1.work_conserving_dispatcher
        assert not step2.work_conserving_dispatcher
        assert full.work_conserving_dispatcher

    def test_concord_no_steal(self):
        config = concord_no_steal(5.0)
        assert not config.work_conserving_dispatcher
        assert config.queue_mode == "jbsq"

    def test_ideal_single_queue_variants(self):
        no_preempt = ideal_single_queue()
        assert no_preempt.ideal and not no_preempt.preemptive
        precise = ideal_single_queue(quantum_us=5.0, notice_sigma_us=0.0)
        mech = precise.preemption_factory(c6420())
        assert mech.notice_delay_cycles(rng()) == 0
        lagged = ideal_single_queue(quantum_us=5.0, notice_sigma_us=2.0)
        mech = lagged.preemption_factory(c6420())
        assert any(mech.notice_delay_cycles(rng(i)) > 0 for i in range(5))


class TestSafetyModels:
    clock = CycleClock()

    def test_no_safety_never_defers(self):
        assert NoSafety().defer_cycles("GET", self.clock, rng()) == 0

    def test_api_window_defers_within_call(self):
        safety = ApiWindowSafety({"GET": 100.0})
        r = rng(1)
        defers = [safety.defer_cycles("GET", self.clock, r) for _ in range(500)]
        limit = self.clock.us_to_cycles(100.0)
        assert all(0 <= d <= limit for d in defers)
        assert max(defers) > limit // 2  # long deferrals do occur

    def test_api_window_unknown_kind_uses_default(self):
        safety = ApiWindowSafety({}, default_us=0.0)
        assert safety.defer_cycles("PUT", self.clock, rng()) == 0

    def test_lock_counter_rarely_defers(self):
        safety = LockCounterSafety(
            critical_us={"PUT": 0.2}, held_fraction={"PUT": 0.1}
        )
        r = rng(2)
        defers = [safety.defer_cycles("PUT", self.clock, r) for _ in range(2000)]
        nonzero = [d for d in defers if d > 0]
        # ~10% of signals land in the tiny critical section.
        assert 0.03 < len(nonzero) / len(defers) < 0.2
        assert max(nonzero) <= self.clock.us_to_cycles(0.2)

    def test_lock_counter_zero_fraction_never_defers(self):
        safety = LockCounterSafety(critical_us={"GET": 1.0})
        assert safety.defer_cycles("GET", self.clock, rng()) == 0
