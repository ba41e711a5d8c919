"""Benchmarks: the extension experiments (JBSQ depth, SRPT, safety,
scaling, the rack layer and fault injection)."""

from conftest import run_once


def test_ext_jbsq(quality):
    results = run_once("ext-jbsq", quality)
    summary = results[0].summary
    # k=2 removes nearly all handoff idle time vs k=1 (section 3.2).
    assert summary["idle_reduction_k1_to_k2_pct"] > 2
    # Deeper queues only hurt the tail.
    assert summary["tail_penalty_k6_vs_k2"] > -1


def test_ext_policies(quality):
    results = run_once("ext-policies", quality)
    summary = results[0].summary
    # SRPT serves the short class at least as well as FCFS+PS.
    assert summary["short_p999_srpt"] <= 1.1 * summary["short_p999_fcfs"]


def test_ext_safety(quality):
    results = run_once("ext-safety", quality)
    summary = results[0].summary
    # API-window preemption disabling cripples Shinjuku on the 100us-GET
    # microbenchmark; Concord's lock counter keeps preemption timely.
    assert (
        summary["knee_krps[Concord]"] > 2 * summary["knee_krps[Shinjuku]"]
    )


def test_ext_scaling(quality):
    results = run_once("ext-scaling", quality)
    fixed, dispersion = results
    # Both section-6 designs push past the single dispatcher's ceiling.
    single = fixed.summary["single_dispatcher_sustained_mrps"]
    assert fixed.summary["replicated_sustained_mrps"] > single
    assert fixed.summary["logical_queue_sustained_mrps"] > single
    # But global visibility still balances heavy tails better.
    assert dispersion.summary["logical_p999"] > 0
    assert dispersion.summary["physical_p999"] > 0


def test_ext_cluster(quality):
    headline, staleness = run_once("ext-cluster", quality)
    # Queue-aware routing beats oblivious spraying at high load, for every
    # intra-server mechanism.
    for mechanism in ("Concord", "Shinjuku", "No-preempt"):
        key = "{}_random_over_jsq_p99_at_0.85".format(mechanism)
        assert headline.summary[key] > 1, key
    # Power-of-two choices also beats random on the Concord rack.
    concord = headline.headers.index("Concord p99")
    p99 = {
        row[1]: row[concord] for row in headline.rows if row[0] == 0.85
    }
    assert p99["po2"] < p99["random"]
    # A staler queue signal only ever hurts JSQ's tail.
    assert staleness.summary["degradation_monotone"] is True


def test_ext_faults(quality):
    _blackout, recovery = run_once("ext-faults", quality)
    # Detector + retry restores >= 90% of the fault-free goodput ...
    assert recovery.summary["retry_restores_90pct"] is True
    # ... which a crash without resilience visibly loses.
    assert recovery.summary["jsq_goodput_none"] < 1
