"""Pinned outputs of the picklable job specs in :mod:`repro.parallel.jobs`.

Each case runs one small job and compares what it returns with values
recorded when the repo had four job specs: a load-sweep point
(``SimJob``), the ``compare`` row (``ServerJob``), a fault-free rack row
(``RackJob``) and a crash-plus-retry rack row (``FaultJob``).  The
``compare`` row is now read from ``SimJob``'s SweepPoint and the faulted
row from ``RackJob``, so the two lookups below fall back to the job that
took each one over.  Every pinned value must come back exactly (the runs
are deterministic), and a job may return more than is pinned here.
"""

from repro import parallel
from repro.core import concord
from repro.faults import ResilienceConfig, crash_plan
from repro.hardware import c6420
from repro.workloads import bimodal_50_1_50_100

ServerJob = getattr(parallel, "ServerJob", parallel.SimJob)
FaultJob = getattr(parallel, "FaultJob", parallel.RackJob)

REQUESTS = 1500
WORKLOAD = bimodal_50_1_50_100()
#: Offered load of a 4-worker server (or of a rack of two 2-worker ones)
#: at 100% utilisation.
CAPACITY_RPS = 4 * 1e6 / WORKLOAD.mean_us()


def field(outcome, name):
    """Read ``name`` from a row dict or from a SweepPoint."""
    if isinstance(outcome, dict):
        return outcome[name]
    return getattr(outcome, name)


def assert_pinned(outcome, pins):
    for name, value in pins.items():
        assert field(outcome, name) == value, name


def test_simjob_sweep_point():
    point = parallel.SimJob(
        machine=c6420(4), config=concord(5.0, policy="srpt"),
        workload=WORKLOAD, load_rps=0.8 * CAPACITY_RPS,
        num_requests=REQUESTS, seed=3,
    ).run()
    assert_pinned(point, {
        "load_rps": 63366.33663366337,
        "p50": 1.7502942307692306,
        "p99": 8.901073076923078,
        "p999": 9.845761153846157,
        "mean": 2.6832100569800548,
        "throughput_rps": 63627.672007377674,
        "dispatcher_utilization": 0.40243929895618313,
        "worker_idle_fraction": 0.17754412309859716,
        "steals": 73,
        "completed": 1500,
    })


def test_compare_row():
    outcome = ServerJob(
        machine=c6420(4), config=concord(5.0), workload=WORKLOAD,
        load_rps=0.85 * CAPACITY_RPS, num_requests=REQUESTS, seed=4,
    ).run()
    assert_pinned(outcome, {
        "p50": 1.8687076923076922,
        "p99": 21.607557692307687,
        "p999": 29.503266153846223,
        "mean": 3.8248533703703687,
        "dispatcher_utilization": 0.4311233805425965,
        "steal_completions": 93,
        "completed": 1500,
    })


def test_fault_free_rack_row():
    outcome = parallel.RackJob(
        machine=c6420(2), config=concord(5.0), num_servers=2, policy="po2",
        workload=WORKLOAD, load_rps=0.75 * CAPACITY_RPS,
        num_requests=REQUESTS, seed=5,
    ).run()
    assert_pinned(outcome, {
        "policy": "po2",
        "config": "Concord",
        "p50": 1.44905,
        "p99": 6.716353846153846,
        "p999": 10.556575000000047,
        "mean": 2.0552114729344697,
        "imbalance": 1.0346666666666666,
        "drained": True,
        "completed": 1500,
    })


def test_crash_plus_retry_rack_row():
    load = 0.7 * CAPACITY_RPS
    span_us = REQUESTS / load * 1e6
    outcome = FaultJob(
        machine=c6420(2), config=concord(5.0), num_servers=2, policy="jsq",
        workload=WORKLOAD, load_rps=load, num_requests=REQUESTS, seed=6,
        fault_plan=crash_plan(0.25 * span_us, 0.3 * span_us, server=1),
        resilience=ResilienceConfig.retry_only(),
    ).run()
    assert_pinned(outcome, {
        "policy": "jsq",
        "config": "Concord",
        "plan": "crash",
        "p50": 2.4603230769230766,
        "p99": 164.24612692307693,
        "p999": 176.06895000000014,
        "mean": 22.78109557549859,
        "goodput": 1.0,
        "slo_goodput": 0.8296296296296296,
        "imbalance": 1.064314171883893,
        "completed": 1500,
        "offered": 1500,
        "drained": True,
        "crashes": 1,
        "lost": 203,
        "requeued": 0,
        "shed": 0,
        "failed": 0,
        "retries": 257,
        "hedges": 0,
        "timeouts": 257,
        "mttr_us": 8382.245,
    })
