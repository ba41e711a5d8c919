"""Pinned end-to-end digests of single-server runs.

Each case runs ~2k requests through one runtime configuration and hashes
everything observable: every completed request's lifecycle, the per-worker
and dispatcher counters, and the number of events the engine fired.  Any
change to event order, timing or RNG draw order moves a digest, so a
refactor of the dispatcher, worker or engine hot paths must leave all of
them unchanged.

Between them the cases cover JBSQ placement (plain, locality-aware and
SRPT's peek), dispatcher work stealing, the single queue's flag poll,
dispatcher-signalled preemption (cache-line writes and IPIs),
self-preemption (rdtsc probes) and the zero-overhead ideal queue.

The section-6 runtimes are pinned the same way: the single logical queue
(spray, steal, scheduler hyperthread) on a dispersive and on a
dispatcher-bound workload, and two replicated single-dispatcher
partitions.
"""

import functools
import hashlib
import json

import pytest

from repro.core import (
    LogicalQueueServer,
    ReplicatedServer,
    Server,
    concord,
    logical_queue_concord,
    shinjuku,
)
from repro.core.presets import (
    concord_no_steal,
    ideal_single_queue,
    rdtsc_single_queue,
    uipi_single_queue,
)
from repro.hardware import c6420
from repro.workloads import PoissonProcess, bimodal_50_1_50_100, fixed_1us

WORKERS = 8
LOAD = 0.85
REQUESTS = 2000
SEED = 5

CONFIGS = {
    "concord": lambda: concord(5.0),
    "concord-locality": lambda: concord(5.0, locality_aware=True),
    "concord-srpt": lambda: concord(5.0, policy="srpt"),
    "concord-no-steal": lambda: concord_no_steal(5.0),
    "shinjuku": lambda: shinjuku(5.0),
    "rdtsc-sq": lambda: rdtsc_single_queue(5.0),
    "uipi-sq": lambda: uipi_single_queue(5.0),
    "ideal-sq": lambda: ideal_single_queue(),
}

DIGESTS = {
    "concord": (
        "753f8edb29b8e907e09160e5b3925f9653351516aeb57f7988756bbbcbed9dd9"
    ),
    "concord-locality": (
        "37c5aa0c012ce1766934f7e271dc3e5da48b4d2918b50a6171b5e37decb368a9"
    ),
    "concord-no-steal": (
        "c97411c1723578dafeaa7137130723a37357ef68e57691617e62bbc86ca7cbaa"
    ),
    "concord-srpt": (
        "b876148ff21dfbccfe159f91f59699a8c72767a1a43755cc322a4872015787c3"
    ),
    "ideal-sq": (
        "5c73742c6b4403ad0a95d7b296cc8c8c360c053fd9b077fe1eeeb14b2da0bb79"
    ),
    "rdtsc-sq": (
        "4dd6df56e12a103c5496381181be22138e4851809419f2535b14a425c538abbf"
    ),
    "shinjuku": (
        "60670a3da55784ce8997d9a3f1fbc136e3eeacb31e35a3907c35e0c4a1165eab"
    ),
    "uipi-sq": (
        "bd5d429fe56d70a46b6835b7f8d6a9fb091d730110ebdf0415467ae9629e16ae"
    ),
}


@functools.lru_cache(maxsize=None)
def fingerprint(name):
    config = CONFIGS[name]()
    workload = bimodal_50_1_50_100()
    rate = LOAD * WORKERS * 1e6 / workload.mean_us()
    server = Server(c6420(WORKERS), config, seed=SEED)
    result = server.run(workload, PoissonProcess(rate), REQUESTS)
    records = [
        (
            r.rid, r.kind, r.arrival_cycle, r.service_cycles,
            r.first_dispatch_cycle, r.completion_cycle, r.preemptions,
            r.migrations, r.started_by_dispatcher, r.last_worker,
        )
        for r in result.records
    ]
    return {
        "records": records,
        "worker_stats": result.worker_stats,
        "dispatcher_stats": result.dispatcher_stats,
        "events_run": server.sim.events_run,
        "end_cycle": result.end_cycle,
        "drained": result.drained,
    }


def digest(material):
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_single_server_digest(name):
    material = fingerprint(name)
    assert material["drained"]
    assert len(material["records"]) == REQUESTS
    assert digest(material) == DIGESTS[name]


def test_cases_cover_the_hot_path_branches():
    """The pinned runs are only a guard if they reach the branches: steals,
    locality hits, stale and delivered signals, self-preemption."""
    stats = {
        name: fingerprint(name)
        for name in ("concord", "concord-locality", "rdtsc-sq")
    }
    concord_stats = stats["concord"]["dispatcher_stats"]
    assert concord_stats["steals_started"] > 0
    assert concord_stats["signals_sent"] > 0
    assert concord_stats["stale_signals_skipped"] > 0
    migrations = {
        name: sum(r[7] for r in stats[name]["records"])
        for name in ("concord", "concord-locality")
    }
    assert migrations["concord-locality"] < migrations["concord"]
    rdtsc = stats["rdtsc-sq"]
    assert rdtsc["dispatcher_stats"]["signals_sent"] == 0
    assert sum(w["preemptions"] for w in rdtsc["worker_stats"]) > 0


#: The ``worker_stats`` keys every runtime reports.
WORKER_KEYS = (
    "wid", "idle_cycles", "busy_cycles", "work_cycles", "preemptions",
    "completed",
)


def _lq_bimodal():
    workload = bimodal_50_1_50_100()
    rate = LOAD * WORKERS * 1e6 / workload.mean_us()
    server = LogicalQueueServer(
        c6420(WORKERS), logical_queue_concord(5.0), seed=SEED
    )
    result = server.run(workload, PoissonProcess(rate), REQUESTS)
    return result, server.sim.events_run


def _lq_fixed():
    server = LogicalQueueServer(
        c6420(14), logical_queue_concord(5.0), seed=SEED
    )
    result = server.run(fixed_1us(), PoissonProcess(5e6), REQUESTS)
    return result, server.sim.events_run


def _replicated_fixed():
    server = ReplicatedServer(
        c6420(14), concord(5.0), num_partitions=2, seed=SEED
    )
    result = server.run(fixed_1us(), PoissonProcess(5e6), REQUESTS)
    return result, sum(p.sim.events_run for p in server.partitions)


RUNTIMES = {
    "lq-bimodal": _lq_bimodal,
    "lq-fixed": _lq_fixed,
    "replicated-fixed": _replicated_fixed,
}

RUNTIME_DIGESTS = {
    "lq-bimodal": (
        "2979864972e2c1225e843afac3b80ffbe3df21dd7442146c2a353677f3485e23"
    ),
    "lq-fixed": (
        "7906d35f65cd9c36ebcc791068089cecee83a8be95d307f3fa29c430f55e5beb"
    ),
    "replicated-fixed": (
        "e188619a9c4c2c1f890d111248455a79ac09720de7bffd3ac60e15f00263987e"
    ),
}


@functools.lru_cache(maxsize=None)
def runtime_fingerprint(name):
    result, events_run = RUNTIMES[name]()
    records = [
        (
            r.rid, r.kind, r.arrival_cycle, r.service_cycles,
            r.first_dispatch_cycle, r.completion_cycle, r.preemptions,
            r.migrations, r.started_by_dispatcher, r.last_worker,
        )
        for r in result.records
    ]
    return {
        "records": records,
        "worker_stats": [
            {key: stat[key] for key in WORKER_KEYS}
            for stat in result.worker_stats
        ],
        "dispatcher_stats": result.dispatcher_stats,
        "events_run": events_run,
        "num_offered": result.num_offered,
        "first_arrival_cycle": result.first_arrival_cycle,
        "end_cycle": result.end_cycle,
        "drained": result.drained,
    }


@pytest.mark.parametrize("name", sorted(RUNTIMES))
def test_section6_runtime_digest(name):
    material = runtime_fingerprint(name)
    assert material["drained"]
    assert len(material["records"]) == REQUESTS
    assert digest(material) == RUNTIME_DIGESTS[name]
