"""Extension: rack-scale two-layer scheduling (RackSched over Concord).

The paper's intra-server story only matters at scale when many servers
serve one service.  This experiment composes N Concord/Shinjuku/
no-preemption servers under one load balancer (:mod:`repro.cluster`) and
measures the rack-wide p99 slowdown:

* **Part 1 (headline):** p99 vs load for every inter-server policy ×
  intra-server mechanism.  The two-layer claim to reproduce: queue-aware
  routing (JSQ/Po2) beats oblivious routing at every load, *and* the
  best inter-server policy cannot rescue a rack whose members schedule
  poorly inside — approximate-optimal intra-server scheduling is necessary
  but not sufficient.
* **Part 2:** JSQ under increasing telemetry staleness — RackSched's
  stale-signal degradation, reproduced by turning the fabric's report-delay
  knob.

The rack's servers are identical, where RackSched's shortest-expected-delay
policy ranks servers exactly like JSQ, so JSQ stands in for it.
"""

from repro.cluster import NetworkFabric
from repro.core import concord, persephone_fcfs, shinjuku
from repro.experiments.common import ExperimentResult, scale_for
from repro.hardware import c6420
from repro.parallel import RackJob, get_default_runner
from repro.workloads.named import bimodal_50_1_50_100

QUANTUM_US = 5.0
WORKERS_PER_SERVER = 4
POLICIES = ["random", "rr", "jsq", "po2"]
LOAD_FRACTIONS = [0.5, 0.7, 0.85]
STALENESS_GRID_US = [0.0, 25.0, 100.0, 400.0]

#: Rack width per quality preset (smoke doubles as the CI cluster target).
RACK_SIZES = {"smoke": 2, "standard": 4, "full": 6}


def _mechanisms():
    return [
        ("Concord", concord(QUANTUM_US)),
        ("Shinjuku", shinjuku(QUANTUM_US)),
        ("No-preempt", persephone_fcfs()),
    ]


def run(quality="standard", seed=1):
    runner = get_default_runner()
    scale = scale_for(quality)
    num_servers = RACK_SIZES.get(quality, 4)
    machine = c6420(WORKERS_PER_SERVER)
    workload = bimodal_50_1_50_100()
    rack_capacity = (
        num_servers * machine.num_workers * 1e6 / workload.mean_us()
    )
    n = scale.num_requests
    mechanisms = _mechanisms()
    results = []

    # Part 1: policy x mechanism headline sweep.
    headline = ExperimentResult(
        experiment_id="ext-cluster-policies",
        title="Rack-wide p99 slowdown: {} servers x {} workers, "
              "Bimodal(50:1,50:100)".format(
                  num_servers, WORKERS_PER_SERVER),
        headers=["load_frac", "policy"]
                + ["{} p99".format(name) for name, _ in mechanisms],
    )
    # Every rack run is independent: submit the whole (load x policy x
    # mechanism) cube as one batch so --jobs fans it out across cores.
    cells = [
        (fraction, policy, mech_name, config)
        for fraction in LOAD_FRACTIONS
        for policy in POLICIES
        for mech_name, config in mechanisms
    ]
    outcomes = runner.map([
        RackJob(
            machine=machine, config=config, num_servers=num_servers,
            policy=policy, workload=workload,
            load_rps=fraction * rack_capacity, num_requests=n, seed=seed,
        )
        for fraction, policy, mech_name, config in cells
    ])
    p99_by_cell = {
        (fraction, policy, mech_name): outcome["p99"]
        for (fraction, policy, mech_name, _), outcome
        in zip(cells, outcomes)
    }
    p99_at_top = {}
    for fraction in LOAD_FRACTIONS:
        for policy in POLICIES:
            row = [fraction, policy]
            for mech_name, _config in mechanisms:
                p99 = p99_by_cell[(fraction, policy, mech_name)]
                row.append(round(p99, 2))
                if fraction == LOAD_FRACTIONS[-1]:
                    p99_at_top[(mech_name, policy)] = p99
            headline.add_row(*row)

    top = LOAD_FRACTIONS[-1]
    for mech_name, _ in mechanisms:
        random_p99 = p99_at_top[(mech_name, "random")]
        jsq_p99 = p99_at_top[(mech_name, "jsq")]
        headline.summary[
            "{}_random_over_jsq_p99_at_{:g}".format(mech_name, top)
        ] = random_p99 / jsq_p99
    # Necessary-but-not-sufficient: the best intra-server mechanism with the
    # worst routing vs the worst mechanism with the best routing.
    headline.summary["concord_random_p99"] = p99_at_top[("Concord", "random")]
    headline.summary["concord_jsq_p99"] = p99_at_top[("Concord", "jsq")]
    headline.summary["nopreempt_jsq_p99"] = p99_at_top[("No-preempt", "jsq")]
    headline.note(
        "two-layer claim: Concord+JSQ needs BOTH layers — Concord+random "
        "loses the inter-server battle, No-preempt+JSQ loses the "
        "intra-server one"
    )
    results.append(headline)

    # Part 2: JSQ under telemetry staleness (Concord rack, fixed load).
    staleness = ExperimentResult(
        experiment_id="ext-cluster-staleness",
        title="JSQ under stale telemetry (Concord rack at 0.75 load)",
        headers=["staleness_us", "p99", "p999", "imbalance"],
    )
    load = 0.75 * rack_capacity
    stale_outcomes = runner.map([
        RackJob(
            machine=machine, config=concord(QUANTUM_US),
            num_servers=num_servers, policy="jsq", workload=workload,
            load_rps=load, num_requests=n, seed=seed,
            fabric=NetworkFabric(telemetry_staleness_us=stale_us),
        )
        for stale_us in STALENESS_GRID_US
    ])
    previous = None
    monotone = True
    for stale_us, outcome in zip(STALENESS_GRID_US, stale_outcomes):
        staleness.add_row(
            stale_us, round(outcome["p99"], 2), round(outcome["p999"], 2),
            round(outcome["imbalance"], 3),
        )
        if previous is not None and outcome["p99"] < previous:
            monotone = False
        previous = outcome["p99"]
    staleness.summary["degradation_monotone"] = monotone
    staleness.note(
        "RackSched's stale-signal effect: the queue signal ages past the "
        "service scale and JSQ decays toward blind routing"
    )
    results.append(staleness)
    return results
