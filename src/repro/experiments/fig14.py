"""Fig. 14: the drawback of approximate scheduling — Concord's slightly
higher tail slowdown at *low* load.

A zoom of Fig. 6(a)'s low-load region: requests occasionally stolen by the
dispatcher during bursts run slower (rdtsc-instrumented code, interleaved
with dispatching) and cannot migrate back, adding ~3 to the p99.9 slowdown
vs Shinjuku.  Disabling work stealing recovers the difference.

Reproduction note: with pure Poisson arrivals the 28 JBSQ slots (14 workers
x k=2) essentially never fill at low load, so the dispatcher never steals
and the penalty does not appear.  The paper's testbed traffic is burstier
than Poisson at microsecond timescales (NIC batching, closed-loop client
packing), so this experiment uses the Markov-modulated Poisson process with
short 4x bursts — which recreates exactly the "occasional bursts even at
low loads" the paper attributes the penalty to (section 5.5).
"""

from repro.core.presets import concord, concord_no_steal, persephone_fcfs, shinjuku
from repro.experiments.common import (
    ExperimentResult,
    scale_for,
    sweep_systems,
)
from repro.hardware import c6420
from repro.workloads.arrivals import MarkovModulatedPoisson
from repro.workloads.named import bimodal_50_1_50_100

QUANTUM_US = 5.0


def _bursty(rate_rps):
    return MarkovModulatedPoisson(
        rate_rps, burst_factor=4.0, burst_fraction=0.12, mean_dwell_us=400.0
    )


def run(quality="standard", seed=1):
    scale = scale_for(quality)
    workload = bimodal_50_1_50_100()
    machine = c6420()
    max_load = machine.num_workers * 1e6 / workload.mean_us()
    # Low-load region only: 10%..55% of capacity.
    loads = [
        max_load * (0.10 + 0.45 * i / (scale.load_points - 1))
        for i in range(scale.load_points)
    ]
    configs = [
        persephone_fcfs(),
        shinjuku(QUANTUM_US),
        concord(QUANTUM_US),
        concord_no_steal(QUANTUM_US),
    ]
    sweeps = sweep_systems(
        machine, configs, workload, loads, scale.num_requests, seed=seed,
        arrival_factory=_bursty,
    )
    result = ExperimentResult(
        experiment_id="fig14",
        title="Low-load zoom of Fig. 6(a): the cost of dispatcher work "
              "stealing (bursty arrivals)",
        headers=["load_krps"] + [c.name for c in configs] + ["steals"],
    )
    shinjuku_gaps = []
    steal_gaps = []
    for i, load in enumerate(loads):
        row = [load / 1e3]
        for config in configs:
            row.append(sweeps[config.name][i].p999)
        row.append(sweeps["Concord"][i].steals)
        result.add_row(*row)
        shinjuku_gaps.append(
            sweeps["Concord"][i].p999
            - sweeps["Shinjuku"][i].p999
        )
        steal_gaps.append(
            sweeps["Concord"][i].p999
            - sweeps["Concord w/o dispatcher work"][i].p999
        )

    result.summary["mean_concord_minus_shinjuku_p999"] = (
        sum(shinjuku_gaps) / len(shinjuku_gaps)
    )
    # The controlled measurement of the stealing penalty: identical system,
    # stealing toggled (the mitigation section 5.5 itself proposes).
    result.summary["mean_steal_penalty_p999"] = (
        sum(steal_gaps) / len(steal_gaps)
    )
    result.summary["max_steal_penalty_p999"] = max(steal_gaps)
    result.summary["total_steals"] = sum(p.steals for p in sweeps["Concord"])
    result.note(
        "paper: Concord's p99.9 slowdown sits ~3 above Shinjuku's at low "
        "load because burst-stolen requests finish slower on the dispatcher;"
        " disabling stealing (Concord w/o dispatcher work) removes the gap."
        " In our model Shinjuku's own burst handling is costlier, so the"
        " penalty is isolated by the Concord vs Concord-w/o-stealing pair."
    )
    return result
