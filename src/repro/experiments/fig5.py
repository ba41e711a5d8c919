"""Fig. 5: the impact of non-instantaneous preemption on tail slowdown.

A pure queueing simulation (all mechanism costs zeroed): single queue,
Bimodal(99.5:0.5, 0.5:500), 5 µs quantum, with preemption delivered (a)
precisely, (b) lagged by one-sided Normal noise N(5,1) / N(5,2), or (c) not
at all.  Expected shape: the lagged curves hug precise preemption; no
preemption blows past the SLO at a fraction of the load.
"""

from repro.core.presets import ideal_single_queue
from repro.experiments.common import (
    ExperimentResult,
    scale_for,
    sweep_systems,
)
from repro.hardware import c6420
from repro.metrics.sweep import knee_load
from repro.workloads.named import bimodal_995_05_500

NUM_WORKERS = 14
QUANTUM_US = 5.0


def run(quality="standard", seed=1):
    scale = scale_for(quality)
    machine = c6420(NUM_WORKERS)
    workload = bimodal_995_05_500()
    configs = [
        ideal_single_queue(name="Single Queue (no preemption)"),
        ideal_single_queue(QUANTUM_US, 0.0, name="Precise preemption: N(5,0)"),
        ideal_single_queue(QUANTUM_US, 1.0, name="Preemption with variance: N(5,1)"),
        ideal_single_queue(QUANTUM_US, 2.0, name="Preemption with variance: N(5,2)"),
    ]
    max_load = NUM_WORKERS * 1e6 / workload.mean_us()
    loads = [
        fraction * max_load
        for fraction in _fractions(scale.load_points)
    ]
    sweeps = sweep_systems(
        machine, configs, workload, loads, scale.num_requests, seed=seed
    )
    result = ExperimentResult(
        experiment_id="fig5",
        title="p99.9 slowdown vs load fraction: precise vs noisy vs no "
              "preemption (ideal queueing model)",
        headers=["load_fraction"] + [c.name for c in configs],
    )
    for i, load in enumerate(loads):
        row = [load / max_load]
        for config in configs:
            row.append(sweeps[config.name][i].p999)
        result.add_row(*row)

    precise = sweeps["Precise preemption: N(5,0)"]
    noisy = sweeps["Preemption with variance: N(5,2)"]
    blocked = sweeps["Single Queue (no preemption)"]
    result.summary["precise_knee_fraction"] = knee_load(precise) / max_load
    result.summary["noisy_n52_knee_fraction"] = knee_load(noisy) / max_load
    result.summary["no_preemption_knee_fraction"] = (
        knee_load(blocked) / max_load
    )
    result.note(
        "paper: small-sigma noisy preemption is almost identical to precise "
        "preemption; no preemption crosses the SLO far earlier"
    )
    return result


def _fractions(points):
    low, high = 0.1, 0.92
    return [low + (high - low) * i / (points - 1) for i in range(points)]
