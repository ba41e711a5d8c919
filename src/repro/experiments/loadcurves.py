"""Shared "p99.9 slowdown vs load" experiment shape (Figs. 6-11, 13, 14)."""

from repro import constants
from repro.experiments.common import (
    ExperimentResult,
    load_grid,
    scale_for,
    sweep_systems,
)
from repro.metrics.sweep import knee_load

__all__ = ["slowdown_vs_load"]


def slowdown_vs_load(experiment_id, title, machine, configs, workload,
                     max_load_rps, quality="standard", seed=1,
                     low_fraction=0.25, high_fraction=1.0, baseline=None,
                     contender=None, slo=constants.SLOWDOWN_SLO):
    """Run each config across a load grid; report p99.9 curves and knees.

    ``baseline``/``contender`` name two configs whose knee ratio is the
    figure's headline ("Concord sustains X% greater throughput").
    """
    scale = scale_for(quality)
    loads = load_grid(max_load_rps, scale.load_points, low_fraction,
                      high_fraction)
    sweeps = sweep_systems(
        machine, configs, workload, loads, scale.num_requests, seed=seed,
    )
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=["load_krps"] + [c.name for c in configs],
    )
    for i, load in enumerate(loads):
        row = [load / 1e3]
        for config in configs:
            row.append(sweeps[config.name][i].p999)
        result.add_row(*row)

    for config in configs:
        knee = knee_load(sweeps[config.name], slo)
        result.summary["knee_krps[{}]".format(config.name)] = knee / 1e3

    if baseline and contender:
        base_knee = knee_load(sweeps[baseline], slo)
        cont_knee = knee_load(sweeps[contender], slo)
        if base_knee > 0:
            result.summary["{}_vs_{}_improvement_pct".format(
                contender, baseline
            )] = 100.0 * (cont_knee / base_knee - 1.0)
    return result
