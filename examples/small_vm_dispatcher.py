#!/usr/bin/env python3
"""The work-conserving dispatcher on a small cloud VM (Fig. 13).

On a 16-core server, dedicating one core to dispatching costs ~6% of the
machine; on a 4-vCPU VM it costs 25% (section 2.2.3).  This example runs
the LevelDB 50/50 workload on the 4-core configuration with and without
dispatcher work stealing and sweeps load until each variant violates the
50x slowdown SLO.

Run:  python examples/small_vm_dispatcher.py
"""

from repro.core import concord, concord_no_steal
from repro.experiments import sweep_systems
from repro.hardware import cloud_vm_4core
from repro.kvstore import concord_lock_counter_safety
from repro.metrics import format_table, knee_load
from repro.workloads import leveldb_50get_50scan


def main():
    machine = cloud_vm_4core()
    workload = leveldb_50get_50scan()
    safety = concord_lock_counter_safety()
    max_load = 1.4 * machine.num_workers * 1e6 / workload.mean_us()
    loads = [max_load * f for f in (0.25, 0.5, 0.7, 0.85, 1.0)]

    configs = [
        concord_no_steal(5.0, safety=safety),
        concord(5.0, safety=safety),
    ]
    # {config name: [SweepPoint per load]}; REPRO_JOBS=N fans it out.
    sweeps = sweep_systems(machine, configs, workload, loads,
                           num_requests=6_000, seed=5)

    rows = []
    for i, load in enumerate(loads):
        rows.append(
            [load / 1e3]
            + [sweeps[c.name][i].p999 for c in configs]
            + [sweeps["Concord"][i].steals]
        )
    print(format_table(
        ["load_krps"] + [c.name for c in configs] + ["steals"],
        rows,
        title="p99.9 slowdown on the 4-core VM (2 workers)",
    ))
    for config in configs:
        knee = knee_load(sweeps[config.name])
        print("  {}: sustains {:.1f} kRps within the 50x SLO".format(
            config.name, knee / 1e3))
    base = knee_load(sweeps[configs[0].name])
    boosted = knee_load(sweeps[configs[1].name])
    if base > 0:
        print("  work conservation buys {:+.0f}% (paper: ~33%)".format(
            100 * (boosted / base - 1)))


if __name__ == "__main__":
    main()
