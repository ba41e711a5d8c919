"""Extension: degradation and recovery under deterministic fault injection.

The scheduling papers this repo reproduces (Concord, RackSched, Rain) all
assume a healthy rack; this experiment measures what their conclusions are
worth when the rack misbehaves, using :mod:`repro.faults`:

* **Part 1 — telemetry blackout degradation curves.**  A blackout freezes
  the balancer's queue view mid-run; a queue-aware policy (JSQ) herds
  onto whichever server looked shortest at freeze time and the rack-wide
  tail explodes even though *no request is ever lost*.  We sweep blackout
  intensity (fraction of the run blacked out) and plot p99.9 slowdown and
  SLO-goodput (fraction of requests completing within the slowdown SLO).

* **Part 2 — crash-and-recover: resilience mechanisms.**
  One server crashes mid-run and recovers later.  Without resilience its
  in-flight and newly-routed requests are simply lost; with the failure
  detector + timeout/retry (optionally + hedging) the balancer blacklists
  the suspect, re-launches timed-out requests elsewhere, and goodput is
  restored.  Rows report completion-goodput, MTTR (crash onset to first
  post-recovery reply), and the retry/hedge/failure counters — the
  recovery-timeline view per mechanism.

Both parts route with JSQ, the rack's queue-aware baseline.  The rack's
servers are identical, where RackSched's shortest-expected-delay would
rank servers exactly as JSQ does, so the rack has no separate SED policy.

Acceptance (ROADMAP): the no-resilience crash run visibly loses goodput,
and detector+retry restores >= 90% of the fault-free goodput.
"""

from repro.core import concord
from repro.experiments.common import ExperimentResult, scale_for
from repro.faults import (
    FaultPlan, ResilienceConfig, ServerCrash, TelemetryBlackout,
)
from repro.hardware import c6420
from repro.parallel import RackJob, get_default_runner
from repro.workloads.named import bimodal_50_1_50_100

QUANTUM_US = 5.0
WORKERS_PER_SERVER = 4
LOAD_FRACTION = 0.8
#: Fraction of the run's span blacked out (Part 1 intensity grid).
BLACKOUT_INTENSITIES = [0.0, 0.1, 0.25, 0.5]
BLACKOUT_POLICIES = ["jsq"]
CRASH_POLICIES = ["jsq"]

#: Rack width per quality preset (mirrors ext-cluster).
RACK_SIZES = {"smoke": 2, "standard": 4, "full": 6}


def _resilience_modes():
    """(label, ResilienceConfig-or-None) rows for Part 2."""
    return [
        ("none", None),
        ("retry", ResilienceConfig.retry_only()),
        ("retry+hedge", ResilienceConfig.hedged(hedge_delay_us=800.0)),
    ]


def _span_us(num_requests, load_rps):
    """Expected arrival span of the run, for placing fault windows."""
    return num_requests / load_rps * 1e6


def run(quality="standard", seed=1):
    runner = get_default_runner()
    scale = scale_for(quality)
    num_servers = RACK_SIZES.get(quality, 4)
    machine = c6420(WORKERS_PER_SERVER)
    workload = bimodal_50_1_50_100()
    rack_capacity = (
        num_servers * machine.num_workers * 1e6 / workload.mean_us()
    )
    load = LOAD_FRACTION * rack_capacity
    n = scale.num_requests
    span_us = _span_us(n, load)
    results = []

    def fault_job(policy, plan=None, resilience=None):
        return RackJob(
            machine=machine, config=concord(QUANTUM_US),
            num_servers=num_servers, policy=policy, workload=workload,
            load_rps=load, num_requests=n, seed=seed,
            fault_plan=plan, resilience=resilience,
        )

    # -- Part 1: blackout degradation curves ---------------------------------
    blackout = ExperimentResult(
        experiment_id="ext-faults-blackout",
        title="Telemetry blackout degradation: {} servers at {:.0%} load, "
              "Bimodal(50:1,50:100)".format(num_servers, LOAD_FRACTION),
        headers=["intensity", "policy", "p999", "p999_slowdown_vs_clean",
                 "slo_goodput", "reports_dropped"],
    )
    cells = [
        (intensity, policy)
        for intensity in BLACKOUT_INTENSITIES
        for policy in BLACKOUT_POLICIES
    ]

    def blackout_plan_for(intensity):
        if intensity <= 0:
            return None
        # Freeze early, while the warmup transient still has the per-server
        # queues uneven: the frozen argmin then herds traffic instead of
        # degenerating into (harmless) uniform tie-breaking.
        start = 0.05 * span_us
        return FaultPlan(
            faults=(TelemetryBlackout(
                at_us=start, duration_us=intensity * span_us,
            ),),
            name="blackout-{:g}".format(intensity),
        )

    outcomes = runner.map([
        fault_job(policy, plan=blackout_plan_for(intensity))
        for intensity, policy in cells
    ])
    by_cell = dict(zip(cells, outcomes))
    for intensity, policy in cells:
        outcome = by_cell[(intensity, policy)]
        clean = by_cell[(0.0, policy)]
        blackout.add_row(
            intensity, policy, round(outcome["p999"], 2),
            round(outcome["p999"] / clean["p999"], 2),
            round(outcome["slo_goodput"], 4), outcome["reports_dropped"],
        )
    worst = BLACKOUT_INTENSITIES[-1]
    for policy in BLACKOUT_POLICIES:
        blackout.summary[
            "{}_p999_slowdown_at_{:g}".format(policy, worst)
        ] = by_cell[(worst, policy)]["p999"] / by_cell[(0.0, policy)]["p999"]
        blackout.summary[
            "{}_slo_goodput_at_{:g}".format(policy, worst)
        ] = by_cell[(worst, policy)]["slo_goodput"]
    blackout.note(
        "no request is lost during a blackout — the damage is pure tail "
        "inflation from routing on a frozen queue view (board herding)"
    )
    results.append(blackout)

    # -- Part 2: crash-and-recover, resilience x policy ----------------------
    crash_at = 0.25 * span_us
    down_for = 0.3 * span_us
    crash_spec = ServerCrash(at_us=crash_at, down_us=down_for, server=1)
    plan = FaultPlan(faults=(crash_spec,), name="crash-recover")
    modes = _resilience_modes()

    recovery = ExperimentResult(
        experiment_id="ext-faults-crash",
        title="Crash-and-recover ({:.0f}us down) at {:.0%} load: goodput "
              "and MTTR per resilience mechanism".format(
                  down_for, LOAD_FRACTION),
        headers=["policy", "mechanism", "goodput", "slo_goodput", "p999",
                 "mttr_us", "lost", "retries", "hedges", "failed"],
    )
    crash_cells = [
        (policy, label, config)
        for policy in CRASH_POLICIES
        for label, config in modes
    ]
    baseline_jobs = [fault_job(policy) for policy in CRASH_POLICIES]
    crash_jobs = [
        fault_job(policy, plan=plan, resilience=config)
        for policy, label, config in crash_cells
    ]
    all_outcomes = runner.map(baseline_jobs + crash_jobs)
    clean_by_policy = dict(zip(CRASH_POLICIES, all_outcomes))
    crash_outcomes = all_outcomes[len(CRASH_POLICIES):]
    restored = {}
    for (policy, label, _config), outcome in zip(crash_cells, crash_outcomes):
        mttr = outcome["mttr_us"]
        recovery.add_row(
            policy, label, round(outcome["goodput"], 4),
            round(outcome["slo_goodput"], 4), round(outcome["p999"], 2),
            round(mttr, 1) if mttr == mttr else "-",
            outcome["lost"], outcome["retries"], outcome["hedges"],
            outcome["failed"],
        )
        restored[(policy, label)] = (
            outcome["goodput"] / clean_by_policy[policy]["goodput"]
        )
    for policy in CRASH_POLICIES:
        recovery.summary["{}_goodput_none".format(policy)] = restored[
            (policy, "none")
        ]
        recovery.summary["{}_goodput_retry".format(policy)] = restored[
            (policy, "retry")
        ]
    recovery.summary["retry_restores_90pct"] = all(
        restored[(policy, "retry")] >= 0.9 for policy in CRASH_POLICIES
    )
    recovery.note(
        "without resilience the crash's in-flight and blindly-routed "
        "requests are lost for the whole down window; the detector "
        "blacklists the suspect within its timeout and retries re-launch "
        "the stragglers elsewhere"
    )
    results.append(recovery)
    return results
