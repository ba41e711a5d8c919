"""Command-line entry point: ``concord-repro``.

    concord-repro list
    concord-repro run fig6 --quality standard --seed 1
    concord-repro run all --quality full --out results/

Each experiment prints the rows/series its paper figure plots, plus the
headline summary (SLO knees, improvement percentages).
"""

import argparse
import os
import sys
import time

from repro.experiments import tracecmd
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.workloads.named import NAMED_WORKLOADS

__all__ = ["main"]


_SYSTEM_FACTORIES = {
    "persephone": lambda q: _presets().persephone_fcfs(),
    "shinjuku": lambda q: _presets().shinjuku(q),
    "concord": lambda q: _presets().concord(q),
    "concord-no-steal": lambda q: _presets().concord_no_steal(q),
    "coop-sq": lambda q: _presets().coop_single_queue(q),
    "coop-jbsq": lambda q: _presets().coop_jbsq(q),
}


def _presets():
    from repro.core import presets

    return presets


def _system_list(text):
    """``--systems`` parser: comma-separated names, each a known system."""
    names = [name.strip() for name in text.split(",")]
    unknown = [name for name in names if name not in _SYSTEM_FACTORIES]
    if unknown:
        raise argparse.ArgumentTypeError(
            "unknown system(s) {}; known: {}".format(
                ", ".join(map(repr, unknown)), ", ".join(_SYSTEM_FACTORIES)
            )
        )
    return names


def _policy_name(text):
    """``--policy`` parser: a name ``make_cluster_policy`` accepts."""
    from repro.cluster import make_cluster_policy

    try:
        make_cluster_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _policy_list(text):
    """``--policies`` parser: comma-separated policy names."""
    return [_policy_name(name.strip()) for name in text.split(",")]


def _add_parallel_args(parser):
    """--jobs / cache flags shared by the simulation-heavy subcommands."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent simulations (default: "
             "$REPRO_JOBS or 1; 0 means one per core)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro); an interrupted sweep resumes from it when "
             "re-run",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always re-simulate; do not read or write the result cache "
             "(an interrupted sweep then cannot resume)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job watchdog: a job running longer is killed, retried, "
             "and eventually quarantined (default: no timeout)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries before a crashing or hanging job is quarantined "
             "(default: 2)",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="concord-repro",
        description="Reproduce the tables and figures of the Concord paper "
                    "(SOSP '23) on the discrete-event simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all"],
        metavar="experiment", help="experiment id (see 'list') or 'all'",
    )
    run_parser.add_argument(
        "--quality", default="standard",
        choices=["smoke", "standard", "full"],
        help="run size preset (default: standard)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=1, help="master RNG seed (default: 1)"
    )
    run_parser.add_argument(
        "--out", default=None,
        help="directory to also write per-experiment .txt reports into",
    )
    run_parser.add_argument(
        "--plot", action="store_true",
        help="render each multi-column result as an ASCII chart too",
    )
    _add_parallel_args(run_parser)
    tracecmd.add_trace_args(run_parser)

    compare_parser = sub.add_parser(
        "compare",
        help="run two runtimes head-to-head on one workload and load",
    )
    compare_parser.add_argument(
        "--workload", default="bimodal-995-05-500", choices=NAMED_WORKLOADS,
        help="named workload (default: bimodal-995-05-500)",
    )
    compare_parser.add_argument(
        "--load-krps", type=float, default=None,
        help="offered load in kRps (default: 60%% of nominal capacity)",
    )
    compare_parser.add_argument(
        "--quantum-us", type=float, default=5.0, help="scheduling quantum"
    )
    compare_parser.add_argument(
        "--requests", type=int, default=15_000, help="arrivals to simulate"
    )
    compare_parser.add_argument(
        "--workers", type=int, default=14, help="worker threads"
    )
    compare_parser.add_argument("--seed", type=int, default=1)
    compare_parser.add_argument(
        "--systems", default="shinjuku,concord", type=_system_list,
        help="comma-separated: {}".format(", ".join(_SYSTEM_FACTORIES)),
    )
    _add_parallel_args(compare_parser)
    tracecmd.add_trace_args(compare_parser)

    rack_parser = sub.add_parser(
        "rack",
        help="run one simulated rack and compare inter-server policies",
    )
    rack_parser.add_argument(
        "--servers", type=int, default=4, help="servers behind the balancer"
    )
    rack_parser.add_argument(
        "--workers", type=int, default=4, help="worker threads per server"
    )
    rack_parser.add_argument(
        "--system", default="concord", choices=_SYSTEM_FACTORIES,
        help="intra-server mechanism (default: concord)",
    )
    rack_parser.add_argument(
        "--policies", default="random,rr,jsq,po2,sed", type=_policy_list,
        help="comma-separated inter-server policies",
    )
    rack_parser.add_argument(
        "--workload", default="bimodal-50-1-50-100", choices=NAMED_WORKLOADS,
        help="named workload (default: bimodal-50-1-50-100)",
    )
    rack_parser.add_argument(
        "--load-frac", type=float, default=0.75,
        help="offered load as a fraction of nominal rack capacity",
    )
    rack_parser.add_argument(
        "--requests", type=int, default=8_000, help="arrivals to simulate"
    )
    rack_parser.add_argument(
        "--quantum-us", type=float, default=5.0, help="scheduling quantum"
    )
    rack_parser.add_argument(
        "--staleness-us", type=float, default=0.0,
        help="extra telemetry report delay (stale-signal knob)",
    )
    rack_parser.add_argument("--seed", type=int, default=1)
    _add_parallel_args(rack_parser)
    tracecmd.add_trace_args(rack_parser)

    faults_parser = sub.add_parser(
        "faults",
        help="run a fault-injection scenario against one rack and compare "
             "resilience mechanisms",
    )
    faults_parser.add_argument(
        "--scenario", default="crash",
        choices=["crash", "crash-requeue", "blackout", "stall", "degrade"],
        help="what breaks (default: crash)",
    )
    faults_parser.add_argument(
        "--servers", type=int, default=4, help="servers behind the balancer"
    )
    faults_parser.add_argument(
        "--workers", type=int, default=4, help="worker threads per server"
    )
    faults_parser.add_argument(
        "--system", default="concord", choices=_SYSTEM_FACTORIES,
        help="intra-server mechanism (default: concord)",
    )
    faults_parser.add_argument(
        "--policy", default="jsq", type=_policy_name,
        help="inter-server routing policy",
    )
    faults_parser.add_argument(
        "--workload", default="bimodal-50-1-50-100", choices=NAMED_WORKLOADS,
        help="named workload (default: bimodal-50-1-50-100)",
    )
    faults_parser.add_argument(
        "--load-frac", type=float, default=0.75,
        help="offered load as a fraction of nominal rack capacity",
    )
    faults_parser.add_argument(
        "--requests", type=int, default=8_000, help="arrivals to simulate"
    )
    faults_parser.add_argument(
        "--quantum-us", type=float, default=5.0, help="scheduling quantum"
    )
    faults_parser.add_argument(
        "--fault-at-frac", type=float, default=0.25,
        help="fault onset as a fraction of the run's arrival span",
    )
    faults_parser.add_argument(
        "--fault-duration-frac", type=float, default=0.3,
        help="fault duration as a fraction of the run's arrival span",
    )
    faults_parser.add_argument(
        "--fault-server", type=int, default=0,
        help="target server index for crash/stall scenarios",
    )
    faults_parser.add_argument("--seed", type=int, default=1)
    _add_parallel_args(faults_parser)
    tracecmd.add_trace_args(faults_parser)
    return parser


def _build_runner(args, stream=None):
    """A ParallelRunner from the shared --jobs / cache flags.  Tracing
    forces a serial, uncached runner: pooled or cached simulations never
    touch this process's trace session."""
    from repro.parallel import ParallelRunner, ResultCache

    if tracecmd.tracing_requested(args):
        if stream is not None and (args.jobs not in (None, 1) or
                                   not args.no_cache):
            print(
                "  [trace: running serially with the cache disabled so "
                "every event is observed]",
                file=stream,
            )
        return ParallelRunner(jobs=1, cache=None)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    try:
        return ParallelRunner(
            jobs=args.jobs, cache=cache,
            job_timeout=args.job_timeout, max_retries=args.max_retries,
        )
    except ValueError as exc:  # e.g. REPRO_JOBS=garbage in the environment
        print("concord-repro: error: {}".format(exc), file=sys.stderr)
        raise SystemExit(2) from None


def _run_compare(args, stream):
    from repro.hardware import c6420
    from repro.metrics import format_table
    from repro.parallel import ServerJob
    from repro.workloads import workload_by_name

    runner = _build_runner(args, stream)
    workload = workload_by_name(args.workload)
    machine = c6420(args.workers)
    load = (
        args.load_krps * 1e3
        if args.load_krps is not None
        else 0.6 * machine.num_workers * 1e6 / workload.mean_us()
    )
    jobs = [
        ServerJob(
            machine=machine, config=_SYSTEM_FACTORIES[name](args.quantum_us),
            workload=workload, load_rps=load, num_requests=args.requests,
            seed=args.seed,
        )
        for name in args.systems
    ]
    rows = []
    with tracecmd.maybe_traced(args, stream, default_out="compare-trace.json"):
        outcomes = runner.map(jobs)
    for outcome in outcomes:
        rows.append([
            outcome["name"], outcome["p50"], outcome["p99"],
            outcome["p999"],
            "yes" if outcome["meets_slo"] else "NO",
            round(outcome["dispatcher_utilization"], 3),
            outcome["steal_completions"],
        ])
    print(format_table(
        ["system", "p50", "p99", "p99.9", "SLO met", "disp util", "stolen"],
        rows,
        title="{} at {:.0f} kRps, quantum {:g}us, {} workers".format(
            workload.name, load / 1e3, args.quantum_us, args.workers),
    ), file=stream)
    if runner.stats["jobs_run"] or runner.stats["cache_hits"]:
        print("  " + runner.summary_line(), file=stream)
    return 0


def _run_rack(args, stream):
    from repro.cluster import NetworkFabric
    from repro.hardware import c6420
    from repro.metrics import format_table
    from repro.parallel import RackJob
    from repro.workloads import workload_by_name

    runner = _build_runner(args, stream)
    workload = workload_by_name(args.workload)
    machine = c6420(args.workers)
    rack_capacity = args.servers * args.workers * 1e6 / workload.mean_us()
    load = args.load_frac * rack_capacity
    fabric = NetworkFabric(telemetry_staleness_us=args.staleness_us)
    factory = _SYSTEM_FACTORIES[args.system]
    with tracecmd.maybe_traced(args, stream, default_out="rack-trace.json"):
        outcomes = runner.map([
            RackJob(
                machine=machine, config=factory(args.quantum_us),
                num_servers=args.servers, policy=policy, workload=workload,
                load_rps=load, num_requests=args.requests, seed=args.seed,
                fabric=fabric,
            )
            for policy in args.policies
        ])
    rows = []
    for policy, outcome in zip(args.policies, outcomes):
        rows.append([
            policy, outcome["p50"], outcome["p99"], outcome["p999"],
            round(outcome["imbalance"], 3),
            "yes" if outcome["drained"] else "NO",
        ])
    print(format_table(
        ["policy", "p50", "p99", "p99.9", "imbalance", "drained"],
        rows,
        title="{} x{} rack, {} at {:.0f} kRps ({:.0%} of capacity), "
              "staleness {:g}us".format(
                  args.system, args.servers, workload.name, load / 1e3,
                  args.load_frac, args.staleness_us),
    ), file=stream)
    if runner.stats["jobs_run"] or runner.stats["cache_hits"]:
        print("  " + runner.summary_line(), file=stream)
    return 0


def _fault_plan_for(args, span_us):
    """Build the scenario's FaultPlan from the shared timing flags."""
    from repro.faults import (
        FabricDegradation, FaultPlan, ServerCrash, TelemetryBlackout,
        WorkerStall,
    )

    at = args.fault_at_frac * span_us
    duration = args.fault_duration_frac * span_us
    if args.scenario in ("crash", "crash-requeue"):
        fault = ServerCrash(
            at_us=at, down_us=duration, server=args.fault_server,
            requeue_inflight=args.scenario == "crash-requeue",
        )
    elif args.scenario == "blackout":
        fault = TelemetryBlackout(at_us=at, duration_us=duration)
    elif args.scenario == "stall":
        fault = WorkerStall(
            at_us=at, duration_us=duration, server=args.fault_server,
        )
    else:
        fault = FabricDegradation(at_us=at, duration_us=duration,
                                  multiplier=8.0)
    return FaultPlan(faults=(fault,), name=args.scenario)


def _run_faults(args, stream):
    from repro.faults import ResilienceConfig
    from repro.hardware import c6420
    from repro.metrics import format_table
    from repro.parallel import FaultJob
    from repro.workloads import workload_by_name

    runner = _build_runner(args, stream)
    workload = workload_by_name(args.workload)
    machine = c6420(args.workers)
    rack_capacity = args.servers * args.workers * 1e6 / workload.mean_us()
    load = args.load_frac * rack_capacity
    span_us = args.requests / load * 1e6
    factory = _SYSTEM_FACTORIES[args.system]
    plan = _fault_plan_for(args, span_us)
    rows_spec = [
        ("fault-free", None, None),
        ("faulted", plan, None),
        ("faulted+retry", plan, ResilienceConfig.retry_only()),
        ("faulted+hedge", plan, ResilienceConfig.hedged()),
    ]
    with tracecmd.maybe_traced(args, stream, default_out="faults-trace.json"):
        outcomes = runner.map([
            FaultJob(
                machine=machine, config=factory(args.quantum_us),
                num_servers=args.servers, policy=args.policy,
                workload=workload, load_rps=load,
                num_requests=args.requests, seed=args.seed,
                fault_plan=fault_plan, resilience=resilience,
            )
            for _label, fault_plan, resilience in rows_spec
        ])
    rows = []
    for (label, _plan, _res), outcome in zip(rows_spec, outcomes):
        mttr = outcome["mttr_us"]
        rows.append([
            label, outcome["p50"], outcome["p99"], outcome["p999"],
            round(outcome["goodput"], 4),
            round(outcome["slo_goodput"], 4),
            round(mttr, 1) if mttr == mttr else "-",
            outcome["lost"], outcome["retries"], outcome["hedges"],
            outcome["shed"],
        ])
    print(format_table(
        ["mode", "p50", "p99", "p99.9", "goodput", "slo_goodput", "mttr_us",
         "lost", "retries", "hedges", "shed"],
        rows,
        title="{} scenario: {} x{} rack [{}], {} at {:.0f} kRps "
              "({:.0%} of capacity)".format(
                  args.scenario, args.system, args.servers, args.policy,
                  workload.name, load / 1e3, args.load_frac),
    ), file=stream)
    if runner.stats["jobs_run"] or runner.stats["cache_hits"]:
        print("  " + runner.summary_line(), file=stream)
    return 0


def _run_one(experiment_id, quality, seed, out_dir, stream, plot=False,
             runner=None):
    started = time.time()  # repro-san: ignore[DET001] -- times the run for the progress footer only; never enters results
    results = run_experiment(
        experiment_id, quality=quality, seed=seed, runner=runner
    )
    elapsed = time.time() - started  # repro-san: ignore[DET001] -- times the run for the progress footer only; never enters results
    chunks = [result.render() for result in results]
    if plot:
        from repro.experiments.plotting import result_chart

        for result in results:
            chart = result_chart(result)
            if chart:
                chunks.append(chart)
    text = "\n\n".join(chunks)
    print(text, file=stream)
    print("  [{} finished in {:.1f}s]".format(experiment_id, elapsed),
          file=stream)
    print("", file=stream)
    if out_dir:
        path = os.path.join(out_dir, "{}.txt".format(experiment_id))
        with open(path, "w") as f:
            f.write(text + "\n")
    return results


def main(argv=None, stream=None):
    from repro.parallel import SweepInterrupted

    stream = stream or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args, stream)
    except SweepInterrupted as exc:
        # Every settled job is already cached; tell the user how to pick
        # the sweep back up without losing them.
        print(
            "concord-repro: interrupted; completed results are cached in "
            "{} ({} from the batch in progress); re-run the same command "
            "to resume".format(exc.cache_dir, exc.stored),
            file=sys.stderr,
        )
        return 130


def _dispatch(args, stream):
    if args.command == "list":
        width = max(len(eid) for eid in EXPERIMENTS)
        for eid in sorted(EXPERIMENTS):
            print(
                "{}  {}".format(eid.ljust(width), EXPERIMENTS[eid].description),
                file=stream,
            )
        return 0

    if args.command == "compare":
        return _run_compare(args, stream)

    if args.command == "rack":
        return _run_rack(args, stream)

    if args.command == "faults":
        return _run_faults(args, stream)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    runner = _build_runner(args, stream)
    with tracecmd.maybe_traced(args, stream):
        if args.experiment == "all":
            for eid in sorted(EXPERIMENTS):
                _run_one(eid, args.quality, args.seed, args.out, stream,
                         plot=args.plot, runner=runner)
        else:
            _run_one(args.experiment, args.quality, args.seed, args.out,
                     stream, plot=args.plot, runner=runner)
    if runner.cache is not None and (runner.cache.hits or runner.cache.stores):
        print(
            "  [cache: {} hits, {} new entries in {}]".format(
                runner.cache.hits, runner.cache.stores,
                runner.cache.cache_dir,
            ),
            file=stream,
        )
    if runner.stats["jobs_run"] or runner.stats["cache_hits"]:
        print("  " + runner.summary_line(), file=stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
