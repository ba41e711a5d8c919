#!/usr/bin/env python3
"""The simulator's benchmark: fixed workloads, checked outputs, and every
metric printed by name with its unit.

Run from the repository root:

    python3 bench/run.py                          # all workloads, seed 1
    python3 bench/run.py --only usr-concord --seed 2
    python3 bench/run.py --only rack-po2,sweep-smoke --trace --out r.json

A run measures each workload for ``run_seconds`` of ``BENCHMARK.json``.
``--trace 0`` (the default) measures the end-to-end metrics untraced;
``--trace 1`` adds one rep under cProfile and reports the per-layer ledger
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
ones ``BENCHMARK.json`` declares for the mode.  Exit status: 0 when every
output matched, 1 when any rep or job failed, 2 when the source tree or
the arguments are unusable.  See bench/README.md.
"""

import argparse
import cProfile
import gc
import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(SRC))

# ``layers`` needs only the standard library.  ``workloads`` and ``sweep``
# import repro, so they are imported where used: the set-up probe times it.
import layers  # noqa: E402

SWEEP = "sweep-smoke"
#: Reps of a simulated workload, and sweep cycles, at least; more while
#: the run's time lasts.  A run with ``--scale`` other than 1 is a test of
#: the benchmark and takes only these.
MIN_REPS = 3
MIN_CYCLES = 3
#: Warm (cache-read) passes after each cold sweep pass.  A pass takes about
#: 10 ms, so ten per cycle cost little and steady ``warm_rerun_s``.
WARM_PASSES = 10
#: Fresh interpreters timed for ``setup_s``, this many before each of the
#: first reps (or cycles).  The host has slow stretches lasting seconds;
#: spreading the probes over the run keeps one stretch from deciding the
#: median.
PROBES_PER_REP = 3
SETUP_PROBES = PROBES_PER_REP * MIN_REPS
CALIB_LOOPS = 3
#: Seconds a child process may take to measure one workload when several
#: run; far above a run's length, so only a hung workload reaches it.
CHILD_TIMEOUT = 900


def median(values):
    return statistics.median(values) if values else float("nan")


def calibrate():
    """``bench.calib_s``: a fixed pure-Python loop, the run's noise
    reference (median of a few timings)."""
    samples = []
    for _ in range(CALIB_LOOPS):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - started)
    return median(samples)


def pinned_digest(name, seed, scale):
    """The digest pinned for this workload and seed, or None when this run
    can only check its reps against each other."""
    if scale != 1.0:
        return None
    with open(EXPECTED) as f:
        return json.load(f).get(name, {}).get(str(seed))


def report_failures(name, failures):
    """Print each distinct failure once, with how often it happened."""
    for reason in sorted(set(failures)):
        print("{}: {} x failed: {}".format(name, failures.count(reason), reason),
              file=sys.stderr)


def reap_children():
    """Wait for every child process (the sweep's pool) to end."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()


# -- set-up time ----------------------------------------------------------------


def probe_setup(name, seed, scale):
    """Time imports plus construction up to the timed entry point, in this
    fresh interpreter, and print the seconds."""
    started = time.perf_counter()
    if name == SWEEP:
        import sweep

        target = sweep.SweepBench(seed, scale, str(OUT))
    else:
        import workloads

        target = workloads.WORKLOADS[name].prepare(seed, scale)
    seconds = time.perf_counter() - started
    target.close()
    print(repr(seconds))


def setup_sample(name, seed, scale):
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--only", name, "--seed", str(seed), "--scale", repr(scale)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- simulated workloads --------------------------------------------------------


def sim_rep(workload, seed, scale, profiler=None):
    """Build, run (timed) and check one rep.  Returns ``(wall, digest,
    failure, counts)``; a rep that raised has no wall, digest or counts."""
    gc.collect()
    try:
        rep = workload.prepare(seed, scale)
    except Exception as exc:
        return None, None, "{}: {}".format(type(exc).__name__, exc), None
    try:
        started = time.perf_counter()
        if profiler is None:
            rep.run()
        else:
            profiler.runcall(rep.run)
        wall = time.perf_counter() - started
        return wall, rep.digest(), rep.failure(), rep.counts()
    except Exception as exc:
        return None, None, "{}: {}".format(type(exc).__name__, exc), None
    finally:
        rep.close()


def more(done, minimum, started, seconds, last):
    """Whether to measure again: until ``minimum`` are done, then while one
    more (taking as long as the last) still fits in ``seconds``."""
    return done < minimum or time.perf_counter() - started + last <= seconds


def measure_sim(name, seed, scale, seconds, trace, between):
    import workloads

    workload = workloads.WORKLOADS[name]
    reps = []
    started = time.perf_counter()
    last = 0.0
    while more(len(reps), MIN_REPS, started, seconds, last):
        began = time.perf_counter()
        between()
        reps.append(sim_rep(workload, seed, scale))
        last = time.perf_counter() - began
    walls = [wall for wall, *_ in reps if wall is not None]
    profiled = None
    if trace:
        profiler = cProfile.Profile()
        rep = sim_rep(workload, seed, scale, profiler)
        profiler.create_stats()
        reps.append(rep)
        if rep[0] is not None:
            profiled = (rep[0], profiler.stats)

    pinned = pinned_digest(name, seed, scale)
    digests = [digest for _w, digest, _f, _c in reps if digest is not None]
    observed = digests[0] if digests else None
    reference = pinned or observed
    failures = [
        failure or "digest {} != {}".format(digest, reference)
        for _wall, digest, failure, _counts in reps
        if failure is not None or digest != reference
    ]
    report_failures(name, failures)
    failed = len(failures)
    num_requests = workloads.scaled(workload.num_requests, scale)
    metrics = {}
    counts = next((c for *_r, c in reversed(reps) if c is not None), None)
    if walls:
        rep_s = median(walls)
        metrics["sim_req_per_s"] = (num_requests / rep_s, "req/s")
        if counts is not None:
            metrics["sim.ev_per_s"] = (counts["sim.events"] / rep_s, "1/s")
    if counts is not None:
        metrics.update((key, (counts[key], unit))
                       for key, unit in workloads.COUNT_UNITS.items())
    metrics.update(harness_metrics(None))
    return {
        "attempted": len(reps),
        "failed": failed,
        "digest": observed,
        "pinned": pinned,
        "metrics": metrics,
        # Profiled call counts repeat exactly too; the sweep's do not (its
        # parent polls the pool for as long as the jobs take).
        "exact": sorted(counts or ()) + (
            [layer + ".calls" for layer in layers.LAYERS] if profiled else []),
        "samples": {"rep_s": walls},
        "rep_s": median(walls),
        "profiled": profiled,
    }


# -- the sweep ------------------------------------------------------------------


def harness_metrics(cycles):
    """``parallel.*`` metrics of the sweep's cycles; 0 for the simulated
    workloads, which never run the harness."""
    names = {
        "parallel.job_s_p50": "s", "parallel.job_s_p90": "s",
        "parallel.key_s": "s", "parallel.cache_get_s": "s",
        "parallel.cache_put_s": "s", "parallel.pool_overhead_s": "s",
        "parallel.cache_hits": "count", "parallel.cache_stores": "count",
    }
    if cycles is None:
        return {name: (0, unit) for name, unit in names.items()}
    import sweep

    job_s = [s for _cold, _warm, seconds in cycles for s in seconds]
    warm = [p for _cold, passes, _s in cycles for p in passes]
    values = {
        "parallel.job_s_p50": median(job_s),
        "parallel.job_s_p90": (statistics.quantiles(job_s, n=10)[8]
                               if len(job_s) > 1 else median(job_s)),
        "parallel.key_s": median([p.key_s for p in warm]),
        "parallel.cache_get_s": median([p.get_s for p in warm]),
        "parallel.cache_put_s": median([cold.put_s for cold, _w, _s in cycles]),
        "parallel.pool_overhead_s": median([
            cold.wall - sum(seconds) / sweep.SWEEP_JOBS
            for cold, _w, seconds in cycles]),
        "parallel.cache_hits": warm[0].hits,
        "parallel.cache_stores": cycles[0][0].stores,
    }
    return {name: (values[name], unit) for name, unit in names.items()}


def sweep_cycle(bench):
    """One cold pass, which simulates and writes the cache, then the warm
    passes, which read it back."""
    cold = bench.run_pass()
    job_s = bench.job_seconds()
    return cold, [bench.run_pass() for _ in range(WARM_PASSES)], job_s


def measure_sweep(seed, scale, seconds, trace, between):
    import sweep
    import workloads

    cycles = []
    bench = None
    try:
        started = time.perf_counter()
        last = 0.0
        while more(len(cycles), MIN_CYCLES, started, seconds, last):
            began = time.perf_counter()
            # A fresh runner per cycle: every cold pass starts its own pool,
            # as a fresh sweep command does.
            if bench is not None:
                bench.close()
                reap_children()
            between()
            bench = sweep.SweepBench(seed, scale, str(OUT))
            cycles.append(sweep_cycle(bench))
            last = time.perf_counter() - began
        passes = [p for cold, warm, _s in cycles for p in [cold] + warm]
        profiled = None
        if trace:
            # Keep the last cycle's pool, so no worker forks under the
            # profiler: only this process is profiled; worker compute
            # comes from the runner's job timings.
            bench.new_cache()
            profiler = cProfile.Profile()
            began = time.perf_counter()
            cold, warm, _s = profiler.runcall(sweep_cycle, bench)
            wall = time.perf_counter() - began
            profiler.create_stats()
            passes += [cold] + warm
            profiled = (wall, profiler.stats)
    finally:
        if bench is not None:
            bench.close()
        reap_children()

    pinned = pinned_digest(SWEEP, seed, scale)
    observed = passes[0].digest
    reference = pinned or observed
    attempted = failed = 0
    failures = []
    for p in passes:
        attempted += p.jobs
        bad = p.error is not None or p.digest != reference
        failed += p.jobs if bad else p.quarantined
        if bad or p.quarantined:
            failures.append(p.error or "{} quarantined, digest {} != {}".format(
                p.quarantined, p.digest, reference))
    report_failures(SWEEP, failures)
    colds = [cold for cold, _w, _s in cycles]
    warm_s = [p.wall for _c, warm, _s in cycles for p in warm]
    metrics = {
        "sim_req_per_s": (median([c.requests / c.wall for c in colds]), "req/s"),
        "warm_rerun_s": (median(warm_s), "s"),
    }
    metrics.update(harness_metrics(cycles))
    # The sweep's results carry no simulator counters.
    metrics.update((key, (0, unit))
                   for key, unit in workloads.COUNT_UNITS.items())
    metrics["sim.ev_per_s"] = (0, "1/s")
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": observed,
        "pinned": pinned,
        "metrics": metrics,
        "exact": ["parallel.cache_hits", "parallel.cache_stores"],
        "samples": {"cold_s": [c.wall for c in colds], "warm_s": warm_s,
                    "job_s": [s for _c, _w, js in cycles for s in js]},
        # The profiled rep is one cycle (with a warm pool).
        "rep_s": median([c.wall + sum(p.wall for p in w) for c, w, _s in cycles]),
        "profiled": profiled,
    }


# -- one workload ---------------------------------------------------------------


def ledger(name, profiled, untraced_s):
    """Per-layer metrics from the profiled rep; writes the top functions
    per layer to ``bench/out/trace-<workload>.json``."""
    import repro

    wall, stats = profiled
    root = str(Path(repro.__file__).resolve().parent)
    self_s, calls, top = layers.attribute(stats, root)
    metrics = {}
    for layer in layers.LAYERS:
        metrics[layer + ".self_s"] = (self_s[layer], "s")
        metrics[layer + ".self_share"] = (self_s[layer] / wall, "fraction")
        metrics[layer + ".calls"] = (calls[layer], "count")
    metrics["bench.profiled_wall_s"] = (wall, "s")
    metrics["bench.attributed_frac"] = (sum(self_s.values()) / wall, "fraction")
    metrics["bench.trace_overhead"] = (wall / untraced_s, "x")
    with open(OUT / "trace-{}.json".format(name), "w") as f:
        json.dump({"workload": name, "profiled_wall_s": wall,
                   "layers": {layer: {"self_s": self_s[layer],
                                      "calls": calls[layer]}
                              for layer in layers.LAYERS},
                   "top": layers.top_functions(top)}, f, indent=1)
    return metrics


def run_workload(name, seed, scale, seconds, trace):
    """Measure one workload in this process; returns its result record."""
    setup = []

    def between():
        # Set-up probes run between reps, so they sample the same stretch
        # of host time as the reps do.
        for _ in range(PROBES_PER_REP):
            if not trace and len(setup) < SETUP_PROBES:
                setup.append(setup_sample(name, seed, scale))

    calib = calibrate()
    if name == SWEEP:
        measured = measure_sweep(seed, scale, seconds, trace, between)
    else:
        measured = measure_sim(name, seed, scale, seconds, trace, between)
    while not trace and len(setup) < SETUP_PROBES:
        between()
    metrics = measured["metrics"]
    metrics["bench.calib_s"] = (calib, "s")
    if setup:
        metrics["setup_s"] = (median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    metrics["fail_frac"] = (
        measured["failed"] / max(1, measured["attempted"]), "fraction")
    if measured["profiled"] is not None:
        metrics.update(ledger(name, measured["profiled"], measured["rep_s"]))
    samples = measured["samples"]
    samples["setup_s"] = setup
    return {
        "workload": name, "seed": seed, "scale": scale, "seconds": seconds,
        "trace": trace, "attempted": measured["attempted"],
        "failed": measured["failed"], "digest": measured["digest"],
        "pinned": measured["pinned"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "exact": {k: metrics[k][0] for k in measured["exact"]},
        "samples": samples,
    }


def run_children(names, args):
    """Measure each workload in a child process of its own, so peak RSS is
    the workload's; returns the records of those that finished."""
    records = []
    for name in names:
        part = OUT / "part-{}-{}.json".format(name, os.getpid())
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--only", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scale", repr(args.scale), "--out", str(part)]
        # The child leads a process group of its own, with its sweep pool.
        child = subprocess.Popen(cmd, start_new_session=True)
        try:
            child.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            print("{}: no result within {} s".format(name, CHILD_TIMEOUT),
                  file=sys.stderr)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        try:
            if part.exists():  # a child that crashed or hung leaves none
                with open(part) as f:
                    records.extend(json.load(f)["runs"])
        finally:
            if part.exists():
                part.unlink()
    return records


def print_record(record):
    pin = record["pinned"]
    print("== {} (seed {}, trace {}): {} attempted, {} failed, digest {} ({})".format(
        record["workload"], record["seed"], record["trace"],
        record["attempted"], record["failed"], record["digest"],
        "not pinned" if pin is None else
        "matches the pin" if pin == record["digest"] else "pinned " + pin))
    for key in sorted(record["metrics"]):
        metric = record["metrics"][key]
        print("  {:40s} {:>18.6g} {}".format(key, metric["value"], metric["unit"]))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator on fixed workloads.")
    # BENCHMARK.json's command is called with --workload and --seconds; the
    # CLI also takes --only.
    parser.add_argument("--only", "--workload", dest="workload", default=None,
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per workload (default: "
                             "BENCHMARK.json run_seconds; 0 with --scale)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also profile one rep and report the "
                             "per-layer ledger")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count multiplier, for tests only")
    parser.add_argument("--out", help="write the full result records here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("bench: no package source at {}".format(SRC), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        probe_setup(args.workload, args.seed, args.scale)
        return 0
    with open(SPEC) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload.split(",") if args.workload else known
    unknown = [n for n in names if n not in known]
    if unknown or args.scale <= 0:
        parser.error("unknown workload {} (known: {})".format(
            ",".join(unknown), ",".join(known)) if unknown
            else "--scale must be positive")
    if args.scale != 1.0:
        args.seconds = 0.0
    elif args.seconds is None:
        args.seconds = spec["run_seconds"]

    if len(names) == 1:
        records = [run_workload(names[0], args.seed, args.scale, args.seconds,
                                args.trace)]
    else:
        records = run_children(names, args)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": records}, f, indent=1)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    complete = len(records) == len(names)
    for record in records:
        if len(records) == 1:
            print_record(record)
        prefix = "" if len(records) == 1 else record["workload"] + ":"
        for metric in declared:
            measured = record["metrics"].get(metric["name"])
            if measured is None or not math.isfinite(measured["value"]):
                print("{}: no value for {}".format(
                    record["workload"], metric["name"]), file=sys.stderr)
                complete = False
                continue
            metrics[prefix + metric["name"]] = measured
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
