"""Subprocess driver for kill-then-resume differential tests.

``tests/test_resilience.py`` launches this script as a real OS process,
kills it mid-sweep (SIGINT via ``--interrupt-after-stores``, SIGKILL from
outside or from inside a cache write via ``--kill-during-store``), and
re-launches it against the same ``--cache-dir``.  The resumed run must
produce a digest bit-identical to an uninterrupted run of the same sweep
— that is the whole point of storing results as they land, and it can
only be demonstrated across genuine process deaths, not monkeypatches.

Exit codes: 0 on a completed sweep (digest written to ``--digest-out``),
130 when the sweep was interrupted (settled results cached, resume
possible).
"""

import argparse
import hashlib
import json
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.presets import concord, shinjuku  # noqa: E402
from repro.faults import ResilienceConfig, crash_plan  # noqa: E402
from repro.hardware import c6420  # noqa: E402
from repro.parallel import (  # noqa: E402
    FaultJob,
    ParallelRunner,
    ResultCache,
    SimJob,
    SweepInterrupted,
    stable_describe,
)
from repro.workloads.named import bimodal_50_1_50_100  # noqa: E402


@dataclass(frozen=True)
class CrashJob:
    """Wraps another job; the first process to run it leaves a marker
    file and dies with ``os._exit`` (no cleanup, no exception — exactly
    what a segfault or OOM kill looks like to the pool).  Once the
    marker exists it behaves as the wrapped job, so retries and resumed
    runs produce the wrapped job's exact result."""

    inner: object
    marker: str

    def run(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as f:
                f.write(str(os.getpid()))
            os._exit(3)
        return self.inner.run()


def sim_jobs(num_requests):
    machine = c6420(2)
    workload = bimodal_50_1_50_100()
    return [
        SimJob(machine=machine, config=config, workload=workload,
               load_rps=load, num_requests=num_requests, seed=7)
        for config in (shinjuku(5.0), concord(5.0))
        for load in (1.0e5, 1.8e5, 2.6e5)
    ]


def fault_jobs(num_requests):
    machine = c6420(2)
    workload = bimodal_50_1_50_100()
    load = 0.6 * 2 * 2 * 1e6 / workload.mean_us()
    plan = crash_plan(2000.0, down_us=1500.0, server=1)
    return [
        FaultJob(machine=machine, config=concord(5.0), num_servers=2,
                 policy="jsq", workload=workload, load_rps=load,
                 num_requests=num_requests, seed=7,
                 fault_plan=fault_plan, resilience=resilience)
        for fault_plan, resilience in (
            (None, None),
            (plan, None),
            (plan, ResilienceConfig.retry_only()),
        )
    ]


def digest_results(results):
    material = json.dumps(
        [stable_describe(r) for r in results],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--mode", choices=("sim", "faults"), default="sim")
    parser.add_argument("--digest-out", required=True)
    parser.add_argument("--requests", type=int, default=1200)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--job-timeout", type=float, default=None)
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument(
        "--interrupt-after-stores", type=int, default=None,
        help="send SIGINT to this process once the cache has stored "
             "this many new results",
    )
    parser.add_argument(
        "--kill-during-store", type=int, default=None,
        help="SIGKILL this process from inside cache write N+1, after "
             "half of its pickle has reached disk",
    )
    parser.add_argument("--crash-at", type=int, default=None,
                        help="replace job N with a CrashJob")
    parser.add_argument("--crash-marker", default=None)
    parser.add_argument(
        "--traced", action="store_true",
        help="run the sweep under an ambient full-trace session (forces "
             "--jobs 1 so probes attach in-process); tracing must not "
             "change the digest",
    )
    args = parser.parse_args(argv)
    if args.traced:
        args.jobs = 1

    jobs = (sim_jobs if args.mode == "sim" else fault_jobs)(args.requests)
    if args.crash_at is not None:
        if not args.crash_marker:
            parser.error("--crash-at requires --crash-marker")
        jobs[args.crash_at] = CrashJob(
            inner=jobs[args.crash_at], marker=args.crash_marker
        )

    cache = ResultCache(args.cache_dir)
    runner = ParallelRunner(
        jobs=args.jobs, cache=cache,
        job_timeout=args.job_timeout, max_retries=args.max_retries,
    )

    if args.interrupt_after_stores is not None:
        def fire_when_ready():
            while cache.stores < args.interrupt_after_stores:
                time.sleep(0.002)
            os.kill(os.getpid(), signal.SIGINT)

        threading.Thread(target=fire_when_ready, daemon=True).start()

    if args.kill_during_store is not None:
        real_dump = pickle.dump

        def torn_dump(value, f, protocol=None):
            if cache.stores < args.kill_during_store:
                return real_dump(value, f, protocol=protocol)
            blob = pickle.dumps(value, protocol=protocol)
            f.write(blob[:len(blob) // 2])
            f.flush()
            os.fsync(f.fileno())
            os.kill(os.getpid(), signal.SIGKILL)

        pickle.dump = torn_dump

    try:
        if args.traced:
            from repro.obs import TraceConfig, tracing

            with tracing(TraceConfig()):
                results = runner.map(jobs)
        else:
            results = runner.map(jobs)
    except SweepInterrupted as exc:
        print("INTERRUPTED stores={} stored={}".format(
            cache.stores, exc.stored))
        return 130
    finally:
        runner.close()

    digest = digest_results(results)
    Path(args.digest_out).write_text(json.dumps({
        "digest": digest,
        "results": len(results),
        "cache_hits": runner.stats["cache_hits"],
        "jobs_run": runner.stats["jobs_run"],
        "retries": runner.stats["retries"],
        "quarantined": runner.stats["quarantined"],
        "footer": runner.summary_line(),
    }))
    print("OK digest={}".format(digest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
