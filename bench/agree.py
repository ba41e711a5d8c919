#!/usr/bin/env python3
"""Check that two sets of benchmark runs agree within the benchmark's own
bounds.

    python3 bench/agree.py A B

``A`` and ``B`` are each a JSON file written by ``bench/run.py --out`` or a
directory of them.  For every end-to-end metric and workload this prints
each set's median and quartiles, the spread between the quartiles as a
share of the median, and B's change against A, next to the metric's bound
from ``BENCHMARK.json``.  A pair fails when B is worse than A by more than
the bound, or when either set's spread exceeds it.  ``setup_s`` is judged
by its median alone: a set-up sample is a few tens of milliseconds in a
fresh interpreter, so each one falls whole into a fast or a slow stretch
of the host, and the spread of its medians across runs measures the host,
not the benchmark.  Its spread is still printed; where it exceeds the
bound, a change in set-up time smaller than that spread is unresolved.
``fail_frac`` must be 0 in every run.  Every exact count and digest must
be identical between runs of the same workload, seed and mode.  It also
prints how far the ``bench.calib_s`` noise reference drifted.  Exit status
1 when anything fails.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def extra_metrics(spec):
    """End-to-end metrics that only some workloads report, so BENCHMARK.json
    (whose metrics every workload must report) cannot carry them.
    ``warm_rerun_s`` takes the bound of ``sim_req_per_s``: both are host
    times of the same runs."""
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "sim_req_per_s")
    return [{"name": "warm_rerun_s", "unit": "s", "better": "lower",
             "bound": bound}]


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file) as f:
            records.extend(json.load(f)["runs"])
    if not records:
        raise SystemExit("agree: no runs in {}".format(path))
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(records, workload, name):
    return [r["metrics"][name]["value"] for r in records
            if r["workload"] == workload and r["trace"] == 0
            and name in r["metrics"]]


def compare_metrics(a, b, metrics):
    """Print one row per (metric, workload); returns how many failed."""
    failures = 0
    workloads = sorted({r["workload"] for r in a} & {r["workload"] for r in b})
    print("{:18s} {:15s} {:>12s} {:>12s} {:>7s} {:>7s} {:>8s} {:>6s}  ok".format(
        "workload", "metric", "median A", "median B", "IQR% A", "IQR% B",
        "worse%", "bound%"))
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        for workload in workloads:
            va, vb = values_of(a, workload, name), values_of(b, workload, name)
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= bound and (
                name == "setup_s" or max(spread_a, spread_b) <= bound)
            failures += not ok
            print("{:18s} {:15s} {:12.6g} {:12.6g} {:7.2f} {:7.2f} {:8.2f} "
                  "{:6.1f}  {}".format(
                      workload, name, qa[1], qb[1], 100 * spread_a,
                      100 * spread_b, 100 * worse, 100 * bound,
                      "yes" if ok else "NO"))
    return failures


def compare_exact(a, b):
    """Runs of the same workload, seed and mode must read the same exact
    counts and digest, within and across the two sets."""
    groups = {}
    for label, records in (("A", a), ("B", b)):
        for r in records:
            key = (r["workload"], r["seed"], r["scale"], r["trace"])
            groups.setdefault(key, []).append(
                (label, dict(r["exact"], digest=r["digest"])))
    failures = identical = 0
    for key, runs in sorted(groups.items()):
        first_label, first = runs[0]
        for label, exact in runs[1:]:
            diff = sorted(k for k in set(first) | set(exact)
                          if first.get(k) != exact.get(k))
            if diff:
                failures += 1
                print("exact counts differ for {} ({} vs {}): {}".format(
                    key, first_label, label, ", ".join(diff)))
            else:
                identical += 1
    print("exact counts and digests: {} comparisons identical, {} differ".format(
        identical, failures))
    return failures


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    with open(SPEC) as f:
        spec = json.load(f)
    failures = compare_metrics(a, b, spec["end_to_end"] + extra_metrics(spec))
    for label, records in (("A", a), ("B", b)):
        bad = [r for r in records if r["metrics"]["fail_frac"]["value"] != 0]
        for r in bad:
            print("set {}: {} seed {} has fail_frac {}".format(
                label, r["workload"], r["seed"],
                r["metrics"]["fail_frac"]["value"]))
        failures += len(bad)
    failures += compare_exact(a, b)
    calib_a = statistics.median(r["metrics"]["bench.calib_s"]["value"] for r in a)
    calib_b = statistics.median(r["metrics"]["bench.calib_s"]["value"] for r in b)
    print("bench.calib_s drift: {:.6g} s -> {:.6g} s ({:+.2f}%)".format(
        calib_a, calib_b, 100 * (calib_b / calib_a - 1)))
    print("agree: {}".format("OK" if not failures else
                             "{} FAILED".format(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
