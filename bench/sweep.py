"""The harness workload: paper figures through ``run_experiment``, a
``ParallelRunner`` pool and a ``ResultCache``, all public entry points.

Importing this module imports ``repro``: ``run.py`` imports it lazily so
the set-up probe can time that import.
"""

import hashlib
import shutil
import tempfile
import time

from repro.experiments.registry import run_experiment
from repro.parallel import ParallelRunner, ResultCache

#: The paper-figure sweep, cheapest experiment first so that ``--scale``
#: below 1 keeps a short prefix of it.  Three figures (60 jobs) exercise
#: every harness path; a short pass lets one run time five or so cold
#: passes, and their median is what steadies this workload on a shared
#: host.
SWEEP_EXPERIMENTS = ("ext-safety", "fig5", "fig7")
SWEEP_JOBS = 2


class TimedCache(ResultCache):
    """A :class:`ResultCache` that times its own key, get and put calls and
    tallies the requests behind every stored (that is, simulated) job."""

    def __init__(self, cache_dir):
        super().__init__(cache_dir)
        self.key_s = self.get_s = self.put_s = 0.0
        self.keyed = 0
        self.stored_requests = 0
        self._requests = {}

    def key_for(self, job):
        started = time.perf_counter()
        key = super().key_for(job)
        self.key_s += time.perf_counter() - started
        self.keyed += 1
        if key is not None:
            self._requests[key] = job.num_requests
        return key

    def get(self, key):
        started = time.perf_counter()
        try:
            return super().get(key)
        finally:
            self.get_s += time.perf_counter() - started

    def put(self, key, value):
        started = time.perf_counter()
        try:
            stored = super().put(key, value)
        finally:
            self.put_s += time.perf_counter() - started
        if stored:
            self.stored_requests += self._requests.get(key, 0)
        return stored

    def tally(self):
        return (self.key_s, self.get_s, self.put_s, self.keyed, self.hits,
                self.stores, self.stored_requests)


class SweepPass:
    """What one pass over the sweep's experiments did."""

    def __init__(self, wall, cache_delta, quarantined, digest, error):
        self.wall = wall
        (self.key_s, self.get_s, self.put_s, self.jobs, self.hits,
         self.stores, self.requests) = cache_delta
        self.quarantined = quarantined
        self.digest = digest
        self.error = error


class SweepBench:
    """The paper-figure sweep through a two-worker pool and a result cache
    in a fresh directory under ``tmp_root``.  The first pass simulates
    every job and writes the cache; later passes read it back."""

    def __init__(self, seed, scale, tmp_root):
        count = max(1, round(len(SWEEP_EXPERIMENTS) * min(1.0, scale)))
        self.experiments = SWEEP_EXPERIMENTS[:count]
        self.seed = seed
        self.tmp_root = tmp_root
        self.cache_dir = None
        self.cache = None
        self.runner = ParallelRunner(jobs=SWEEP_JOBS)
        self.new_cache()

    def new_cache(self):
        """Point the runner at a fresh, empty cache; the pool stays warm."""
        self.drop_cache()
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp_root)
        self.cache = TimedCache(self.cache_dir)
        self.runner.cache = self.cache

    def drop_cache(self):
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def job_seconds(self):
        series = self.runner.telemetry.series.get("runner.job_seconds")
        return [v for _i, v in series.samples] if series is not None else []

    def run_pass(self):
        """Run every experiment once; the digest over the rendered results
        is taken after the clock stops."""
        before = self.cache.tally()
        quarantined = len(self.runner.quarantined)
        results = []
        error = None
        started = time.perf_counter()
        try:
            for experiment in self.experiments:
                results += run_experiment(experiment, quality="smoke",
                                          seed=self.seed, runner=self.runner)
        except Exception as exc:  # a failed pass is counted, not fatal
            error = "{}: {}".format(type(exc).__name__, exc)
        wall = time.perf_counter() - started
        h = hashlib.sha256()
        for result in results:
            h.update(result.render().encode())
        delta = tuple(a - b for a, b in zip(self.cache.tally(), before))
        return SweepPass(wall, delta,
                         len(self.runner.quarantined) - quarantined,
                         h.hexdigest(), error)

    def close(self):
        try:
            self.runner.close()
        finally:
            self.drop_cache()
