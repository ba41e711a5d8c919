"""Parallel sweep execution: supervised process-pool fan-out of
independent simulation jobs with a content-addressed result cache that
doubles as the resume store.

Three layers:

* :mod:`repro.parallel.jobs` — picklable job specs, one per run shape
  (:class:`SimJob`, one server at one load; :class:`RackJob`, one rack,
  faulted or not), whose ``run()`` is a pure function of their fields;
* :mod:`repro.parallel.runner` — :class:`ParallelRunner`, which maps jobs
  across a supervised process pool, one job per pool task (or in-process
  when ``jobs=1``, a single job is pending, pickling fails or the pool
  cannot start), and returns results bit-identical to serial execution;
  hung and worker-killing jobs are retried and finally quarantined
  (:class:`Quarantined`) without disturbing the rest of the sweep;
* :mod:`repro.parallel.cache` — :class:`ResultCache`, keyed by a stable
  hash of (machine, config, workload, arrival process, seed, request
  count, code version), so re-running ``run all`` only re-simulates what
  changed; corrupt entries self-heal into counted misses.  Every result
  is stored the moment its job settles, so an interrupted sweep
  (:class:`SweepInterrupted`) resumes bit-identically by re-running it
  against the same cache; only jobs without a stable description re-run.

Experiments take no runner argument: they map their jobs on
:func:`get_default_runner`, which ``run_experiment(runner=...)`` swaps in
for one run through :func:`using_runner`.
"""

from repro.parallel.cache import (
    ResultCache,
    UncacheableValue,
    code_fingerprint,
    default_cache_dir,
    stable_describe,
)
from repro.parallel.jobs import RackJob, SimJob, execute_job
from repro.parallel.runner import (
    ParallelRunner,
    Quarantined,
    SweepInterrupted,
    get_default_runner,
    resolve_jobs,
    set_default_runner,
    using_runner,
)

__all__ = [
    "SimJob",
    "RackJob",
    "execute_job",
    "ParallelRunner",
    "Quarantined",
    "SweepInterrupted",
    "resolve_jobs",
    "get_default_runner",
    "set_default_runner",
    "using_runner",
    "ResultCache",
    "UncacheableValue",
    "stable_describe",
    "code_fingerprint",
    "default_cache_dir",
]
