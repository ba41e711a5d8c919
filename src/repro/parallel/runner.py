"""Process-pool execution of independent simulation jobs, supervised.

The figures are embarrassingly parallel: every (config, load point) cell is
an independent simulation seeded purely by its own spec.  The runner fans
cells out across a process pool and reassembles results in submission
order, so parallel sweeps are **bit-identical** to serial ones (the per-job
RNG derivation never touches process-global state).

Every pool task is exactly one job, so supervision always knows which job
it is acting on — a sweep is treated as a production workload, not a
best-effort script:

* Jobs are dispatched as independent futures; completed jobs are **kept**
  even when another job's worker dies, so one bad job can no longer
  discard an hour of finished results.
* ``job_timeout`` arms a per-job watchdog: a job that hangs past it is
  terminated (the pool is recycled), retried up to ``max_retries`` times,
  then **quarantined** — its result slot holds a :class:`Quarantined`
  record naming the culprit, and every other job still completes.
* A worker that crashes hard (``os._exit``, segfault) breaks the pool.
  While several jobs are in flight any of them may be the culprit, so
  none is charged: the unfinished jobs of that ``map()`` are re-dispatched
  one future at a time, and a crash then charges the one job that was
  alone in flight — retried, and quarantined if it keeps killing workers.
* The :class:`~repro.parallel.cache.ResultCache` stores every completed
  job as it lands, so it is also the resume store: SIGINT/SIGTERM during
  a cached ``map()`` stops between jobs and raises
  :class:`SweepInterrupted`; re-running the sweep against the same cache
  picks up where it stopped.

Besides the pool there is one in-process loop over the unfinished slots.
It serves ``jobs=1`` (the default), a single pending job, a batch that
cannot be pickled, and a pool that fails to start (restricted
environments) — in which case it runs only what the pool left
unfinished.  Falling back to it warns once per runner (one
:class:`RuntimeWarning`, so a sweep that quietly lost its parallelism is
visible without flooding the log); results stay bit-identical.

``REPRO_JOBS`` sets the default worker count for any runner created
without an explicit ``jobs=``; the CLI's ``--jobs`` overrides it.
"""

import os
import pickle
import signal
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.obs.registry import TelemetryRegistry
from repro.parallel.jobs import execute_job

__all__ = [
    "ParallelRunner",
    "Quarantined",
    "SweepInterrupted",
    "resolve_jobs",
    "get_default_runner",
    "set_default_runner",
    "using_runner",
]

_MISSING = object()

#: Seconds between supervision sweeps of the in-flight future set (also
#: the interrupt-flag latency).
_POLL_SECONDS = 0.05


def resolve_jobs(jobs=None):
    """Normalize a worker count: ``None`` consults ``$REPRO_JOBS`` (default
    1); 0 or negative means "all cores"."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        if env.lower() == "auto":
            return _cpu_count()
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                "REPRO_JOBS must be an integer or 'auto', got {!r}".format(env)
            ) from None
    if jobs <= 0:
        return _cpu_count()
    return int(jobs)


def _cpu_count():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def _clip(text, limit=200):
    """Cap embedded free text (exception reprs, job reprs) so one huge
    message cannot flood a warning or the telemetry footer."""
    text = str(text)
    if len(text) <= limit:
        return text
    return text[: limit - 3] + "..."


@dataclass(frozen=True)
class Quarantined:
    """The result slot of a job the supervisor gave up on: it hung past
    the watchdog or kept killing workers through every allowed retry.
    Holds the culprit spec so the footer (and the caller) can name it."""

    job: Any
    reason: str
    attempts: int

    def describe(self):
        return "{} after {} attempt(s): {}".format(
            _clip(repr(self.job), 120), self.attempts, self.reason
        )


class SweepInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM during a cached ``map()``: every job that settled
    is already in the cache (``stored`` of them by this ``map()``) —
    resume by re-running the sweep against ``cache_dir``."""

    def __init__(self, cache_dir, stored):
        self.cache_dir = cache_dir
        self.stored = stored
        super().__init__(
            "sweep interrupted; {} result(s) stored in {}".format(
                stored, cache_dir
            )
        )


def _run_timed(job):
    """Execute one job and return ``(status, payload, wall_seconds)``:
    ``("ok", value, s)`` or ``("err", exception, s)``.

    Module-level so pool workers can unpickle it.  A raising job comes
    back as data, not as a poisoned task, so the supervisor can tell a
    job's own error from the infrastructure failing around it; an
    exception that cannot be pickled is replaced by a ``RuntimeError``
    naming it.  The measured wall time feeds the runner's telemetry
    registry only and never enters results.
    """
    started = time.perf_counter()  # repro-san: ignore[DET001] -- wall-clock job timing for the runner telemetry footer only; never enters results
    try:
        row = ("ok", execute_job(job))
    except Exception as exc:
        try:
            pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            wrapped = RuntimeError(
                _clip("{}: {}".format(type(exc).__name__, exc))
            )
            wrapped.__cause__ = exc
            exc = wrapped
        row = ("err", exc)
    seconds = time.perf_counter() - started  # repro-san: ignore[DET001] -- wall-clock job timing for the runner telemetry footer only; never enters results
    return row + (seconds,)


def _warm_worker():
    """Pool initializer: pre-import the heavy simulation modules so the
    first job a worker receives doesn't pay import cost.  A no-op under
    the fork start method (the child inherits the parent's modules) but
    decisive under spawn.

    A worker forked inside a cached ``map()`` inherits the parent's
    stop-between-jobs signal handlers.  SIGTERM gets its default back so
    that :meth:`ParallelRunner.close` can terminate the worker; SIGINT
    keeps the inherited handler, so a terminal ^C reaches the parent as
    one clean interrupt instead of a KeyboardInterrupt inside each job."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    import repro.cluster.rack  # noqa: F401
    import repro.core.server  # noqa: F401
    import repro.workloads.named  # noqa: F401


def _pickle_culprit(job):
    """Name the unpicklable thing in ``job``, as precisely as we can:
    for a dataclass job, probe each field individually so the warning
    reads ``SimJob.arrival_factory`` instead of an opaque lambda repr."""
    import dataclasses

    name = type(job).__name__
    if dataclasses.is_dataclass(job):
        for field in dataclasses.fields(job):
            try:
                pickle.dumps(
                    getattr(job, field.name),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception:
                return "{}.{}".format(name, field.name)
    return name


class ParallelRunner:
    """Maps job specs to results, in order, with optional parallelism,
    caching, and per-job supervision.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` reads ``$REPRO_JOBS`` (default 1);
        ``<= 0`` means one per core.  1 executes in-process.
    cache:
        Optional :class:`~repro.parallel.cache.ResultCache`.  Jobs whose
        stable content hash is already stored are not re-simulated, and
        each result is stored as its job settles; SIGINT/SIGTERM during
        ``map()`` then raises :class:`SweepInterrupted` between jobs.
    job_timeout:
        Watchdog seconds per job (pooled execution only — an in-process
        job cannot be preempted).  ``None`` disables the watchdog.
    max_retries:
        How many times a hung or worker-killing job is re-dispatched
        before it is quarantined.
    """

    def __init__(self, jobs=None, cache=None, job_timeout=None,
                 max_retries=2):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(
                "job_timeout must be positive seconds or None, got "
                "{!r}".format(job_timeout)
            )
        self.job_timeout = job_timeout
        if max_retries < 0:
            raise ValueError(
                "max_retries must be >= 0, got {!r}".format(max_retries)
            )
        self.max_retries = int(max_retries)
        #: ``retries`` counts re-dispatches of jobs left unfinished by a
        #: crash, a timeout or a failed pool task.
        self.stats = {
            "jobs_run": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "retries": 0,
            "timeouts": 0,
            "quarantined": 0,
        }
        #: Quarantined records, in the order the supervisor gave up.
        self.quarantined = []
        #: Per-job wall times land here; the sweep CLI prints
        #: :meth:`summary_line` from it.
        self.telemetry = TelemetryRegistry()
        self._warned_fallback = False
        #: Persistent worker pool of ``jobs`` workers, started on the
        #: first pooled batch and reused until :meth:`close` — forking per
        #: batch is what made the original runner slower than serial on
        #: small sweeps.
        self._pool = None
        #: Wall seconds spent supervising pooled dispatch, and the
        #: in-worker compute seconds of the jobs the pool settled — the
        #: footer's speedup estimate.
        self._parallel_wall = 0.0
        self._parallel_compute = 0.0
        #: Set by the signal handler installed around cached maps.
        self._interrupted = False
        #: ``cache.stores`` when the current supervised map began.
        self._stores_before = 0

    # -- the public API -----------------------------------------------------

    def map(self, jobs):
        """Execute every job; returns results in input order.

        A slot holds a :class:`Quarantined` record instead of a result
        when supervision gave up on that job (see class docstring)."""
        jobs = list(jobs)
        results = [_MISSING] * len(jobs)
        keys = [None] * len(jobs)
        cache = self.cache
        if cache is not None:
            for i, job in enumerate(jobs):
                keys[i] = cache.key_for(job)
                if keys[i] is not None:
                    hit, value = cache.get(keys[i])
                    if hit:
                        results[i] = value
        pending = sum(1 for r in results if r is _MISSING)
        if cache is not None:
            self.stats["cache_hits"] += len(jobs) - pending
            self.stats["cache_misses"] += pending
        if pending:
            def settle(i, value, seconds):
                # Called the moment a job settles — cache it immediately
                # so nothing completed can be lost later.
                results[i] = value
                if isinstance(value, Quarantined):
                    return
                self.stats["jobs_run"] += 1
                self.telemetry.sample("runner.job_seconds", i, seconds)
                if cache is not None and keys[i] is not None:
                    cache.put(keys[i], value)

            with self._supervised():
                self._execute(jobs, results, settle)
        return results

    def run(self, job):
        """Execute a single job (cache-aware)."""
        return self.map([job])[0]

    # -- interrupt supervision ----------------------------------------------

    @contextmanager
    def _supervised(self):
        """Install SIGINT/SIGTERM handlers around a cached map so an
        interrupt stops between jobs, with every settled result already
        stored.  A second signal aborts immediately."""
        if self.cache is None or (
            threading.current_thread() is not threading.main_thread()
        ):
            yield
            return
        self._interrupted = False
        self._stores_before = self.cache.stores
        previous = {}

        def handler(signum, frame):
            if self._interrupted:
                raise KeyboardInterrupt
            self._interrupted = True

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # non-main interpreter quirks
                pass
        try:
            yield
        finally:
            for sig, prev in previous.items():
                signal.signal(sig, prev)

    def _check_interrupt(self):
        if not self._interrupted:
            return
        self.close()
        raise SweepInterrupted(
            str(self.cache.cache_dir), self.cache.stores - self._stores_before
        )

    # -- execution -----------------------------------------------------------

    def _execute(self, jobs, results, settle):
        """Fill every unfinished slot of ``results``: through the pool
        when it can help, then in-process for whatever is still
        unfinished.  ``settle(index, value, seconds)`` fires as each job
        settles."""
        pending = [jobs[i] for i, r in enumerate(results) if r is _MISSING]
        if len(pending) > 1 and self.jobs > 1 and self._picklable(pending):
            try:
                self._execute_pool(jobs, results, settle)
            except OSError as exc:
                # Pool creation can fail in sandboxed/restricted
                # environments; the results must not.  Whatever already
                # finished is kept — only the remainder runs in-process.
                unfinished = sum(1 for r in results if r is _MISSING)
                self._note_fallback(
                    "process pool unavailable ({}); running {} unfinished "
                    "job(s) in-process".format(_clip(str(exc)), unfinished)
                )
        for i, r in enumerate(results):
            if r is _MISSING:
                self._check_interrupt()
                status, payload, seconds = _run_timed(jobs[i])
                if status == "err":
                    raise payload
                settle(i, payload, seconds)

    def _picklable(self, batch):
        """Lazily probe the batch: stop at the first unpicklable job and
        name its offending field, without ever pickling the batch twice."""
        for job in batch:
            try:
                pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                culprit = _pickle_culprit(job)
                detail = " (culprit: {})".format(culprit) if culprit else ""
                self._note_fallback(
                    "job batch is not picklable ({}){}; running {} job(s) "
                    "in-process".format(_clip(str(exc)), detail, len(batch))
                )
                return False
        return True

    def _note_fallback(self, reason):
        """Warn, once per runner, that a batch degraded to in-process
        execution — results stay bit-identical, only wall-clock suffers."""
        if not self._warned_fallback:
            self._warned_fallback = True
            warnings.warn(
                "ParallelRunner(jobs={}) fell back to serial execution: "
                "{}".format(self.jobs, reason),
                RuntimeWarning,
                stacklevel=5,
            )

    def _get_pool(self):
        """The persistent pool, started on first use and reused across
        batches (warm imports, no per-batch fork cost)."""
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context,
                initializer=_warm_worker,
            )
        return self._pool

    def _execute_pool(self, jobs, results, settle):
        """Supervised pool dispatch, one future per job, in rounds.

        A round submits the unfinished jobs and collects them as they
        finish, so a hung or crashing job never takes finished results
        with it.  A round that leaves jobs unfinished recycles the pool;
        each job charged with a timeout or a failed task is retried, and
        quarantined once charged more than ``max_retries`` times.  A
        worker crash charges nobody while several jobs are in flight;
        every later round then holds one job, so a repeat crash is
        charged to that job.  Raises ``OSError`` only when the pool
        itself cannot run — the caller then finishes the remainder
        in-process."""
        attempts = {}
        solo = False
        while True:
            pending = [i for i, r in enumerate(results) if r is _MISSING]
            if not pending:
                return
            batch = pending[:1] if solo else pending
            started = time.perf_counter()  # repro-san: ignore[DET001] -- wall-clock round timing for the runner footer only; never enters results
            errors, blamed, crashed, submit_error = self._round(
                jobs, batch, settle
            )
            self._parallel_wall += time.perf_counter() - started  # repro-san: ignore[DET001] -- wall-clock round timing for the runner footer only; never enters results
            unfinished = [i for i in batch if results[i] is _MISSING]
            if unfinished:
                self.close()
            # Errors raised *by a job* are deterministic: re-raise after
            # the whole round settled (and was cached).  Raising the
            # lowest job index keeps *which* error surfaces independent
            # of future-completion order.
            if errors:
                raise errors[min(errors)]
            if submit_error is not None:
                raise OSError(
                    "worker pool failed mid-batch: {}".format(
                        _clip(str(submit_error))
                    )
                ) from submit_error
            if crashed and solo:
                for i in unfinished:
                    blamed[i] = "worker process died (crash or kill)"
            solo = solo or crashed
            for i in sorted(blamed):
                attempts[i] = attempts.get(i, 0) + 1
                if attempts[i] > self.max_retries:
                    record = Quarantined(jobs[i], blamed[i], attempts[i])
                    self.quarantined.append(record)
                    self.stats["quarantined"] += 1
                    warnings.warn(
                        "quarantined {}".format(record.describe()),
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    settle(i, record, 0.0)
            self.stats["retries"] += sum(
                1 for i in unfinished if results[i] is _MISSING
            )

    def _round(self, jobs, batch, settle):
        """Submit one future per job in ``batch`` and drain them, settling
        each job as it lands.

        Returns ``(errors, blamed, crashed, submit_error)``: the exception
        each failing job raised, the reason charged to each job that timed
        out or whose task failed, whether a worker died, and the error
        that stopped submission, if any."""
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        errors, blamed = {}, {}
        crashed = False
        submit_error = None
        futures = {}
        pool = self._get_pool()
        try:
            for i in batch:
                futures[pool.submit(_run_timed, jobs[i])] = i
        except BrokenProcessPool:
            # A worker died before the batch was fully submitted.
            crashed = True
        except (OSError, RuntimeError) as exc:
            # Couldn't start/feed workers; collect what was already
            # submitted, then report the pool unusable.
            submit_error = exc
        #: fut -> monotonic lapse time, armed only once the task is
        #: observed *running*.  Arming at submit time would charge
        #: queue-wait against the job's own timeout: with more pending
        #: jobs than workers, queued-but-never-started jobs would lapse,
        #: be blamed as hung, and eventually be quarantined while
        #: perfectly healthy.
        deadlines = {}
        not_done = set(futures)
        while not_done:
            self._check_interrupt()
            if self.job_timeout is not None and not crashed:
                now = time.monotonic()  # repro-san: ignore[DET001] -- watchdog arming for supervision only; never enters results
                for fut in not_done:  # repro-san: ignore[DET003] -- supervision-only scan: arming order cannot reach results
                    if fut not in deadlines and fut.running():
                        deadlines[fut] = now + self.job_timeout
            done, not_done = wait(
                not_done, timeout=_POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            for fut in done:
                i = futures[fut]
                try:
                    status, payload, seconds = fut.result()
                except BrokenProcessPool:
                    # A worker died.  Any job in flight may have killed
                    # it, so none is charged.  Every remaining future
                    # resolves broken too; keep draining.
                    crashed = True
                except Exception as exc:
                    # A task-level failure (e.g. an unpicklable return
                    # value) leaves the pool alive and its other tasks
                    # running, so keep the watchdog armed meanwhile.
                    blamed[i] = "pool task failed: {}".format(
                        _clip(str(exc))
                    )
                else:
                    if status == "ok":
                        self._parallel_compute += seconds
                        settle(i, payload, seconds)
                    else:
                        errors[i] = payload
            if crashed:
                continue
            now = time.monotonic()  # repro-san: ignore[DET001] -- watchdog deadline check for supervision only; never enters results
            timed_out = [
                fut for fut in not_done  # repro-san: ignore[DET003] -- supervision-only scan: every lapsed future is blamed identically, so set order cannot reach results
                if fut in deadlines and now > deadlines[fut]
            ]
            if timed_out:
                # A hung worker cannot be interrupted individually; the
                # whole pool is recycled.  Blame only the jobs whose own
                # deadline lapsed — in-flight innocents just re-run.
                self.stats["timeouts"] += len(timed_out)
                for fut in timed_out:
                    blamed[futures[fut]] = (
                        "hung past the {:g}s watchdog".format(
                            self.job_timeout
                        )
                    )
                break
        return errors, blamed, crashed, submit_error

    def close(self):
        """Terminate the persistent worker pool (if any), killing hung
        workers.  The runner stays usable — the next pooled batch
        starts a fresh pool."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            # shutdown() never kills a stuck worker, and it drops the
            # process table; take it first — the watchdog needs them gone
            # before the retry round.
            procs = dict(getattr(pool, "_processes", None) or {})
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            for proc in procs.values():
                try:
                    proc.terminate()
                except Exception:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def parallel_speedup(self):
        """Measured speedup of pooled execution: the in-worker compute
        seconds of the jobs the pool settled over the wall seconds spent
        supervising it, or None when no pooled job has settled.  Jobs run
        in-process count in neither.  A value below 1.0 means the pool
        made the sweep *slower* — the regression the footer exists to
        surface."""
        if not self._parallel_wall or self._parallel_compute <= 0.0:
            return None
        return self._parallel_compute / self._parallel_wall

    def summary_line(self):
        """One-line telemetry footer for sweep CLIs: jobs run, cache
        hit/miss split, total and slowest per-job
        wall time, retry/quarantine counts (with culprits named), and —
        when a pool ran — parallel wall vs estimated serial cost, so a
        sweep that parallelized into a *slowdown* can never report
        quietly."""
        series = self.telemetry.series.get("runner.job_seconds")
        samples = series.samples if series is not None else []
        total = sum(v for _i, v in samples)
        slowest = max((v for _i, v in samples), default=0.0)
        cache_part = "no cache"
        if self.cache is not None:
            cache_part = "{} cache hits, {} misses".format(
                self.stats["cache_hits"], self.stats["cache_misses"]
            )
        parts = [
            "{} jobs simulated in {:.1f}s wall (slowest {:.1f}s)".format(
                self.stats["jobs_run"], total, slowest
            ),
            cache_part,
            "jobs={}".format(self.jobs),
        ]
        if self.stats["retries"]:
            parts.append("{} retries".format(self.stats["retries"]))
        speedup = self.parallel_speedup()
        if speedup is not None:
            parts.append(
                "parallel {:.1f}s vs {:.1f}s serial-est ({:.2f}x{})".format(
                    self._parallel_wall, self._parallel_compute, speedup,
                    "" if speedup >= 1.0 else " — SLOWER than serial",
                )
            )
        if self.quarantined:
            named = "; ".join(
                q.describe() for q in self.quarantined[:3]
            )
            if len(self.quarantined) > 3:
                named += "; ..."
            parts.append("QUARANTINED {}: {}".format(
                len(self.quarantined), named
            ))
        return "[runner: {}]".format(", ".join(parts))

    def __repr__(self):
        return "ParallelRunner(jobs={}, cache={!r})".format(
            self.jobs, self.cache
        )


# -- ambient default runner -------------------------------------------------
#
# Experiment entry points are plain ``run(quality, seed)`` functions; the
# default runner is how ``--jobs``/``--cache-dir`` reach every sweep they
# trigger without threading a parameter through 18 signatures.  Library
# callers can still pass an explicit ``runner=`` to any sweep API.

_default_runner = None


def get_default_runner():
    """The process-wide runner (created lazily; honors ``$REPRO_JOBS``)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ParallelRunner()
    return _default_runner


def set_default_runner(runner):
    """Install ``runner`` as the process-wide default (None resets)."""
    global _default_runner
    _default_runner = runner


@contextmanager
def using_runner(runner):
    """Temporarily install ``runner`` as the default."""
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    try:
        yield runner
    finally:
        _default_runner = previous
