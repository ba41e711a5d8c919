"""Tests for the sweep-supervision layer: resume through the result
cache, per-job watchdogs and retries, quarantine, and the self-healing
result cache.

The load-bearing property throughout is the repo's usual one: resilience
must never change results.  A resumed sweep, a sweep that lost a worker,
a sweep whose cache was corrupted on disk — all must produce output
bit-identical to an undisturbed serial run, and the kill/resume variants
are exercised against *real* process deaths via ``tests/chaos_driver.py``
rather than monkeypatched stand-ins.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.presets import shinjuku
from repro.hardware import c6420
from repro.parallel import (
    ParallelRunner,
    Quarantined,
    ResultCache,
    SimJob,
)
from repro.workloads.named import bimodal_50_1_50_100

DRIVER = Path(__file__).resolve().parent / "chaos_driver.py"


def _sim_job(load=2e5, requests=200):
    return SimJob(machine=c6420(2), config=shinjuku(5.0),
                  workload=bimodal_50_1_50_100(), load_rps=load,
                  num_requests=requests, seed=1)


@dataclass(frozen=True)
class HangJob:
    """Sleeps far past any watchdog; simulates a livelocked simulation."""

    seconds: float = 30.0

    def run(self):
        time.sleep(self.seconds)
        return "hung job finished (watchdog failed)"


@dataclass(frozen=True)
class PidHangJob:
    """A :class:`HangJob` that first writes its worker's pid to a file."""

    pidfile: str

    def run(self):
        Path(self.pidfile).write_text(str(os.getpid()))
        time.sleep(30.0)
        return "hung job finished (watchdog failed)"


def _process_alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reap is dead."""
    try:
        with open("/proc/{}/stat".format(pid)) as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@dataclass(frozen=True)
class ErrorJob:
    """Raises; simulates a job whose parameters are invalid.  An
    optional delay lets a test make completion order disagree with
    submission order."""

    msg: str = "bad sweep parameters"
    delay: float = 0.0

    def run(self):
        if self.delay:
            time.sleep(self.delay)
        raise ValueError(self.msg)


@dataclass(frozen=True)
class QuickJob:
    token: int

    def run(self):
        return ("ok", self.token)


@dataclass(frozen=True)
class SlowJob:
    """Finishes well inside the watchdog — but queue-wait behind its
    batch-mates can exceed it when pending jobs outnumber workers."""

    token: int
    seconds: float = 0.2

    def run(self):
        time.sleep(self.seconds)
        return ("slow-ok", self.token)


@dataclass(frozen=True)
class AlwaysCrashJob:
    """Kills its worker outright on every run (``os._exit`` — what a
    segfault looks like to the pool).  Raises instead when it finds
    itself outside a pool worker, so it can never take pytest down."""

    def run(self):
        if multiprocessing.parent_process() is None:
            raise RuntimeError("AlwaysCrashJob ran outside a pool worker")
        os._exit(3)


@dataclass(frozen=True)
class BadReturnJob:
    """Returns an unpicklable value: the pool task fails with a plain
    PicklingError while the pool itself stays alive."""

    def run(self):
        return lambda: None


# -- self-healing result cache ------------------------------------------------


class TestCacheSelfHeal:
    def test_corrupt_entry_is_deleted_counted_and_warned_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _sim_job()
        key = cache.key_for(job)
        cache.put(key, {"p": 1})
        path = cache._path(key)
        path.write_bytes(b"\x80\x04 definitely not a pickle")

        with pytest.warns(RuntimeWarning, match="unreadable"):
            hit, value = cache.get(key)
        assert (hit, value) == (False, None)
        assert cache.corrupt == 1
        assert not path.exists()  # poison file removed

        # Second corruption: still a silent counted miss, no second warn.
        cache.put(key, {"p": 1})
        path.write_bytes(b"")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(key) == (False, None)
        assert cache.corrupt == 2

        # Healed: the next put/get cycle behaves normally.
        cache.put(key, {"p": 2})
        assert cache.get(key) == (True, {"p": 2})

    def test_transient_io_failure_is_a_miss_not_a_deletion(self, tmp_path):
        """Only corruption-shaped read failures self-heal by deleting;
        a transient OSError (EIO, permissions, an NFS hiccup — here an
        IsADirectoryError) is a plain miss that must leave a possibly-
        valid entry untouched."""
        cache = ResultCache(tmp_path)
        key = cache.key_for(_sim_job())
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.mkdir()  # open(path, "rb") now raises an OSError subclass
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no corruption warning either
            assert cache.get(key) == (False, None)
        assert cache.misses == 1
        assert cache.corrupt == 0
        assert path.exists()  # never deleted on a transient failure

    def test_sweep_survives_corrupted_cache(self, tmp_path):
        job = _sim_job(requests=150)
        cache = ResultCache(tmp_path)
        first = ParallelRunner(jobs=1, cache=cache).map([job])
        key = cache.key_for(job)
        cache._path(key).write_bytes(b"garbage")
        cache2 = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            second = ParallelRunner(jobs=1, cache=cache2).map([job])
        assert second == first
        assert cache2.corrupt == 1


# -- watchdog, retries, quarantine -------------------------------------------


class TestWatchdogAndQuarantine:
    def test_hung_job_is_quarantined_while_others_complete(self):
        runner = ParallelRunner(jobs=2, job_timeout=0.4, max_retries=1)
        batch = [QuickJob(1), HangJob(), QuickJob(2), QuickJob(3)]
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = runner.map(batch)
        assert results[0] == ("ok", 1)
        assert results[2] == ("ok", 2)
        assert results[3] == ("ok", 3)
        quarantined = results[1]
        assert isinstance(quarantined, Quarantined)
        assert "watchdog" in quarantined.reason
        assert quarantined.attempts == 2  # first run + one retry
        assert runner.stats["timeouts"] >= 2
        assert runner.stats["quarantined"] == 1
        footer = runner.summary_line()
        assert "QUARANTINED 1" in footer
        assert "HangJob" in footer
        runner.close()

    def test_job_error_propagates_after_checkpointing_survivors(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=2, cache=cache)
        batch = [QuickJob(1), QuickJob(2), ErrorJob(), QuickJob(3)]
        with pytest.raises(ValueError, match="bad sweep parameters"):
            runner.map(batch)
        # Every job that finished before the error surfaced was cached.
        assert cache.stores == 3
        runner.close()

    def test_watchdog_kills_the_hung_worker(self, tmp_path):
        """Recycling the pool terminates the hung worker instead of
        leaving it running — also when the pool was forked inside a
        cached map(), under the runner's own signal handlers."""
        pidfile = tmp_path / "hung.pid"
        runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "c"),
                                job_timeout=0.4, max_retries=0)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            runner.map([QuickJob(1), PidHangJob(str(pidfile))])
        runner.close()
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 10
        while _process_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _process_alive(pid)

    def test_retry_counters_reach_the_footer(self):
        runner = ParallelRunner(jobs=2, job_timeout=0.4, max_retries=0)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            runner.map([QuickJob(1), HangJob()])
        footer = runner.summary_line()
        assert "jobs simulated" in footer  # base format intact
        assert "QUARANTINED" in footer
        runner.close()

    def test_queue_wait_does_not_count_against_the_watchdog(self):
        """The deadline arms when a task starts *running*, not when it
        is submitted: 30 healthy 0.2s jobs on 2 workers queue far past a
        2s timeout, and none may be blamed as hung (regression: submit-
        time deadlines quarantined healthy queued jobs)."""
        runner = ParallelRunner(jobs=2, job_timeout=2.0, max_retries=1)
        batch = [SlowJob(i) for i in range(30)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any quarantine warning fails
            results = runner.map(batch)
        assert results == [("slow-ok", i) for i in range(30)]
        assert runner.stats["timeouts"] == 0
        assert runner.stats["quarantined"] == 0
        assert runner.stats["retries"] == 0
        runner.close()

    def test_watchdog_stays_armed_after_pool_alive_task_failure(self):
        """A generic task failure (unpicklable return value) leaves the
        pool alive; a genuinely hung job in the same round must still
        trip the watchdog (regression: the broken flag disabled the
        deadline scan and the collect loop spun forever)."""
        runner = ParallelRunner(jobs=2, job_timeout=0.5, max_retries=0)
        batch = [BadReturnJob(), HangJob(), QuickJob(7)]
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = runner.map(batch)
        assert results[2] == ("ok", 7)
        assert isinstance(results[0], Quarantined)
        assert "pool task failed" in results[0].reason
        assert isinstance(results[1], Quarantined)
        assert "watchdog" in results[1].reason
        assert runner.stats["timeouts"] >= 1
        runner.close()

    def test_worker_crash_quarantines_only_the_crasher(self):
        """A job that kills its worker every time is the only one
        quarantined; the healthy jobs running or queued beside it when
        the pool broke all complete (regression: the broken pool charged
        every unfinished job, quarantining all ten)."""
        runner = ParallelRunner(jobs=2)
        batch = [SlowJob(0), AlwaysCrashJob()] + [
            SlowJob(i) for i in range(2, 10)
        ]
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = runner.map(batch)
        crashed = results[1]
        assert isinstance(crashed, Quarantined)
        assert "worker process died" in crashed.reason
        assert runner.quarantined == [crashed]
        assert results[:1] + results[2:] == [
            ("slow-ok", i) for i in range(10) if i != 1
        ]
        runner.close()

    def test_lowest_index_error_is_raised_regardless_of_finish_order(self):
        """When several jobs raise in one round, map() re-raises the
        lowest job index's error even when a later job's error lands
        first — error identity must be deterministic run to run."""
        runner = ParallelRunner(jobs=2)
        batch = [ErrorJob(msg="error-at-0", delay=0.3),
                 ErrorJob(msg="error-at-1")]
        with pytest.raises(ValueError, match="error-at-0"):
            runner.map(batch)
        runner.close()


# -- kill-then-resume differentials (real process deaths) ---------------------


def _drive(tmp_path, *extra, check=True, timeout=240):
    cmd = [sys.executable, str(DRIVER)] + [str(a) for a in extra]
    proc = subprocess.run(
        cmd, cwd=str(tmp_path), capture_output=True, text=True,
        timeout=timeout,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            "driver failed rc={}\nstdout: {}\nstderr: {}".format(
                proc.returncode, proc.stdout, proc.stderr)
        )
    return proc


def _digest(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def _cache_entries(cache_dir):
    return sorted(cache_dir.glob("*/*.pkl"))


class TestKillResumeDifferential:
    def test_sigint_resume_is_bit_identical_sim(self, tmp_path):
        ref = _drive(tmp_path, "--cache-dir", "ref-cache",
                     "--digest-out", "ref.json", "--requests", 600)
        assert "OK digest=" in ref.stdout

        killed = _drive(
            tmp_path, "--cache-dir", "run-cache", "--digest-out", "run.json",
            "--requests", 600, "--interrupt-after-stores", 2, check=False,
        )
        assert killed.returncode == 130, killed.stdout + killed.stderr
        assert "INTERRUPTED" in killed.stdout
        assert not (tmp_path / "run.json").exists()

        resumed = _drive(tmp_path, "--cache-dir", "run-cache",
                         "--digest-out", "run.json", "--requests", 600)
        assert "OK digest=" in resumed.stdout
        ref_d, run_d = _digest(tmp_path, "ref.json"), _digest(
            tmp_path, "run.json")
        assert run_d["digest"] == ref_d["digest"]
        assert run_d["cache_hits"] >= 2
        assert run_d["jobs_run"] < ref_d["jobs_run"]
        assert "{} cache hits".format(run_d["cache_hits"]) in run_d["footer"]

    def test_sigkill_resume_is_bit_identical_faults(self, tmp_path):
        """The cluster-with-faults sweep, run under a full ambient trace
        session, survives a hard SIGKILL: whatever reached the cache is
        served back, and the resumed (still traced) run's degradation
        rows are bit-identical to an undisturbed *untraced* run —
        supervision and tracing both leave results untouched."""
        _drive(tmp_path, "--mode", "faults", "--cache-dir", "ref-cache",
               "--digest-out", "ref.json", "--requests", 2500)

        proc = subprocess.Popen(
            [sys.executable, str(DRIVER), "--mode", "faults", "--traced",
             "--cache-dir", "run-cache", "--digest-out", "run.json",
             "--requests", "2500"],
            cwd=str(tmp_path), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        cache_dir = tmp_path / "run-cache"
        deadline = time.monotonic() + 120
        try:
            # Wait for at least one cached result, then kill -9.
            while time.monotonic() < deadline:
                if _cache_entries(cache_dir) or proc.poll() is not None:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("driver never cached a result")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        resumed = _drive(tmp_path, "--mode", "faults", "--traced",
                         "--cache-dir", "run-cache",
                         "--digest-out", "run.json", "--requests", 2500)
        assert "OK digest=" in resumed.stdout
        ref_d, run_d = _digest(tmp_path, "ref.json"), _digest(
            tmp_path, "run.json")
        assert run_d["digest"] == ref_d["digest"]

    def test_worker_crash_retried_bit_identical(self, tmp_path):
        """A worker that dies mid-job (os._exit — what a segfault looks
        like) is retried without disturbing finished results; the sweep's
        digest matches an undisturbed run exactly."""
        _drive(tmp_path, "--cache-dir", "ref-cache",
               "--digest-out", "ref.json", "--requests", 600)
        crashed = _drive(
            tmp_path, "--cache-dir", "run-cache", "--digest-out", "run.json",
            "--requests", 600, "--crash-at", 3,
            "--crash-marker", str(tmp_path / "crashed.marker"),
        )
        assert "OK digest=" in crashed.stdout
        assert (tmp_path / "crashed.marker").exists()
        ref_d, run_d = _digest(tmp_path, "ref.json"), _digest(
            tmp_path, "run.json")
        assert run_d["digest"] == ref_d["digest"]
        assert run_d["retries"] >= 1
        assert run_d["quarantined"] == 0


class TestCacheWriteKill:
    def test_sigkill_mid_put_leaves_no_partial_entry(self, tmp_path):
        """A SIGKILL with half a pickle on disk leaves only a stray temp
        file, never a readable partial ``<key>.pkl`` (tmp + rename), and
        a re-run simulates only the jobs whose results never landed."""
        _drive(tmp_path, "--cache-dir", "ref-cache",
               "--digest-out", "ref.json", "--requests", 600)
        killed = _drive(
            tmp_path, "--cache-dir", "run-cache", "--digest-out", "run.json",
            "--requests", 600, "--jobs", 1, "--kill-during-store", 2,
            check=False,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        cache_dir = tmp_path / "run-cache"
        entries = _cache_entries(cache_dir)
        assert len(entries) == 2
        for entry in entries:
            with open(entry, "rb") as f:
                pickle.load(f)
        assert list(cache_dir.glob("*/*.tmp"))  # the torn write

        resumed = _drive(tmp_path, "--cache-dir", "run-cache",
                         "--digest-out", "run.json", "--requests", 600,
                         "--jobs", 1)
        assert "OK digest=" in resumed.stdout
        ref_d, run_d = _digest(tmp_path, "ref.json"), _digest(
            tmp_path, "run.json")
        assert run_d["digest"] == ref_d["digest"]
        assert run_d["cache_hits"] == 2
        assert run_d["jobs_run"] == ref_d["jobs_run"] - 2


# -- sanitizer stays clean ----------------------------------------------------


class TestSanitizerCoverage:
    def test_parallel_layer_sanitizes_clean(self):
        """Every wall-clock call in the supervision layer is annotated
        (timings feed the telemetry footer, never results); repro-san
        must report zero unsuppressed findings for repro.parallel."""
        import repro
        from repro.analysis import discover_sources, run_rules

        parallel_root = Path(repro.__file__).parent / "parallel"
        findings = run_rules(discover_sources(parallel_root))
        active = [f for f in findings if not f.suppressed]
        assert active == [], "\n".join(str(f) for f in active)
