"""Preemption mechanisms (sections 2.2.1, 3.1, 5.6).

Each mechanism describes the five quantities the simulation needs:

* whether the *dispatcher* must act to trigger a preemption, and what that
  action costs it (``dispatcher_signal_cycles``);
* how long after the signal the worker actually begins yielding
  (``notice_delay_cycles`` — zero for interrupts, a probe-gap sample for
  compiler instrumentation);
* the cycles the worker burns just *receiving* the notification
  (``worker_disruption_cycles`` — cnotif in Eq. 3);
* the execution-rate tax the mechanism levies on all application code
  (``proc_overhead`` — the instrumentation share of cproc in Eq. 2);
* the context-switch cost once the worker does yield
  (``context_switch_cycles`` — cswitch in Eqs. 3-4).
"""

from repro import constants

__all__ = [
    "PreemptionMechanism",
    "NoPreemption",
    "PostedIPI",
    "LinuxIPI",
    "UserIPI",
    "CacheLineCooperation",
    "RdtscSelfPreemption",
    "HalfNormalNotice",
    "UniformProbeGapNotice",
]


# --- notice-latency models ----------------------------------------------------


class UniformProbeGapNotice:
    """Notice latency for probe-based mechanisms: the signal lands uniformly
    at random within the current inter-probe gap, so the delay until the next
    probe is U(0, gap) with ``gap`` drawn from the application's probe-gap
    distribution (an :class:`~repro.instrument.profile.InstrumentationProfile`
    or anything with ``sample_gap_cycles``)."""

    def __init__(self, profile=None, mean_gap_cycles=constants.PROBE_INTERVAL_CYCLES):
        self.profile = profile
        self.mean_gap_cycles = mean_gap_cycles

    def sample_cycles(self, rng):
        if self.profile is not None:
            gap = self.profile.sample_gap_cycles(rng)
        else:
            gap = self.mean_gap_cycles
        return rng.uniform(0.0, max(gap, 0.0))


class HalfNormalNotice:
    """One-sided Normal notice latency, the abstraction Fig. 5 studies:
    "a one-sided Normal random variable" because "Concord never preempts
    before the quantum" (section 3.1)."""

    def __init__(self, sigma_cycles):
        if sigma_cycles < 0:
            raise ValueError("sigma must be >= 0, got {}".format(sigma_cycles))
        self.sigma_cycles = sigma_cycles

    def sample_cycles(self, rng):
        if self.sigma_cycles == 0:
            return 0.0
        return abs(rng.gauss(0.0, self.sigma_cycles))


class _ZeroNotice:
    """Interrupts are delivered immediately."""

    def sample_cycles(self, rng):
        return 0.0


# --- mechanisms --------------------------------------------------------------


class PreemptionMechanism:
    """Base class; see module docstring for the field meanings."""

    name = "base"
    #: False for self-preempting mechanisms (rdtsc probes) and NoPreemption.
    needs_dispatcher_signal = True
    dispatcher_signal_cycles = 0
    worker_disruption_cycles = 0
    proc_overhead = 0.0
    context_switch_cycles = constants.COOP_CONTEXT_SWITCH_CYCLES

    def __init__(self, notice=None):
        self._notice = notice if notice is not None else _ZeroNotice()

    @property
    def preemptive(self):
        return True

    def notice_delay_cycles(self, rng):
        """Lag between the signal (or quantum expiry, for self-preemption)
        and the worker starting its yield."""
        return self._notice.sample_cycles(rng)


class NoPreemption(PreemptionMechanism):
    """Run-to-completion: the Persephone-FCFS baseline (section 5.1)."""

    name = "none"
    needs_dispatcher_signal = False

    @property
    def preemptive(self):
        return False

    def notice_delay_cycles(self, rng):
        raise RuntimeError("NoPreemption never delivers a signal")


class PostedIPI(PreemptionMechanism):
    """Shinjuku's posted inter-processor interrupts (section 2.2.1).

    Delivery is precise but receiving one disrupts the worker for ~1200
    cycles, plus pipeline-flush and re-entry costs that Fig. 2's measured
    points (33% at 2 µs, 6% at 10 µs) imply on top.
    """

    name = "posted-ipi"
    dispatcher_signal_cycles = constants.IPI_SEND_CYCLES
    worker_disruption_cycles = (
        constants.IPI_RECEIVE_CYCLES + constants.IPI_EXTRA_DISRUPTION_CYCLES
    )
    context_switch_cycles = constants.PREEMPTIVE_CONTEXT_SWITCH_CYCLES


class LinuxIPI(PostedIPI):
    """Linux's deployable signal-based IPIs: double the receive cost of
    Shinjuku's virtualization-assisted posted IPIs (section 2.2.1)."""

    name = "linux-ipi"
    worker_disruption_cycles = (
        constants.LINUX_IPI_RECEIVE_CYCLES + constants.IPI_EXTRA_DISRUPTION_CYCLES
    )


class UserIPI(PreemptionMechanism):
    """Intel user-space interrupts on Sapphire Rapids (section 5.6).

    Kernel bypass shrinks the receive cost, but delivery still writes
    memory-mapped registers and crosses the same coherence fabric, so the
    cost scales with the machine's coherence model.
    """

    name = "uipi"
    dispatcher_signal_cycles = 150

    def __init__(self, coherence=None):
        super().__init__(notice=_ZeroNotice())
        if coherence is not None:
            self.worker_disruption_cycles = coherence.uipi_receive_cycles
        else:
            self.worker_disruption_cycles = constants.UIPI_RECEIVE_CYCLES
    context_switch_cycles = constants.COOP_CONTEXT_SWITCH_CYCLES


class CacheLineCooperation(PreemptionMechanism):
    """Concord's compiler-enforced cooperation (section 3.1).

    The dispatcher writes a per-worker dedicated cache line (cheap local
    write); the worker's instrumented code notices at its next probe — an L1
    hit for all but the final check, which pays one Read-after-Write miss.
    """

    name = "cacheline"
    dispatcher_signal_cycles = constants.PREEMPT_SIGNAL_WRITE_CYCLES
    context_switch_cycles = constants.COOP_CONTEXT_SWITCH_CYCLES

    def __init__(self, profile=None, coherence=None,
                 proc_overhead=constants.CONCORD_INSTRUMENTATION_OVERHEAD,
                 notice=None):
        if notice is None:
            notice = UniformProbeGapNotice(profile)
        super().__init__(notice=notice)
        # A profile can measure a small negative tax (probe placement that
        # happens to speed the kernel up); instrumentation never makes a
        # worker faster than uninstrumented code, so floor it at 0.
        self.proc_overhead = (
            max(profile.overhead_fraction, 0.0) if profile is not None
            else proc_overhead
        )
        if coherence is not None:
            raw_miss = coherence.probe_miss_cycles
        else:
            raw_miss = constants.CACHELINE_MISS_CYCLES
        #: Raw RaW miss latency — the "1/8th of a Shinjuku IPI" of section 3.1.
        self.raw_miss_cycles = raw_miss
        # The probe's load is an ordinary instruction, so out-of-order
        # execution hides part of the miss; only the exposed fraction is
        # lost execution time.
        self.worker_disruption_cycles = int(
            round(raw_miss * constants.CACHELINE_MISS_EXPOSED_FRACTION)
        )


class RdtscSelfPreemption(PreemptionMechanism):
    """Compiler Interrupts-style rdtsc() polling (section 2.2.1), also used
    by Concord's work-conserving dispatcher to self-preempt (section 3.3).

    No dispatcher involvement: the worker notices the elapsed quantum at its
    next probe.  Probes themselves are expensive (~30 cycles each), which
    shows up as a flat ~21% execution tax.
    """

    name = "rdtsc"
    needs_dispatcher_signal = False
    proc_overhead = constants.RDTSC_INSTRUMENTATION_OVERHEAD
    context_switch_cycles = constants.COOP_CONTEXT_SWITCH_CYCLES

    def __init__(self, profile=None):
        super().__init__(notice=UniformProbeGapNotice(profile))
